#include <gtest/gtest.h>

#include "prov/bridge.h"
#include "prov/catalog.h"
#include "prov/compression.h"
#include "prov/sql_capture.h"
#include "sql/engine.h"
#include "storage/database.h"
#include "workload/tpch.h"

namespace flock::prov {
namespace {

TEST(CatalogTest, GetOrCreateIsIdempotent) {
  Catalog catalog;
  uint64_t a = catalog.GetOrCreate(EntityType::kTable, "users");
  uint64_t b = catalog.GetOrCreate(EntityType::kTable, "users");
  EXPECT_EQ(a, b);
  EXPECT_EQ(catalog.num_entities(), 1u);
}

TEST(CatalogTest, DistinctTypesDistinctEntities) {
  Catalog catalog;
  uint64_t t = catalog.GetOrCreate(EntityType::kTable, "x");
  uint64_t m = catalog.GetOrCreate(EntityType::kModel, "x");
  EXPECT_NE(t, m);
}

TEST(CatalogTest, NewVersionChains) {
  Catalog catalog;
  uint64_t v1 = catalog.GetOrCreate(EntityType::kTable, "t");
  uint64_t v2 = catalog.NewVersion(EntityType::kTable, "t");
  uint64_t v3 = catalog.NewVersion(EntityType::kTable, "t");
  EXPECT_NE(v1, v2);
  EXPECT_NE(v2, v3);
  auto versions = catalog.Versions(EntityType::kTable, "t");
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0]->version, 1u);
  EXPECT_EQ(versions[2]->version, 3u);
  // Latest lookup returns v3.
  auto latest = catalog.Find(EntityType::kTable, "t");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, v3);
  auto specific = catalog.Find(EntityType::kTable, "t", 2);
  ASSERT_TRUE(specific.ok());
  EXPECT_EQ(*specific, v2);
}

TEST(CatalogTest, LineageTraversal) {
  Catalog catalog;
  uint64_t table = catalog.GetOrCreate(EntityType::kTable, "loans");
  uint64_t column = catalog.GetOrCreate(EntityType::kColumn, "loans.age");
  uint64_t dataset = catalog.GetOrCreate(EntityType::kDataset, "ds");
  uint64_t model = catalog.GetOrCreate(EntityType::kModel, "m");
  catalog.AddEdge(table, column, EdgeType::kContains);
  catalog.AddEdge(dataset, column, EdgeType::kDerivesFrom);
  catalog.AddEdge(model, dataset, EdgeType::kDerivesFrom);

  // Upstream from model: dataset, column.
  auto up = catalog.Lineage(model, /*downstream=*/false);
  ASSERT_EQ(up.size(), 2u);
  // Downstream from column: dataset, model, table (table contains col).
  auto down = catalog.Lineage(column, /*downstream=*/true);
  EXPECT_EQ(down.size(), 3u);
}

TEST(CatalogTest, PropertiesStored) {
  Catalog catalog;
  uint64_t q = catalog.GetOrCreate(EntityType::kQuery, "q1");
  ASSERT_TRUE(catalog.SetProperty(q, "sql", "SELECT 1").ok());
  auto entity = catalog.GetEntity(q);
  ASSERT_TRUE(entity.ok());
  EXPECT_EQ((*entity)->properties.at("sql"), "SELECT 1");
  EXPECT_FALSE(catalog.SetProperty(999, "k", "v").ok());
}

class SqlCaptureTest : public ::testing::Test {
 protected:
  SqlCaptureTest() : capture_(&catalog_, &db_) {
    workload::TpchWorkload tpch;
    EXPECT_TRUE(tpch.CreateSchema(&db_).ok());
  }

  storage::Database db_;
  Catalog catalog_;
  SqlCaptureModule capture_;
};

TEST_F(SqlCaptureTest, SelectCapturesTablesAndColumns) {
  ASSERT_TRUE(capture_
                  .CaptureStatement(
                      "SELECT o_orderkey, o_totalprice FROM orders WHERE "
                      "o_orderdate > '1995-01-01'")
                  .ok());
  EXPECT_TRUE(catalog_.Find(EntityType::kTable, "orders").ok());
  EXPECT_TRUE(
      catalog_.Find(EntityType::kColumn, "orders.o_orderkey").ok());
  EXPECT_TRUE(
      catalog_.Find(EntityType::kColumn, "orders.o_orderdate").ok());
  EXPECT_EQ(capture_.stats().statements, 1u);
  EXPECT_EQ(capture_.stats().parse_failures, 0u);
}

TEST_F(SqlCaptureTest, QualifiedJoinColumnsResolveThroughAliases) {
  ASSERT_TRUE(capture_
                  .CaptureStatement(
                      "SELECT c.c_name, o.o_totalprice FROM customer c "
                      "JOIN orders o ON c.c_custkey = o.o_custkey")
                  .ok());
  EXPECT_TRUE(catalog_.Find(EntityType::kColumn, "customer.c_name").ok());
  EXPECT_TRUE(
      catalog_.Find(EntityType::kColumn, "orders.o_custkey").ok());
}

TEST_F(SqlCaptureTest, InsertCreatesNewTableVersion) {
  ASSERT_TRUE(capture_
                  .CaptureStatement("INSERT INTO nation VALUES (1, 'x', "
                                    "1, 'c')")
                  .ok());
  ASSERT_TRUE(capture_
                  .CaptureStatement("INSERT INTO nation VALUES (2, 'y', "
                                    "1, 'c')")
                  .ok());
  auto versions = catalog_.Versions(EntityType::kTable, "nation");
  // First INSERT creates v1 (fresh entity), second appends v2.
  ASSERT_GE(versions.size(), 2u);
  EXPECT_EQ(versions.back()->version, versions.size());
}

TEST_F(SqlCaptureTest, UpdateCapturesReadAndWrite) {
  ASSERT_TRUE(capture_
                  .CaptureStatement(
                      "UPDATE supplier SET s_acctbal = s_acctbal + 10 "
                      "WHERE s_suppkey = 5")
                  .ok());
  EXPECT_TRUE(
      catalog_.Find(EntityType::kColumn, "supplier.s_acctbal").ok());
  EXPECT_TRUE(
      catalog_.Find(EntityType::kColumn, "supplier.s_suppkey").ok());
  EXPECT_GE(catalog_.Versions(EntityType::kTable, "supplier").size(), 1u);
}

TEST_F(SqlCaptureTest, ParseFailureCountedNotFatal) {
  EXPECT_FALSE(capture_.CaptureStatement("MERGE INTO whatever").ok());
  EXPECT_EQ(capture_.stats().parse_failures, 1u);
  // Catalog remains usable.
  EXPECT_TRUE(capture_.CaptureStatement("SELECT 1").ok());
}

TEST_F(SqlCaptureTest, LazyCaptureFromQueryLog) {
  storage::Database db2;
  workload::TpchWorkload tpch;
  ASSERT_TRUE(tpch.CreateSchema(&db2).ok());
  sql::EngineOptions options;
  options.num_threads = 1;
  sql::SqlEngine engine(&db2, options);
  // The caller keeps the log of what it ran.
  const std::vector<std::string> log = {
      "SELECT r_name FROM region",
      "INSERT INTO region VALUES (1, 'ASIA', 'x')",
      "SELECT n_name FROM nation WHERE n_regionkey = 1"};
  for (const std::string& sql : log) {
    ASSERT_TRUE(engine.Execute(sql).ok()) << sql;
  }

  Catalog lazy_catalog;
  SqlCaptureModule lazy(&lazy_catalog, &db2);
  ASSERT_TRUE(lazy.CaptureLog(log).ok());
  EXPECT_EQ(lazy.stats().statements, 3u);
  EXPECT_TRUE(lazy_catalog.Find(EntityType::kTable, "region").ok());
  EXPECT_TRUE(lazy_catalog.Find(EntityType::kTable, "nation").ok());
  EXPECT_GT(lazy_catalog.GraphSize(), 6u);
}

TEST_F(SqlCaptureTest, EagerCaptureViaEngineObserver) {
  storage::Database db2;
  workload::TpchWorkload tpch;
  ASSERT_TRUE(tpch.CreateSchema(&db2).ok());
  sql::EngineOptions options;
  options.num_threads = 1;
  sql::SqlEngine engine(&db2, options);
  Catalog eager_catalog;
  SqlCaptureModule eager(&eager_catalog, &db2);
  engine.set_statement_observer(
      [&](const std::string& sql, const sql::Statement& stmt) {
        (void)stmt;
        (void)eager.CaptureStatement(sql);
      });
  ASSERT_TRUE(engine.Execute("SELECT s_name FROM supplier").ok());
  EXPECT_EQ(eager.stats().statements, 1u);
  EXPECT_TRUE(eager_catalog.Find(EntityType::kTable, "supplier").ok());
}

// ---------------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------------

TEST(NormalizeQueryTest, LiteralsBecomePlaceholders) {
  EXPECT_EQ(NormalizeQuery("SELECT * FROM t WHERE a = 5 AND b = 'x'"),
            "SELECT * FROM T WHERE A = ? AND B = ?");
  EXPECT_EQ(NormalizeQuery("select  1,   2.5"), "SELECT ?, ?");
  // Identifiers with digits survive.
  EXPECT_EQ(NormalizeQuery("SELECT f1 FROM t2"), "SELECT F1 FROM T2");
}

TEST(NormalizeQueryTest, TemplateInstancesCollide) {
  workload::TpchWorkload tpch(7);
  std::string a = tpch.Instantiate(5);
  workload::TpchWorkload tpch2(99);
  std::string b = tpch2.Instantiate(5);
  EXPECT_NE(a, b);  // different parameters...
  EXPECT_EQ(NormalizeQuery(a), NormalizeQuery(b));  // ...same template
}

TEST_F(SqlCaptureTest, CompressionShrinksGraph) {
  workload::TpchWorkload tpch(3);
  for (const std::string& q : tpch.GenerateQueryStream(110)) {
    ASSERT_TRUE(capture_.CaptureStatement(q).ok()) << q;
  }
  // Plus a burst of inserts to create version chains.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(capture_.CaptureStatement(
                            "INSERT INTO region VALUES (" +
                            std::to_string(i) + ", 'R', 'c')")
                    .ok());
  }
  Catalog compressed;
  CompressionStats stats;
  ASSERT_TRUE(CompressCatalog(catalog_, &compressed, &stats).ok());
  EXPECT_EQ(stats.SizeBefore(), catalog_.GraphSize());
  EXPECT_LT(stats.SizeAfter(), stats.SizeBefore() / 2)
      << "110 template instances + 30 versions should compress well";
  // 110 queries over 22 TPC-H templates + the INSERT template -> 23
  // template entities.
  size_t templates = 0;
  for (const Entity& e : compressed.entities()) {
    if (e.type == EntityType::kQueryTemplate) ++templates;
  }
  EXPECT_EQ(templates, 23u);
}

// ---------------------------------------------------------------------------
// Bridge (C3)
// ---------------------------------------------------------------------------

TEST(BridgeTest, ColumnChangeFindsImpactedModels) {
  Catalog catalog;
  // SQL side: table + column.
  uint64_t table = catalog.GetOrCreate(EntityType::kTable, "loans");
  uint64_t column = catalog.GetOrCreate(EntityType::kColumn, "loans.age");
  catalog.AddEdge(table, column, EdgeType::kContains);
  // Pipeline side: dataset + model.
  ASSERT_TRUE(
      LinkDatasetToColumn(&catalog, "sql:select * from loans", "loans",
                          "age")
          .ok());
  uint64_t dataset = *catalog.Find(EntityType::kDataset,
                                   "sql:select * from loans");
  uint64_t model = catalog.GetOrCreate(EntityType::kModel, "churn");
  catalog.AddEdge(model, dataset, EdgeType::kDerivesFrom);

  auto impacted = FindImpactedModels(catalog, "loans", "age");
  ASSERT_EQ(impacted.size(), 1u);
  EXPECT_EQ(impacted[0]->name, "churn");
  // A different column impacts nothing.
  EXPECT_TRUE(FindImpactedModels(catalog, "loans", "income").empty());
}

TEST(BridgeTest, ModelTrainingSourcesWalksUpstream) {
  Catalog catalog;
  uint64_t table = catalog.GetOrCreate(EntityType::kTable, "claims");
  ASSERT_TRUE(LinkDatasetToTable(&catalog, "file:claims.csv", "claims")
                  .ok());
  uint64_t dataset =
      *catalog.Find(EntityType::kDataset, "file:claims.csv");
  uint64_t model = catalog.GetOrCreate(EntityType::kModel, "fraud");
  catalog.AddEdge(model, dataset, EdgeType::kDerivesFrom);
  (void)table;

  auto sources = ModelTrainingSources(catalog, "fraud");
  ASSERT_EQ(sources.size(), 2u);  // dataset + table
}

}  // namespace
}  // namespace flock::prov
