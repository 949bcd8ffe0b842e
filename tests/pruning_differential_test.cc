// Differential test for zone-map pruning: every query must produce
// identical (order-normalized) results with pruning force-enabled and
// force-disabled over tables whose tiny segment capacity makes pruning
// decisions frequent. Also pins down the execution-time contract: scan
// morsels are zero-copy views of segment memory, cached plans survive
// DML that changes pruning decisions, and the segments_scanned/pruned
// counters surface through EXPLAIN ANALYZE and the engine totals.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sql/engine.h"
#include "sql/physical_plan.h"
#include "storage/database.h"
#include "workload/tpch.h"

namespace flock::sql {
namespace {

using storage::Database;
using storage::DataType;
using storage::Value;

std::vector<std::string> Canonicalize(const storage::RecordBatch& batch) {
  std::vector<std::string> rows;
  rows.reserve(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::ostringstream out;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == DataType::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.double_value());
        out << buf << "|";
      } else {
        out << v.ToString() << "|";
      }
    }
    rows.push_back(out.str());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

EngineOptions PruningOptions(bool prune) {
  EngineOptions options;
  options.num_threads = 2;
  options.morsel_size = 64;
  options.enable_zone_map_pruning = prune;
  return options;
}

/// emp/dept at segment capacity 16: emp's 700 rows span ~44 segments, so
/// range predicates on the row-order-correlated `id` prune aggressively
/// while predicates on the scrambled `salary` mostly cannot.
Database* JoinDb() {
  static Database* db = [] {
    auto* database = new Database();
    database->set_default_segment_capacity(16);
    SqlEngine setup(database, PruningOptions(true));
    EXPECT_TRUE(setup
                    .Execute("CREATE TABLE emp (id INT, name VARCHAR, "
                             "dept_id INT, salary DOUBLE)")
                    .ok());
    EXPECT_TRUE(setup
                    .Execute("CREATE TABLE dept (id INT, dname VARCHAR, "
                             "budget DOUBLE)")
                    .ok());
    std::string dept_insert = "INSERT INTO dept VALUES ";
    for (int d = 0; d < 20; ++d) {
      if (d > 0) dept_insert += ", ";
      dept_insert += "(" + std::to_string(d) + ", 'dept" +
                     std::to_string(d) + "', " +
                     std::to_string(1000 + 137 * d) + ".0)";
    }
    EXPECT_TRUE(setup.Execute(dept_insert).ok());
    std::string emp_insert = "INSERT INTO emp VALUES ";
    for (int i = 0; i < 700; ++i) {
      if (i > 0) emp_insert += ", ";
      std::string dept =
          (i % 11 == 0) ? "NULL" : std::to_string((i * 7) % 25);
      emp_insert += "(" + std::to_string(i) + ", 'e" + std::to_string(i) +
                    "', " + dept + ", " +
                    std::to_string(100 + (i * 37) % 3000) + ".5)";
    }
    EXPECT_TRUE(setup.Execute(emp_insert).ok());
    return database;
  }();
  return db;
}

/// Runs `sql` with pruning on and off; expects identical multisets.
void ExpectSameResults(Database* db, const std::string& sql,
                       bool count_only = false) {
  SqlEngine pruned(db, PruningOptions(true));
  SqlEngine full(db, PruningOptions(false));
  auto a = pruned.Execute(sql);
  auto b = full.Execute(sql);
  ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
  if (count_only) {
    EXPECT_EQ(a->batch.num_rows(), b->batch.num_rows()) << sql;
    return;
  }
  EXPECT_EQ(Canonicalize(a->batch), Canonicalize(b->batch)) << sql;
  // Pruning-off executions must never report a pruned segment.
  EXPECT_EQ(full.segments_pruned_total(), 0u) << sql;
}

TEST(PruningDifferentialTest, RangeOnRowOrderCorrelatedColumn) {
  ExpectSameResults(JoinDb(), "SELECT id, name FROM emp WHERE id < 50");
  ExpectSameResults(JoinDb(), "SELECT id FROM emp WHERE id >= 650");
  ExpectSameResults(JoinDb(), "SELECT id FROM emp WHERE id > 699");
}

TEST(PruningDifferentialTest, EqualityAndBetween) {
  ExpectSameResults(JoinDb(), "SELECT id, salary FROM emp WHERE id = 123");
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE id BETWEEN 200 AND 240");
}

TEST(PruningDifferentialTest, NullPredicates) {
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE dept_id IS NULL");
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE dept_id IS NOT NULL");
}

TEST(PruningDifferentialTest, ConjunctionsAndUncorrelatedColumns) {
  ExpectSameResults(JoinDb(),
                    "SELECT id, salary FROM emp "
                    "WHERE id < 100 AND salary > 800");
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE salary > 2900");
  // Disjunctions are not pushed down — pruning must stay out of the way.
  ExpectSameResults(JoinDb(),
                    "SELECT id FROM emp WHERE id < 10 OR id > 690");
}

TEST(PruningDifferentialTest, JoinsAndAggregatesAboveAPrunedScan) {
  ExpectSameResults(JoinDb(),
                    "SELECT emp.name, dept.dname FROM emp "
                    "JOIN dept ON emp.dept_id = dept.id "
                    "WHERE emp.id < 200");
  ExpectSameResults(JoinDb(),
                    "SELECT dept_id, COUNT(*), SUM(salary) FROM emp "
                    "WHERE id BETWEEN 100 AND 400 GROUP BY dept_id");
  ExpectSameResults(JoinDb(),
                    "SELECT COUNT(*), MIN(id), MAX(id) FROM emp "
                    "WHERE id >= 350");
}

TEST(PruningDifferentialTest, PruningActuallyFires) {
  SqlEngine engine(JoinDb(), PruningOptions(true));
  auto result = engine.Execute("SELECT id FROM emp WHERE id < 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.num_rows(), 50u);
  uint64_t scanned = 0, pruned = 0;
  for (const OperatorMetricsSnapshot& snap : result->operator_metrics) {
    scanned += snap.segments_scanned;
    pruned += snap.segments_pruned;
  }
  // 700 rows at capacity 16; only the first ~4 segments can hold id < 50.
  EXPECT_GT(scanned, 0u);
  EXPECT_GT(pruned, 30u);
  // The same counters accumulate into the engine-lifetime totals that
  // back the storage.segments_{scanned,pruned} obs counters.
  EXPECT_EQ(engine.segments_scanned_total(), scanned);
  EXPECT_EQ(engine.segments_pruned_total(), pruned);
}

TEST(PruningDifferentialTest, ExplainAnalyzeReportsSegmentCounters) {
  SqlEngine engine(JoinDb(), PruningOptions(true));
  auto result =
      engine.Execute("EXPLAIN ANALYZE SELECT id FROM emp WHERE id < 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->plan_text.find("segments="), std::string::npos)
      << result->plan_text;
  EXPECT_NE(result->plan_text.find("pruned="), std::string::npos)
      << result->plan_text;
}

TEST(PruningDifferentialTest, ScanMorselsAliasSegmentMemory) {
  Database db;
  db.set_default_segment_capacity(4);
  SqlEngine setup(&db, PruningOptions(true));
  ASSERT_TRUE(setup.Execute("CREATE TABLE t (a INT, b DOUBLE)").ok());
  ASSERT_TRUE(setup
                  .Execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), "
                           "(3, 3.0), (4, 4.0), (5, 5.0), (6, 6.0), "
                           "(7, 7.0), (8, 8.0), (9, 9.0), (10, 10.0)")
                  .ok());
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_GT((*table)->num_segments(), 1u);

  TableScanOp scan("t", *table, /*projection=*/{}, (*table)->schema());
  for (size_t s = 0; s < (*table)->num_segments(); ++s) {
    storage::RecordBatch morsel =
        scan.ScanMorsel(s, 0, (*table)->segment_rows(s));
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(morsel.column(c).get(), (*table)->segment_column(s, c).get())
          << "segment " << s << " column " << c
          << " was copied instead of viewed";
    }
  }
  // Projection narrows the view but still shares the backing vectors.
  TableScanOp projected("t", *table, /*projection=*/{1},
                        storage::Schema({(*table)->schema().column(1)}));
  storage::RecordBatch morsel = projected.ScanMorsel(1, 1, 3);
  ASSERT_EQ(morsel.num_rows(), 2u);
  EXPECT_EQ(morsel.column(0).get(), (*table)->segment_column(1, 1).get());
}

// NaN compares false under every operator but <>, which is true. A NaN
// that used to reach a segment's zone map first stuck as both its min and
// max, so pruning dropped the segment for `x < 5` and `x > 0`; and the
// evaluator treated NaN as equal to everything, so `x = 7` matched it.
TEST(PruningDifferentialTest, NanComparesFalseWithPruningOnAndOff) {
  Database db;
  SqlEngine setup(&db, PruningOptions(true));
  ASSERT_TRUE(setup.Execute("CREATE TABLE t (x DOUBLE)").ok());
  ASSERT_TRUE(setup
                  .Execute("INSERT INTO t VALUES (CAST('nan' AS DOUBLE)), "
                           "(1.0), (3.0)")
                  .ok());
  const std::vector<std::pair<std::string, size_t>> cases = {
      {"SELECT x FROM t WHERE x < 5", 2},
      {"SELECT x FROM t WHERE x > 0", 2},
      {"SELECT x FROM t WHERE x = 7", 0},
      {"SELECT x FROM t WHERE x <= 3", 2},
      {"SELECT x FROM t WHERE x >= 1", 2},
      {"SELECT x FROM t WHERE x <> 7", 3},
      {"SELECT x FROM t WHERE 5 > x", 2},
      {"SELECT x FROM t WHERE x BETWEEN 0 AND 5", 2},
      {"SELECT x FROM t WHERE x = CAST('nan' AS DOUBLE)", 0},
  };
  for (bool prune : {true, false}) {
    SqlEngine engine(&db, PruningOptions(prune));
    for (const auto& [sql, expected] : cases) {
      auto result = engine.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      EXPECT_EQ(result->batch.num_rows(), expected)
          << sql << (prune ? " (pruning on)" : " (pruning off)");
    }
  }
  for (const auto& entry : cases) ExpectSameResults(&db, entry.first);
}

TEST(PruningDifferentialTest, CachedPlansStayCorrectAcrossDml) {
  Database db;
  db.set_default_segment_capacity(8);
  SqlEngine engine(&db, PruningOptions(true));
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (k INT, v DOUBLE)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ".5)";
  }
  ASSERT_TRUE(engine.Execute(insert).ok());

  const std::string query = "SELECT k FROM t WHERE k < 20";
  auto first = engine.Execute(query);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_plan_cache);
  EXPECT_EQ(first->batch.num_rows(), 20u);
  auto second = engine.Execute(query);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_plan_cache);

  // An INSERT that lands a qualifying row in a previously-pruned region:
  // the cached plan must pick it up because pruning decisions are made at
  // execution time from live zone maps, not baked into the plan.
  ASSERT_TRUE(engine.Execute("INSERT INTO t VALUES (5, 500.5)").ok());
  auto after_insert = engine.Execute(query);
  ASSERT_TRUE(after_insert.ok());
  EXPECT_TRUE(after_insert->from_plan_cache);
  EXPECT_EQ(after_insert->batch.num_rows(), 21u);

  // A DELETE that rewrites segments (shifting every pruning decision)
  // must also flow through the cached plan.
  ASSERT_TRUE(engine.Execute("DELETE FROM t WHERE k >= 10 AND k < 15").ok());
  auto after_delete = engine.Execute(query);
  ASSERT_TRUE(after_delete.ok());
  EXPECT_TRUE(after_delete->from_plan_cache);
  EXPECT_EQ(after_delete->batch.num_rows(), 16u);

  // Differential cross-check of the final state.
  SqlEngine full(&db, PruningOptions(false));
  auto reference = full.Execute(query);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Canonicalize(after_delete->batch),
            Canonicalize(reference->batch));
}

/// All 22 TPC-H templates, pruning on vs off, over multi-segment data.
class TpchPruningDifferentialTest
    : public ::testing::TestWithParam<size_t> {};

Database* TpchDb() {
  static Database* db = [] {
    auto* database = new Database();
    database->set_default_segment_capacity(64);
    workload::TpchWorkload tpch(42);
    EXPECT_TRUE(tpch.CreateSchema(database).ok());
    EXPECT_TRUE(tpch.PopulateData(database, 400).ok());
    return database;
  }();
  return db;
}

TEST_P(TpchPruningDifferentialTest, PrunedAndFullScansAgree) {
  workload::TpchWorkload generator(GetParam() * 13 + 3);
  std::string query = generator.Instantiate(GetParam());
  ExpectSameResults(TpchDb(), query);
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, TpchPruningDifferentialTest,
                         ::testing::Range<size_t>(0, 22));

}  // namespace
}  // namespace flock::sql
