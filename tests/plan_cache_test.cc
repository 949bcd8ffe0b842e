// Differential suite for the parameterized plan cache: a statement that
// hits a plan cached under its shape (LexedStatement::key) with other
// literal values must return the rows, bitwise, and the logical plan, as
// text, that a fresh plan of the same statement returns. Each shape runs
// a series of literal values through an engine with the cache on and one
// with it off over the same data, and checks which executions hit:
// shapes whose literals planning never reads hit on every execution after
// the first; a pinned literal, a different set of standing segments or a
// stale table version is a miss. A concurrent case sends different ids of
// one shape through four PredictionServer workers.
//
// Carries the `plancache` ctest label; scripts/check.sh runs it in its
// ASan, TSan and UBSan stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "ml/pipeline.h"
#include "ml/tree.h"
#include "serve/server.h"
#include "sql/engine.h"
#include "sql/lexer.h"
#include "workload/synthetic.h"

namespace flock {
namespace {

using storage::DataType;
using storage::Value;

/// The rows of `batch`, sorted, with doubles spelled as their bit patterns
/// so equal rows are bitwise equal.
std::vector<std::string> ExactRows(const storage::RecordBatch& batch) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c)->GetValue(r);
      if (!v.is_null() && v.type() == DataType::kDouble) {
        row += std::to_string(std::bit_cast<uint64_t>(v.double_value()));
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The "== Logical Plan ==" section of an EXPLAIN rendering.
std::string LogicalSection(const std::string& plan_text) {
  const std::string begin = "== Logical Plan ==\n";
  const size_t from = plan_text.find(begin);
  const size_t to = plan_text.find("== Physical Plan ==");
  if (from == std::string::npos || to == std::string::npos) return plan_text;
  return plan_text.substr(from + begin.size(), to - from - begin.size());
}

/// One engine with the plan cache on and one with it off, over the same
/// data: the SQL layer alone, or the Flock layer with its cross-optimizer.
class Pair {
 public:
  virtual ~Pair() = default;
  virtual StatusOr<sql::QueryResult> Cached(const std::string& sql) = 0;
  virtual StatusOr<sql::QueryResult> Fresh(const std::string& sql) = 0;
  virtual sql::PlanCache* cache() = 0;

  /// Runs `sql` on both engines and checks that the cached side's rows
  /// (or error) and plan equal the fresh side's. Returns whether the
  /// cached execution hit.
  bool Check(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto cached = Cached(sql);
    auto fresh = Fresh(sql);
    EXPECT_EQ(cached.ok(), fresh.ok())
        << (cached.ok() ? fresh.status() : cached.status()).ToString();
    if (!cached.ok() || !fresh.ok()) {
      EXPECT_EQ(cached.status().code(), fresh.status().code());
      return false;
    }
    EXPECT_FALSE(fresh->from_plan_cache);
    EXPECT_EQ(ExactRows(cached->batch), ExactRows(fresh->batch));
    // The plan a hit serves now, against a fresh plan of the statement.
    auto lexed = sql::LexStatement(sql);
    EXPECT_TRUE(lexed.ok());
    sql::PlanPtr hit = cache()->Lookup(lexed->key, lexed->params);
    if (hit != nullptr) {
      auto explain = Fresh("EXPLAIN " + sql);
      EXPECT_TRUE(explain.ok()) << explain.status().ToString();
      if (explain.ok()) {
        EXPECT_EQ(hit->ToString(), LogicalSection(explain->plan_text));
      }
    }
    return cached->from_plan_cache;
  }
};

class SqlPair : public Pair {
 public:
  SqlPair() : cached_(&db_), fresh_(&db_, NoCache()) {
    db_.set_default_segment_capacity(8);
  }

  StatusOr<sql::QueryResult> Cached(const std::string& sql) override {
    return cached_.Execute(sql);
  }
  StatusOr<sql::QueryResult> Fresh(const std::string& sql) override {
    return fresh_.Execute(sql);
  }
  sql::PlanCache* cache() override { return cached_.plan_cache(); }

 private:
  static sql::EngineOptions NoCache() {
    sql::EngineOptions options;
    options.enable_plan_cache = false;
    return options;
  }

  storage::Database db_;
  sql::SqlEngine cached_;
  sql::SqlEngine fresh_;
};

/// t(k INT, x DOUBLE, s VARCHAR), k = 0..99 over segments of 8 rows,
/// x = k / 10 and s = "name<k % 7>".
void FillSqlTable(Pair* pair) {
  std::string insert = "INSERT INTO t VALUES ";
  for (int k = 0; k < 100; ++k) {
    if (k > 0) insert += ", ";
    insert += StrCat("(", std::to_string(k)) + ", " + std::to_string(k / 10.0) +
              ", 'name" + std::to_string(k % 7) + "')";
  }
  for (const std::string& sql :
       {std::string("CREATE TABLE t (k INT, x DOUBLE, s VARCHAR)"), insert}) {
    ASSERT_TRUE(pair->Cached(sql).ok()) << sql;
  }
}

/// A one-feature tree on `x` behind an imputer (fill 0.5) splitting at
/// 0.45 and 0.85, the model the compression suites use.
ml::Pipeline TreePipeline(bool imputer) {
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}}});
  if (imputer) pipeline.SetImputer({0.5});
  auto leaf = [](double value) {
    ml::TreeNode n;
    n.feature = -1;
    n.value = value;
    return n;
  };
  ml::TreeNode root;
  root.feature = 0;
  root.threshold = 0.45;
  root.left = 1;
  root.right = 2;
  ml::TreeNode inner = root;
  inner.threshold = 0.85;
  inner.left = 3;
  inner.right = 4;
  ml::Tree tree;
  tree.nodes = {root, leaf(1.0), inner, leaf(0.5), leaf(0.0)};
  ml::TreeEnsembleModel model;
  model.trees.push_back(tree);
  pipeline.SetTreeModel(model);
  return pipeline;
}

class FlockPair : public Pair {
 public:
  FlockPair() : cached_(Options(true)), fresh_(Options(false)) {
    for (flock::FlockEngine* engine : {&cached_, &fresh_}) {
      engine->database()->set_default_segment_capacity(4);
      Run(engine, "CREATE TABLE t (id INT, x DOUBLE, b INT)");
      // Segments of four ids: x rises with id, b = id % 5.
      std::string insert = "INSERT INTO t VALUES ";
      for (int id = 0; id < 16; ++id) {
        if (id > 0) insert += ", ";
        insert += StrCat("(", std::to_string(id)) + ", " +
                  std::to_string(0.1 + id * 0.07) + ", " +
                  std::to_string(id % 5) + ")";
      }
      Run(engine, insert);
      EXPECT_TRUE(engine->DeployModel("m", TreePipeline(true)).ok());
      EXPECT_TRUE(engine->DeployModel("raw", TreePipeline(false)).ok());
    }
  }

  StatusOr<sql::QueryResult> Cached(const std::string& sql) override {
    return cached_.Execute(sql);
  }
  StatusOr<sql::QueryResult> Fresh(const std::string& sql) override {
    return fresh_.Execute(sql);
  }
  sql::PlanCache* cache() override { return cached_.sql()->plan_cache(); }
  flock::FlockEngine* fresh() { return &fresh_; }

  /// Runs a write on both engines.
  void Both(const std::string& sql) {
    Run(&cached_, sql);
    Run(&fresh_, sql);
  }

 private:
  static flock::FlockEngineOptions Options(bool cache) {
    flock::FlockEngineOptions options;
    options.sql.enable_plan_cache = cache;
    options.sql.num_threads = 2;
    return options;
  }
  static void Run(flock::FlockEngine* engine, const std::string& sql) {
    auto result = engine->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  }

  flock::FlockEngine cached_;
  flock::FlockEngine fresh_;
};

std::string Fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

// ---------------------------------------------------------------------------
// SQL shapes

TEST(PlanCacheDifferentialTest, BetweenInAndLikeLiteralsStayFree) {
  SqlPair pair;
  FillSqlTable(&pair);
  Random rng(1);
  for (int i = 0; i < 12; ++i) {
    const int lo = static_cast<int>(rng.Uniform(100));
    const int hi = lo + static_cast<int>(rng.Uniform(30));
    const std::string between = "SELECT k, x FROM t WHERE k BETWEEN " +
                                std::to_string(lo) + " AND " +
                                std::to_string(hi);
    EXPECT_EQ(pair.Check(between), i > 0);
    const std::string in = "SELECT k, s FROM t WHERE k IN (" +
                           std::to_string(rng.Uniform(100)) + ", " +
                           std::to_string(rng.Uniform(100)) + ", " +
                           std::to_string(rng.Uniform(100)) + ")";
    EXPECT_EQ(pair.Check(in), i > 0);
    const std::string like = "SELECT k FROM t WHERE s LIKE 'name" +
                             std::to_string(rng.Uniform(7)) + "%' AND x > " +
                             Fixed(rng.NextDouble() * 10);
    EXPECT_EQ(pair.Check(like), i > 0);
  }
  // An IN list of another length is another shape.
  EXPECT_FALSE(pair.Check("SELECT k, s FROM t WHERE k IN (1, 2)"));
  EXPECT_TRUE(pair.Check("SELECT k, s FROM t WHERE k IN (3, 4)"));
}

TEST(PlanCacheDifferentialTest, GroupKeyMatchingPinsBothLiterals) {
  SqlPair pair;
  FillSqlTable(&pair);
  const auto sql = [](int a, int b) {
    return "SELECT k + " + std::to_string(a) +
           ", COUNT(*) FROM t GROUP BY k + " + std::to_string(b);
  };
  EXPECT_FALSE(pair.Check(sql(1, 1)));
  EXPECT_TRUE(pair.Check(sql(1, 1)));
  // Another value matches the key too, but the plan names its columns
  // after the literal text: pinned.
  EXPECT_FALSE(pair.Check(sql(2, 2)));
  // `x + 1 ... GROUP BY x + 2` is an error on both sides, never a hit.
  EXPECT_FALSE(pair.Check(sql(1, 2)));
  EXPECT_FALSE(pair.Cached(sql(1, 2)).ok());
  EXPECT_FALSE(pair.Check(sql(1, 1)));
  EXPECT_TRUE(pair.Check(sql(1, 1)));
}

TEST(PlanCacheDifferentialTest, LimitAndOffsetArePinned) {
  SqlPair pair;
  FillSqlTable(&pair);
  const auto sql = [](int limit, int offset) {
    return "SELECT k, x FROM t WHERE k > 10 ORDER BY x DESC LIMIT " +
           std::to_string(limit) + " OFFSET " + std::to_string(offset);
  };
  EXPECT_FALSE(pair.Check(sql(5, 2)));
  EXPECT_TRUE(pair.Check(sql(5, 2)));
  EXPECT_FALSE(pair.Check(sql(7, 2)));
  EXPECT_FALSE(pair.Check(sql(7, 3)));
  EXPECT_TRUE(pair.Check(sql(7, 3)));
  // The comparison literal stays free.
  EXPECT_TRUE(pair.Check("SELECT k, x FROM t WHERE k > 50 ORDER BY x DESC "
                         "LIMIT 7 OFFSET 3"));
}

TEST(PlanCacheDifferentialTest, IntegerAndDoubleLiteralsAreDistinctShapes) {
  SqlPair pair;
  FillSqlTable(&pair);
  EXPECT_NE(sql::NormalizeSql("SELECT k FROM t WHERE k = 5"),
            sql::NormalizeSql("SELECT k FROM t WHERE k = 5.0"));
  EXPECT_FALSE(pair.Check("SELECT k, x / 2 FROM t WHERE k = 5"));
  EXPECT_FALSE(pair.Check("SELECT k, x / 2 FROM t WHERE k = 5.0"));
  EXPECT_TRUE(pair.Check("SELECT k, x / 2 FROM t WHERE k = 6"));
  EXPECT_TRUE(pair.Check("SELECT k, x / 2 FROM t WHERE k = 6.5"));
  // A folded constant pins the literals it folded.
  EXPECT_FALSE(pair.Check("SELECT k FROM t WHERE k = 2 + 3"));
  EXPECT_TRUE(pair.Check("SELECT k FROM t WHERE k = 2 + 3"));
  EXPECT_FALSE(pair.Check("SELECT k FROM t WHERE k = 2 + 4"));
}

TEST(PlanCacheDifferentialTest, DmlBetweenExecutionsIsSeen) {
  SqlPair pair;
  FillSqlTable(&pair);
  const std::string sql = "SELECT s, COUNT(*), SUM(k) FROM t WHERE k >= ";
  EXPECT_FALSE(pair.Check(sql + "10 GROUP BY s"));
  ASSERT_TRUE(pair.Cached("INSERT INTO t VALUES (500, 1.5, 'name3')").ok());
  EXPECT_TRUE(pair.Check(sql + "20 GROUP BY s"));
  ASSERT_TRUE(pair.Cached("DELETE FROM t WHERE k < 30").ok());
  EXPECT_TRUE(pair.Check(sql + "5 GROUP BY s"));
}

// ---------------------------------------------------------------------------
// PREDICT shapes through the cross-optimizer

TEST(PlanCacheDifferentialTest, Fig4ThresholdsStayFree) {
  FlockPair pair;
  Random rng(4);
  for (int i = 0; i < 12; ++i) {
    // `b` is no feature of `m`, and b >= 0 disproves no segment.
    const std::string sql = "SELECT id, b FROM t WHERE b >= 0 AND "
                            "PREDICT(m, x) > " + Fixed(rng.NextDouble());
    EXPECT_EQ(pair.Check(sql), i > 0);
  }
  // The threshold stays free on either side of the comparison.
  EXPECT_FALSE(pair.Check("SELECT id FROM t WHERE 0.25 < PREDICT(m, x)"));
  EXPECT_TRUE(pair.Check("SELECT id FROM t WHERE 0.75 < PREDICT(m, x)"));
}

TEST(PlanCacheDifferentialTest, StandingSegmentsGuardCompression) {
  FlockPair pair;
  const auto sql = [](int id) {
    return "SELECT id, PREDICT(m, x) FROM t WHERE id >= " +
           std::to_string(id);
  };
  // id >= 0 and id >= 1 leave all four segments standing: x spans both
  // splits, and nothing compresses.
  EXPECT_FALSE(pair.Check(sql(0)));
  EXPECT_TRUE(pair.Check(sql(1)));
  // id >= 12 disproves three segments; x in the last one lies right of
  // both splits, so the model compresses: a miss, then a hit.
  EXPECT_FALSE(pair.Check(sql(12)));
  EXPECT_NE(pair.cache()->Lookup(sql::NormalizeSql(sql(13)),
                                 sql::LexStatement(sql(13))->params)
                ->ToString()
                .find("#c"),
            std::string::npos);
  EXPECT_TRUE(pair.Check(sql(13)));
  EXPECT_FALSE(pair.Check(sql(2)));
  EXPECT_TRUE(pair.Check(sql(3)));
}

TEST(PlanCacheDifferentialTest, FeatureRangeLiteralsArePinned) {
  FlockPair pair;
  const auto sql = [](const std::string& v) {
    return "SELECT id, PREDICT(m, x) FROM t WHERE x >= " + v;
  };
  EXPECT_FALSE(pair.Check(sql("0.9")));
  EXPECT_TRUE(pair.Check(sql("0.9")));
  EXPECT_FALSE(pair.Check(sql("0.5")));
  EXPECT_FALSE(pair.Check(sql("0.3")));
  EXPECT_TRUE(pair.Check(sql("0.3")));
  // BETWEEN narrows by both bounds.
  EXPECT_FALSE(pair.Check("SELECT id, PREDICT(m, x) FROM t WHERE x "
                          "BETWEEN 0.5 AND 0.8"));
  EXPECT_FALSE(pair.Check("SELECT id, PREDICT(m, x) FROM t WHERE x "
                          "BETWEEN 0.5 AND 0.9"));
}

TEST(PlanCacheDifferentialTest, ModelNamedByAStringIsPinned) {
  FlockPair pair;
  EXPECT_FALSE(pair.Check("SELECT id, PREDICT('m', x) FROM t"));
  EXPECT_TRUE(pair.Check("SELECT id, PREDICT('m', x) FROM t"));
  EXPECT_FALSE(pair.Check("SELECT id, PREDICT('raw', x) FROM t"));
  EXPECT_FALSE(pair.Check("SELECT id, PREDICT('m', x) FROM t"));
}

TEST(PlanCacheDifferentialTest, DmlReplansACompressedPlan) {
  FlockPair pair;
  const std::string sql = "SELECT id, PREDICT(m, x) FROM t WHERE id >= ";
  EXPECT_FALSE(pair.Check(sql + "12"));
  EXPECT_TRUE(pair.Check(sql + "13"));
  // The new row lands in the standing segment and left of both splits:
  // the compressed plan is stale (stats_version) and re-planned.
  pair.Both("INSERT INTO t VALUES (16, 0.2, 1)");
  EXPECT_FALSE(pair.Check(sql + "12"));
  EXPECT_TRUE(pair.Check(sql + "14"));
}

// A plan whose compression folded nothing still read the zone maps: after
// an UPDATE that moves every x right of the first split (same segments
// standing), a fresh plan compresses, so the cached one must not serve.
TEST(PlanCacheDifferentialTest, DmlThatLetsCompressionFoldReplans) {
  FlockPair pair;
  const std::string sql = "SELECT id, PREDICT(m, x) FROM t WHERE b >= ";
  EXPECT_FALSE(pair.Check(sql + "0"));
  EXPECT_TRUE(pair.Check(sql + "1"));
  pair.Both("UPDATE t SET x = x + 0.5 WHERE x < 0.5");
  EXPECT_FALSE(pair.Check(sql + "0"));
  EXPECT_TRUE(pair.Check(sql + "1"));
}

// Compression that folds nothing neither registers a specialization nor
// copies the model, however often the statement is planned.
TEST(PlanCacheDifferentialTest, NoOpCompressionCopiesNoModel) {
  FlockPair pair;
  flock::FlockEngine* engine = pair.fresh();  // cache off: every run plans
  const std::string sql = "SELECT id, PREDICT(m, x) FROM t";
  for (int run = 0; run < 2; ++run) {
    auto scored = engine->Execute(sql);
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    EXPECT_FALSE(scored->from_plan_cache);
    EXPECT_EQ(engine->cross_optimizer()->stats().models_copied, 0u);
    EXPECT_EQ(engine->cross_optimizer()->stats().tree_nodes_compressed, 0u);
    auto plan = engine->Execute("EXPLAIN " + sql);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->plan_text.find("#c"), std::string::npos);
  }
  // A range that folds copies the model once, for its specialization.
  for (size_t copies : {1u, 0u}) {
    ASSERT_TRUE(engine->Execute(sql + " WHERE x >= 0.9").ok());
    EXPECT_EQ(engine->cross_optimizer()->stats().models_copied, copies);
  }
}

// ---------------------------------------------------------------------------
// Concurrency

// Four serving workers bind different ids into one cached shape at once;
// every answer equals serial execution of its statement.
TEST(PlanCacheConcurrencyTest, WorkersBindDifferentIdsUnderOneKey) {
  flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  flock::FlockEngine engine(options);
  workload::InferenceWorkloadOptions data;
  data.num_rows = 2000;
  data.gbt_trees = 8;
  data.gbt_depth = 4;
  data.train_rows = 400;
  data.table_name = "users";
  data.model_name = "churn";
  ASSERT_TRUE(workload::BuildInferenceWorkload(&engine, data).ok());
  std::string features;
  for (int c = 0; c < 27; ++c) features += StrCat("f", std::to_string(c), ", ");
  features += "segment";
  const auto sql = [&](uint64_t id) {
    return "SELECT id, PREDICT(churn, " + features +
           ") FROM users WHERE id = " + std::to_string(id);
  };

  serve::ServerOptions server_options;
  server_options.admission.num_workers = 4;
  server_options.admission.max_queue_depth = 1000;  // none shed
  serve::PredictionServer server(&engine, server_options);
  serve::LoopbackClient client(&server);
  ASSERT_TRUE(client.status().ok());
  ASSERT_TRUE(client.Execute(sql(0)).ok());  // plans and caches the shape

  Random rng(9);
  std::vector<uint64_t> ids;
  std::vector<std::future<StatusOr<sql::QueryResult>>> futures;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(rng.Uniform(2000));
    futures.push_back(server.Submit(client.session_id(), sql(ids.back())));
  }
  std::vector<std::vector<std::string>> answers;
  size_t hits = 0;
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    hits += result->from_plan_cache ? 1 : 0;
    answers.push_back(ExactRows(result->batch));
  }
  EXPECT_EQ(hits, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto serial = engine.Execute(sql(ids[i]));
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ(serial->batch.num_rows(), 1u);
    EXPECT_EQ(answers[i], ExactRows(serial->batch)) << sql(ids[i]);
  }
}

}  // namespace
}  // namespace flock
