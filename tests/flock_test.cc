#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <thread>
#include <vector>

#include "common/random.h"
#include "flock/flock_engine.h"
#include "flock/scoring.h"
#include "ml/linear.h"
#include "ml/tree.h"

namespace flock::flock {
namespace {

using storage::DataType;
using storage::Value;

/// Trains a GBDT churn pipeline over (age, income, tenure, clicks, 4 noise
/// columns, plan) and loads matching rows into a `users` table.
class FlockEngineTest : public ::testing::Test {
 protected:
  static constexpr size_t kNumeric = 8;  // 4 signal + 4 noise
  static constexpr size_t kRows = 4000;

  explicit FlockEngineTest(FlockEngineOptions options = MakeOptions())
      : engine_(options) {
    BuildTableAndModel();
  }

  static FlockEngineOptions MakeOptions() {
    FlockEngineOptions options;
    options.sql.num_threads = 2;
    return options;
  }

  void BuildTableAndModel() {
    auto r = engine_.Execute(
        "CREATE TABLE users (id INT, age DOUBLE, income DOUBLE, "
        "tenure DOUBLE, clicks DOUBLE, n0 DOUBLE, n1 DOUBLE, n2 DOUBLE, "
        "n3 DOUBLE, plan VARCHAR)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    Random rng(2024);
    const char* plans[] = {"basic", "plus", "pro"};
    ml::Matrix raw(kRows, kNumeric + 1);
    std::vector<double> labels(kRows);

    auto table = engine_.database()->GetTable("users");
    ASSERT_TRUE(table.ok());
    storage::RecordBatch batch((*table)->schema());
    for (size_t i = 0; i < kRows; ++i) {
      double age = 20 + rng.NextDouble() * 50;
      double income = 30 + rng.NextDouble() * 120;
      double tenure = rng.NextDouble() * 10;
      double clicks = rng.NextDouble() * 100;
      size_t plan = rng.Uniform(3);
      raw.at(i, 0) = age;
      raw.at(i, 1) = income;
      raw.at(i, 2) = tenure;
      raw.at(i, 3) = clicks;
      for (size_t c = 4; c < kNumeric; ++c) {
        raw.at(i, c) = rng.NextGaussian();
      }
      raw.at(i, kNumeric) = static_cast<double>(plan);
      double z = 0.08 * (age - 45) - 0.02 * (income - 90) -
                 0.4 * tenure + 0.03 * clicks +
                 (plan == 0 ? 1.0 : (plan == 1 ? 0.0 : -1.0)) +
                 rng.NextGaussian() * 0.3;
      labels[i] = z > 0 ? 1.0 : 0.0;
      ASSERT_TRUE(batch
                      .AppendRow({Value::Int(static_cast<int64_t>(i)),
                                  Value::Double(age), Value::Double(income),
                                  Value::Double(tenure),
                                  Value::Double(clicks),
                                  Value::Double(raw.at(i, 4)),
                                  Value::Double(raw.at(i, 5)),
                                  Value::Double(raw.at(i, 6)),
                                  Value::Double(raw.at(i, 7)),
                                  Value::String(plans[plan])})
                      .ok());
    }
    ASSERT_TRUE((*table)->AppendBatch(batch).ok());

    std::vector<ml::FeatureSpec> specs;
    const char* names[] = {"age",    "income", "tenure", "clicks",
                           "n0",     "n1",     "n2",     "n3"};
    for (const char* n : names) {
      specs.push_back(ml::FeatureSpec{n, ml::FeatureKind::kNumeric, {}});
    }
    specs.push_back(ml::FeatureSpec{
        "plan", ml::FeatureKind::kCategorical, {"basic", "plus", "pro"}});

    pipeline_.SetInputs(specs);
    pipeline_.set_task(ml::ModelTask::kBinaryClassification);
    pipeline_.FitFeaturizers(raw, true, true);
    ml::Dataset features;
    features.x = pipeline_.Transform(raw);
    features.y = labels;
    ml::GbtOptions gbt;
    gbt.num_trees = 20;
    gbt.max_depth = 4;
    pipeline_.SetTreeModel(ml::TrainGradientBoosting(features, gbt));
    ASSERT_TRUE(engine_.DeployModel("churn", pipeline_, "tester",
                                    "train-run-1")
                    .ok());
  }

  sql::QueryResult Exec(const std::string& sql) {
    auto result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : sql::QueryResult{};
  }

  static std::string PredictCall() {
    return "PREDICT(churn, age, income, tenure, clicks, n0, n1, n2, n3, "
           "plan)";
  }

  FlockEngine engine_;
  ml::Pipeline pipeline_;
};

TEST_F(FlockEngineTest, PredictInProjection) {
  auto r = Exec("SELECT id, " + PredictCall() +
                " AS score FROM users LIMIT 5");
  ASSERT_EQ(r.batch.num_rows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    double s = r.batch.column(1)->double_at(i);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(FlockEngineTest, PredictMatchesPipelineScoreRow) {
  auto r = Exec("SELECT age, income, tenure, clicks, n0, n1, n2, n3, "
                "plan, " + PredictCall() + " AS score FROM users LIMIT 64");
  for (size_t i = 0; i < r.batch.num_rows(); ++i) {
    std::vector<double> raw(9);
    for (size_t c = 0; c < 8; ++c) raw[c] = r.batch.column(c)->double_at(i);
    raw[8] = pipeline_.EncodeCategorical(8,
                                         r.batch.column(8)->string_at(i));
    EXPECT_NEAR(r.batch.column(9)->double_at(i),
                pipeline_.ScoreRow(raw.data()), 1e-9);
  }
}

TEST_F(FlockEngineTest, OptimizedEqualsUnoptimizedOnThresholdQuery) {
  const std::string query =
      "SELECT id FROM users WHERE income > 50 AND " + PredictCall() +
      " > 0.7 ORDER BY id";
  engine_.set_enable_cross_optimizer(false);
  auto baseline = Exec(query);
  engine_.set_enable_cross_optimizer(true);
  auto optimized = Exec(query);
  ASSERT_EQ(baseline.batch.num_rows(), optimized.batch.num_rows());
  for (size_t i = 0; i < baseline.batch.num_rows(); ++i) {
    EXPECT_EQ(baseline.batch.column(0)->int_at(i),
              optimized.batch.column(0)->int_at(i));
  }
  EXPECT_GT(optimized.batch.num_rows(), 0u);
}

TEST_F(FlockEngineTest, OptimizerEquivalenceAcrossThresholdsAndOps) {
  const char* ops[] = {">", ">=", "<", "<="};
  const double thresholds[] = {0.2, 0.5, 0.8};
  for (const char* op : ops) {
    for (double t : thresholds) {
      std::string query = "SELECT COUNT(*) FROM users WHERE " +
                          PredictCall() + " " + op + " " +
                          std::to_string(t);
      engine_.set_enable_cross_optimizer(false);
      auto baseline = Exec(query);
      engine_.set_enable_cross_optimizer(true);
      auto optimized = Exec(query);
      EXPECT_EQ(baseline.batch.column(0)->int_at(0),
                optimized.batch.column(0)->int_at(0))
          << "op=" << op << " t=" << t;
    }
  }
}

TEST_F(FlockEngineTest, OptimizerKeepsRowsAtTiedAndSaturatedThresholds) {
  // The cross-optimizer rewrites `PREDICT(...) OP literal` into the
  // PREDICT_GT/GE/LT/LE push-up, so its verdicts must match the plain
  // comparison exactly: at thresholds equal to a row's score, and at 0.0
  // and 1.0 on a model whose scores saturate to exactly those values.
  ml::Pipeline saturating;
  saturating.SetInputs(
      {ml::FeatureSpec{"clicks", ml::FeatureKind::kNumeric, {}},
       ml::FeatureSpec{"tenure", ml::FeatureKind::kNumeric, {}}});
  ml::LinearModel lm;
  lm.weights = {20.0, -50.0};
  lm.bias = -750.0;
  lm.logistic = true;
  saturating.SetLinearModel(lm);
  ASSERT_TRUE(engine_.DeployModel("sat", saturating, "tester", "t").ok());

  auto ids = [&](const std::string& query, bool optimize) {
    engine_.set_enable_cross_optimizer(optimize);
    auto r = Exec(query);
    std::vector<int64_t> out;
    for (size_t i = 0; i < r.batch.num_rows(); ++i) {
      out.push_back(r.batch.column(0)->int_at(i));
    }
    return out;
  };
  for (const std::string& call :
       {PredictCall(), std::string("PREDICT(sat, clicks, tenure)")}) {
    engine_.set_enable_cross_optimizer(false);
    auto scored = Exec("SELECT " + call + " FROM users");
    std::vector<double> observed;
    bool saw_zero = false, saw_one = false;
    for (size_t i = 0; i < scored.batch.num_rows(); ++i) {
      double s = scored.batch.column(0)->double_at(i);
      saw_zero |= s == 0.0;
      saw_one |= s == 1.0;
      if (s > 0.0 && s < 1.0) observed.push_back(s);
    }
    ASSERT_FALSE(observed.empty()) << call;
    std::sort(observed.begin(), observed.end());
    std::vector<double> thresholds = {0.0, 1.0};
    for (size_t k = 0; k < 12; ++k) {
      thresholds.push_back(observed[k * (observed.size() - 1) / 11]);
    }
    if (call != PredictCall()) {
      EXPECT_TRUE(saw_zero && saw_one) << "sat must saturate both ways";
    }
    for (const char* op : {">=", ">", "<=", "<"}) {
      for (double t : thresholds) {
        char literal[32];
        std::snprintf(literal, sizeof(literal), "%.17g", t);
        const std::string query = "SELECT id FROM users WHERE " + call +
                                  " " + op + " " + literal + " ORDER BY id";
        EXPECT_EQ(ids(query, false), ids(query, true)) << query;
      }
    }
  }
}

TEST_F(FlockEngineTest, CrossOptimizerReportsRewrites) {
  Exec("SELECT id FROM users WHERE income > 50 AND " + PredictCall() +
       " > 0.7");
  const auto& stats = engine_.cross_optimizer()->stats();
  EXPECT_EQ(stats.filters_split, 1u);
  EXPECT_EQ(stats.predicates_pushed_up, 1u);
  EXPECT_GT(stats.features_pruned, 0u);  // noise features exist
  EXPECT_GT(engine_.models()->num_specializations(), 0u);
}

TEST_F(FlockEngineTest, ExplainShowsSeparatedFilters) {
  auto r = Exec("EXPLAIN SELECT id FROM users WHERE income > 50 AND " +
                PredictCall() + " > 0.7");
  // The ML predicate and the data predicate end up in separate filters,
  // with the PREDICT_GT intrinsic in the upper one.
  EXPECT_NE(r.plan_text.find("PREDICT_GT"), std::string::npos)
      << r.plan_text;
  EXPECT_NE(r.plan_text.find("income"), std::string::npos);
}

TEST_F(FlockEngineTest, ExplainShowsPredictScoreOperator) {
  auto r = Exec("EXPLAIN SELECT id FROM users WHERE income > 50 AND " +
                PredictCall() + " > 0.7");
  // Model scoring is lowered into a first-class physical operator, placed
  // above the pushed-down data filter.
  EXPECT_NE(r.plan_text.find("== Physical Plan =="), std::string::npos)
      << r.plan_text;
  EXPECT_NE(r.plan_text.find("PredictScore"), std::string::npos)
      << r.plan_text;
}

TEST_F(FlockEngineTest, PredictQuerySurfacesScoringMetrics) {
  auto r = Exec("SELECT id FROM users WHERE " + PredictCall() + " > 0.7");
  bool found_predict_score = false;
  for (const auto& m : r.operator_metrics) {
    if (m.name.find("PredictScore") != std::string::npos) {
      found_predict_score = true;
      EXPECT_GT(m.rows_in, 0u) << m.name;
    }
  }
  EXPECT_TRUE(found_predict_score);
}

TEST_F(FlockEngineTest, PruningNarrowsScanToUsedColumns) {
  auto r = Exec("EXPLAIN SELECT " + PredictCall() + " FROM users");
  // Noise columns that the model ignores should vanish from the scan.
  const auto* entry = *engine_.models()->Get("churn");
  std::vector<bool> used = entry->graph.UsedInputColumns();
  bool any_noise_unused = !used[4] || !used[5] || !used[6] || !used[7];
  if (any_noise_unused) {
    // At least one of n0..n3 must not appear in the scan column list.
    size_t missing = 0;
    for (const char* col : {"n0", "n1", "n2", "n3"}) {
      if (r.plan_text.find(col) == std::string::npos) ++missing;
    }
    EXPECT_GT(missing, 0u) << r.plan_text;
  }
}

TEST_F(FlockEngineTest, CreateAndDropModelViaSql) {
  std::string serialized = pipeline_.Serialize();
  // Escape single quotes for SQL (serialized text has none, but be safe).
  auto r = engine_.Execute("CREATE MODEL churn2 FROM '" + serialized + "'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(engine_.models()->Contains("churn2"));
  auto score = Exec(
      "SELECT PREDICT(churn2, age, income, tenure, clicks, n0, n1, n2, "
      "n3, plan) FROM users LIMIT 1");
  EXPECT_EQ(score.batch.num_rows(), 1u);
  ASSERT_TRUE(engine_.Execute("DROP MODEL churn2").ok());
  EXPECT_FALSE(engine_.models()->Contains("churn2"));
}

TEST_F(FlockEngineTest, ModelVersioningOnRedeploy) {
  EXPECT_EQ(engine_.models()->CurrentVersion("churn"), 1u);
  ASSERT_TRUE(engine_.DeployModel("churn", pipeline_, "tester", "retrain")
                  .ok());
  EXPECT_EQ(engine_.models()->CurrentVersion("churn"), 2u);
  auto v1 = engine_.models()->GetVersion("churn", 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->lineage, "train-run-1");
}

TEST_F(FlockEngineTest, AccessControlDeniesAndAudits) {
  ASSERT_TRUE(engine_.SetAccessControl("churn", {"alice"}).ok());
  sql::ExecOptions mallory;
  mallory.principal = "mallory";
  auto denied =
      engine_.Execute("SELECT " + PredictCall() + " FROM users", mallory);
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  sql::ExecOptions alice;
  alice.principal = "alice";
  auto ok = engine_.Execute(
      "SELECT " + PredictCall() + " FROM users LIMIT 1", alice);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  bool saw_denied = false, saw_score = false;
  for (const auto& event : engine_.models()->audit_log()) {
    if (event.kind == AuditEvent::Kind::kDenied &&
        event.principal == "mallory") {
      saw_denied = true;
    }
    if (event.kind == AuditEvent::Kind::kScore &&
        event.principal == "alice") {
      saw_score = true;
    }
  }
  EXPECT_TRUE(saw_denied);
  EXPECT_TRUE(saw_score);
}

/// Four workers over 512-row morsels: a full scan of `users` scores in
/// eight morsels spread across threads.
class FlockAuditTest : public FlockEngineTest {
 protected:
  static constexpr size_t kMorselRows = 512;

  FlockAuditTest() : FlockEngineTest(ParallelOptions()) {}

  static FlockEngineOptions ParallelOptions() {
    FlockEngineOptions options;
    options.sql.num_threads = 4;
    options.sql.morsel_size = kMorselRows;
    return options;
  }

  static sql::ExecOptions As(const std::string& principal) {
    sql::ExecOptions options;
    options.principal = principal;
    return options;
  }

  /// SCORE and DENIED events appended since the log held `from` events
  /// (planning may also append the optimizer's SPECIALIZE events).
  std::vector<AuditEvent> EventsSince(size_t from) {
    const auto& log = engine_.models()->audit_log();
    std::vector<AuditEvent> events;
    for (size_t i = from; i < log.size(); ++i) {
      if (log[i].kind == AuditEvent::Kind::kScore ||
          log[i].kind == AuditEvent::Kind::kDenied) {
        events.push_back(log[i]);
      }
    }
    return events;
  }
};

TEST_F(FlockAuditTest, OneScoreEventPerCallSitePerStatement) {
  static_assert(kRows / kMorselRows >= 3);
  const size_t before = engine_.models()->audit_log().size();
  auto r = engine_.Execute("SELECT id, " + PredictCall() + " FROM users",
                           As("alice"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->batch.num_rows(), kRows);
  const std::vector<AuditEvent> events = EventsSince(before);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, AuditEvent::Kind::kScore);
  EXPECT_EQ(events[0].model, "churn");
  EXPECT_EQ(events[0].principal, "alice");
  EXPECT_EQ(events[0].version, 1u);
  EXPECT_EQ(events[0].rows, kRows);
}

TEST_F(FlockAuditTest, DeniedStatementRecordsOneDeniedEvent) {
  ASSERT_TRUE(engine_.SetAccessControl("churn", {"alice"}).ok());
  const size_t before = engine_.models()->audit_log().size();
  auto r = engine_.Execute("SELECT id, " + PredictCall() + " FROM users",
                           As("mallory"));
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  const std::vector<AuditEvent> events = EventsSince(before);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, AuditEvent::Kind::kDenied);
  EXPECT_EQ(events[0].principal, "mallory");
}

TEST_F(FlockAuditTest, CachedPlanBindsForTheExecutingPrincipal) {
  ASSERT_TRUE(engine_.SetAccessControl("churn", {"alice"}).ok());
  const std::string sql =
      "SELECT id, " + PredictCall() + " FROM users WHERE id < 10";
  auto cached = engine_.Execute(sql, As("alice"));
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  const uint64_t hits = engine_.sql()->plan_cache()->stats().hits;
  const size_t before = engine_.models()->audit_log().size();
  auto denied = engine_.Execute(sql, As("mallory"));
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(engine_.sql()->plan_cache()->stats().hits, hits + 1);
  const std::vector<AuditEvent> events = EventsSince(before);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, AuditEvent::Kind::kDenied);
  EXPECT_EQ(events[0].principal, "mallory");
}

TEST_F(FlockAuditTest, StatementsThatScoreNoRowsNeitherCheckNorAudit) {
  ASSERT_TRUE(engine_.SetAccessControl("churn", {"alice"}).ok());
  const size_t before = engine_.models()->audit_log().size();
  auto empty = engine_.Execute(
      "SELECT id, " + PredictCall() + " FROM users WHERE id < 0",
      As("mallory"));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->batch.num_rows(), 0u);
  auto plan = engine_.Execute(
      "EXPLAIN SELECT id, " + PredictCall() + " FROM users", As("mallory"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(EventsSince(before).empty());
}

TEST_F(FlockEngineTest, UnknownModelErrors) {
  auto r = engine_.Execute("SELECT PREDICT(ghost, age) FROM users");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(FlockEngineTest, WrongArityErrors) {
  auto r = engine_.Execute("SELECT PREDICT(churn, age) FROM users");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FlockEngineTest, DeployTransactionCommitsAtomically) {
  DeployTransaction txn = engine_.BeginDeployment();
  txn.StageRegister("m_a", pipeline_, "tester");
  txn.StageRegister("m_b", pipeline_, "tester");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(engine_.models()->Contains("m_a"));
  EXPECT_TRUE(engine_.models()->Contains("m_b"));
}

TEST_F(FlockEngineTest, DeployTransactionRollsBackOnFailure) {
  uint64_t churn_version = engine_.models()->CurrentVersion("churn");
  DeployTransaction txn = engine_.BeginDeployment();
  txn.StageRegister("churn", pipeline_, "tester", "v2-candidate");
  txn.StageRegister("m_new", pipeline_, "tester");
  txn.StageDrop("does_not_exist");  // forces failure
  Status st = txn.Commit();
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  // Rollback: m_new gone; churn back to a working (prior) pipeline.
  EXPECT_FALSE(engine_.models()->Contains("m_new"));
  auto restored = engine_.models()->Get("churn");
  ASSERT_TRUE(restored.ok());
  EXPECT_GE(engine_.models()->CurrentVersion("churn"), churn_version);
  auto ok = Exec("SELECT " + PredictCall() + " FROM users LIMIT 1");
  EXPECT_EQ(ok.batch.num_rows(), 1u);
}

TEST_F(FlockEngineTest, DeployRollbackRacesConcurrentScorers) {
  // A failing deploy transaction (register churn v2, then a drop that
  // aborts the batch) undoes its staged changes while scorer threads
  // hammer PREDICT. The commit-undo sequence runs under the engine's
  // exclusive lock, so every concurrent query must see a working model —
  // either the prior version or the restored one — and never fail.
  // Run under TSan to verify the cutover path is race-free.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scored{0};
  std::atomic<uint64_t> failed{0};
  std::mutex err_mu;
  std::string first_error;
  std::vector<std::thread> scorers;
  for (int t = 0; t < 2; ++t) {
    scorers.emplace_back([&] {
      // The pause between queries leaves write-lock windows: glibc's
      // rwlock favors readers, so back-to-back shared acquisitions from
      // two threads would starve Commit's exclusive lock indefinitely.
      while (!stop.load(std::memory_order_acquire)) {
        auto r = engine_.Execute("SELECT " + PredictCall() +
                                 " FROM users LIMIT 4");
        if (r.ok()) {
          scored.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(err_mu);
          if (first_error.empty()) first_error = r.status().ToString();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  // Commit only once queries are under way, so the undo path really races
  // them; on a loaded host the scorer threads can start after ten quick
  // commits have already finished.
  while (scored.load(std::memory_order_relaxed) +
             failed.load(std::memory_order_relaxed) <
         2) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 10; ++i) {
    DeployTransaction txn = engine_.BeginDeployment();
    txn.StageRegister("churn", pipeline_, "tester", "race-candidate");
    txn.StageDrop("does_not_exist");  // forces failure + undo-restore
    EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : scorers) t.join();
  EXPECT_EQ(failed.load(), 0u) << first_error;
  EXPECT_GT(scored.load(), 0u);
  // The undo left churn serving its prior pipeline.
  auto ok = Exec("SELECT " + PredictCall() + " FROM users LIMIT 1");
  EXPECT_EQ(ok.batch.num_rows(), 1u);
}

TEST_F(FlockEngineTest, NullFeaturesGoThroughImputer) {
  Exec("INSERT INTO users (id, age, plan) VALUES (99999, NULL, 'pro')");
  auto r = Exec("SELECT " + PredictCall() +
                " FROM users WHERE id = 99999");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  double s = r.batch.column(0)->double_at(0);
  EXPECT_FALSE(std::isnan(s));
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

// --- scoring unit checks ---------------------------------------------------

/// A logistic two-input boosted ensemble of five stumps whose leaves are
/// scaled by `leaf_scale` (large scales saturate scores to exactly 1.0).
ml::Pipeline ToyBoostedPipeline(double leaf_scale) {
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}},
                      ml::FeatureSpec{"y", ml::FeatureKind::kNumeric, {}}});
  ml::TreeEnsembleModel model;
  model.logistic = true;
  for (int t = 0; t < 5; ++t) {
    ml::Tree tree;
    ml::TreeNode root;
    root.feature = t % 2;
    root.threshold = 0.3 * t - 0.5;
    root.left = 1;
    root.right = 2;
    ml::TreeNode l, r;
    l.feature = -1;
    l.value = (-0.4 + 0.1 * t) * leaf_scale;
    r.feature = -1;
    r.value = (0.5 - 0.05 * t) * leaf_scale;
    tree.nodes = {root, l, r};
    model.trees.push_back(tree);
  }
  pipeline.SetTreeModel(model);
  return pipeline;
}

TEST(ScoringTest, ThresholdBatchMatchesFullScoring) {
  // The hand-rolled boosted ensemble, the same ensemble with leaves large
  // enough to saturate to exactly 1.0, and a logistic regression whose
  // scores saturate to exactly 0.0 and 1.0.
  ml::Pipeline logistic;
  logistic.SetInputs({ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}},
                      ml::FeatureSpec{"y", ml::FeatureKind::kNumeric, {}}});
  ml::LinearModel lm;
  lm.weights = {400.0, -300.0};
  lm.bias = 0.25;
  lm.logistic = true;
  logistic.SetLinearModel(lm);

  Random rng(5);
  ml::Matrix raw(500, 2);
  for (size_t i = 0; i < 500; ++i) {
    raw.at(i, 0) = rng.NextGaussian();
    raw.at(i, 1) = rng.NextGaussian();
  }
  for (const ml::Pipeline& pipeline :
       {ToyBoostedPipeline(1.0), ToyBoostedPipeline(200.0), logistic}) {
    ModelEntry entry;
    entry.name = "toy";
    entry.pipeline = pipeline;
    auto graph = pipeline.Compile();
    ASSERT_TRUE(graph.ok());
    entry.graph = std::move(graph).value();
    ASSERT_TRUE(ModelRegistry::AnalyzeEntry(&entry).ok());

    auto scores = ScoreBatch(entry, raw);
    ASSERT_TRUE(scores.ok());
    // Every observed score is a tied threshold for at least one row.
    std::vector<double> thresholds = *scores;
    for (double t : {0.0, 1.0, -0.5, 1.5, 0.3, 0.5, 0.62}) {
      thresholds.push_back(t);
    }
    size_t wrong = 0;
    for (double t : thresholds) {
      for (ThresholdOp op : {ThresholdOp::kGt, ThresholdOp::kGe,
                             ThresholdOp::kLt, ThresholdOp::kLe}) {
        auto verdicts = ScoreThresholdBatch(entry, raw, t, op);
        ASSERT_TRUE(verdicts.ok());
        for (size_t i = 0; i < 500; ++i) {
          double s = (*scores)[i];
          bool expected = op == ThresholdOp::kGt   ? s > t
                          : op == ThresholdOp::kGe ? s >= t
                          : op == ThresholdOp::kLt ? s < t
                                                   : s <= t;
          if ((*verdicts)[i] != expected && wrong++ == 0) {
            ADD_FAILURE() << std::setprecision(17) << "row " << i
                          << " score " << s << " t=" << t << " op "
                          << static_cast<int>(op);
          }
        }
      }
    }
    EXPECT_EQ(wrong, 0u);
  }
}

TEST(ScoringTest, DegenerateThresholdsResolveStatically) {
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}}});
  ml::LinearModel lm;
  lm.weights = {1.0};
  lm.bias = 0.0;
  lm.logistic = true;
  pipeline.SetLinearModel(lm);
  ModelEntry entry;
  entry.pipeline = pipeline;
  entry.graph = *pipeline.Compile();
  ASSERT_TRUE(ModelRegistry::AnalyzeEntry(&entry).ok());
  ml::Matrix raw(3, 1, 0.0);
  auto all_true = ScoreThresholdBatch(entry, raw, -0.5, ThresholdOp::kGt);
  ASSERT_TRUE(all_true.ok());
  EXPECT_TRUE((*all_true)[0]);
  auto all_false = ScoreThresholdBatch(entry, raw, 1.5, ThresholdOp::kGt);
  ASSERT_TRUE(all_false.ok());
  EXPECT_FALSE((*all_false)[0]);
}

}  // namespace
}  // namespace flock::flock
