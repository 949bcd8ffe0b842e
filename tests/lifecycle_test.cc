// Tests for the model lifecycle subsystem (src/lifecycle/): the rollout
// state machine (staged → shadow → canary → live, rolled_back on
// failure), PREDICT-call rewriting, shadow scoring and divergence
// accounting, deterministic canary routing, guard-rule breaches
// triggering automatic rollback with zero failed requests, the drift
// monitor's sketches, WAL round-trip of rollout records, crash recovery
// of an interrupted rollout, and replication of rollout state to a read
// replica.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "flock/flock_engine.h"
#include "lifecycle/monitor.h"
#include "lifecycle/rollout.h"
#include "ml/tree.h"
#include "repl/applier.h"
#include "repl/publisher.h"
#include "wal/wal_record.h"

namespace flock::lifecycle {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/flock_lifecycle_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

flock::FlockEngineOptions SerialEngineOptions() {
  flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  return options;
}

/// churn GBDT over the 5-input users schema; `invert_labels` trains a
/// deliberately divergent model for guard-breach tests.
ml::Pipeline TrainChurnPipeline(bool invert_labels) {
  const size_t rows = 200;
  Random rng(13);
  ml::Matrix raw(rows, 5);
  std::vector<double> labels(rows);
  for (size_t i = 0; i < rows; ++i) {
    double age = 20 + rng.NextDouble() * 50;
    double income = 30 + rng.NextDouble() * 120;
    raw.at(i, 0) = age;
    raw.at(i, 1) = income;
    raw.at(i, 2) = rng.NextDouble() * 10;
    raw.at(i, 3) = rng.NextDouble() * 100;
    raw.at(i, 4) = static_cast<double>(rng.Uniform(3));
    double z = 0.08 * (age - 45) - 0.02 * (income - 90) -
               0.4 * raw.at(i, 2) + 0.03 * raw.at(i, 3);
    bool churned = z > 0;
    labels[i] = (churned != invert_labels) ? 1.0 : 0.0;
  }
  ml::Pipeline pipeline;
  std::vector<ml::FeatureSpec> specs;
  for (const char* n : {"age", "income", "tenure", "clicks"}) {
    specs.push_back(ml::FeatureSpec{n, ml::FeatureKind::kNumeric, {}});
  }
  specs.push_back(ml::FeatureSpec{"plan", ml::FeatureKind::kCategorical,
                                  {"basic", "plus", "pro"}});
  pipeline.SetInputs(specs);
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(raw, true, true);
  ml::Dataset features;
  features.x = pipeline.Transform(raw);
  features.y = labels;
  ml::GbtOptions gbt;
  gbt.num_trees = 6;
  gbt.max_depth = 3;
  pipeline.SetTreeModel(ml::TrainGradientBoosting(features, gbt));
  return pipeline;
}

void BuildUsersAndChurn(flock::FlockEngine* engine, size_t rows = 200) {
  ASSERT_TRUE(engine
                  ->Execute("CREATE TABLE users (id INT, age DOUBLE, "
                            "income DOUBLE, tenure DOUBLE, "
                            "clicks DOUBLE, plan VARCHAR)")
                  .ok());
  Random rng(7);
  const char* plans[] = {"basic", "plus", "pro"};
  std::string insert = "INSERT INTO users VALUES ";
  for (size_t i = 0; i < rows; ++i) {
    if (i > 0) insert += ", ";
    char row[160];
    std::snprintf(row, sizeof(row), "(%zu, %.3f, %.3f, %.3f, %.3f, '%s')",
                  i, 20 + rng.NextDouble() * 50, 30 + rng.NextDouble() * 120,
                  rng.NextDouble() * 10, rng.NextDouble() * 100,
                  plans[rng.Uniform(3)]);
    insert += row;
  }
  ASSERT_TRUE(engine->Execute(insert).ok());
  ASSERT_TRUE(engine
                  ->DeployModel("churn", TrainChurnPipeline(false),
                                "lifecycle_test", "baseline")
                  .ok());
}

const char* kScoringSql =
    "SELECT id, PREDICT(churn, age, income, tenure, clicks, plan) "
    "FROM users WHERE id < 100";

RolloutConfig GuardlessConfig(uint32_t permille = 500) {
  RolloutConfig config;
  config.canary_permille = permille;
  config.guard.max_divergence_rate = 0.0;
  config.guard.max_latency_regression = 0.0;
  config.guard.max_drift_score = 0.0;
  config.guard.min_observations = 1;
  return config;
}

// ---------------------------------------------------------------------
// PREDICT-call rewriting.
// ---------------------------------------------------------------------

TEST(RewritePredictCallsTest, RewritesAllCallFormsCaseInsensitively) {
  const std::string repl = "'churn#candidate'";
  EXPECT_EQ(RewritePredictCalls("SELECT PREDICT(churn, age) FROM users",
                                "churn", repl),
            "SELECT PREDICT('churn#candidate', age) FROM users");
  EXPECT_EQ(RewritePredictCalls("select predict( CHURN , age) from users",
                                "churn", repl),
            "select predict( 'churn#candidate' , age) from users");
  EXPECT_EQ(RewritePredictCalls("SELECT PREDICT_GT(churn, age, 0.5) "
                                "FROM users WHERE PREDICT_LE(churn, age, "
                                "0.9)",
                                "churn", repl),
            "SELECT PREDICT_GT('churn#candidate', age, 0.5) FROM users "
            "WHERE PREDICT_LE('churn#candidate', age, 0.9)");
  EXPECT_EQ(
      RewritePredictCalls("SELECT PREDICT('churn', age) FROM users",
                          "churn", repl),
      "SELECT PREDICT('churn#candidate', age) FROM users");
}

TEST(RewritePredictCallsTest, LeavesUnrelatedSqlUntouched) {
  for (const char* sql : {
           "SELECT * FROM users",
           "SELECT PREDICT(other_model, age) FROM users",
           "SELECT name FROM t WHERE name = 'predict(churn'",
           "SELECT predictions FROM churn_table",
           "INSERT INTO users VALUES (1, 2.0)",
       }) {
    EXPECT_EQ(RewritePredictCalls(sql, "churn", "'x'"), sql) << sql;
  }
}

TEST(RewritePredictCallsTest, ReadsCommentsAndQuotedNamesAsTokens) {
  const std::string repl = "'churn#candidate'";
  // The apostrophe in the comment opens no string: both calls move.
  EXPECT_EQ(RewritePredictCalls("SELECT PREDICT(churn, a) FROM t -- don't\n"
                                "WHERE PREDICT(churn, b) > 0.5",
                                "churn", repl),
            "SELECT PREDICT('churn#candidate', a) FROM t -- don't\n"
            "WHERE PREDICT('churn#candidate', b) > 0.5");
  // A quoted identifier names the model as the engine reads it.
  EXPECT_EQ(RewritePredictCalls("SELECT PREDICT(\"churn\", a) FROM t",
                                "churn", repl),
            "SELECT PREDICT('churn#candidate', a) FROM t");
  // Calls inside comments and string literals are text, not calls.
  for (const char* sql : {"SELECT a FROM t -- PREDICT(churn, a)",
                          "SELECT 'it''s PREDICT(churn, a)' FROM t",
                          "SELECT PREDICT(churn, a FROM 'unterminated"}) {
    EXPECT_EQ(RewritePredictCalls(sql, "churn", repl), sql) << sql;
  }
}

// ---------------------------------------------------------------------
// ModelMonitor.
// ---------------------------------------------------------------------

TEST(ModelMonitorTest, SketchesTrackDistributionAndDrift) {
  ModelMonitor monitor;
  flock::ModelEntry entry;
  entry.name = "m";
  entry.training_profile.mean = {10.0, 0.0};
  entry.training_profile.std = {2.0, 1.0};

  ml::Matrix raw(100, 2);
  for (size_t i = 0; i < 100; ++i) {
    raw.at(i, 0) = 10.0 + (i % 2 == 0 ? 1.0 : -1.0);  // mean 10, no drift
    raw.at(i, 1) = 5.0;  // 5 std-devs off the training mean
  }
  monitor.ObserveFeatures(entry, raw, 100);

  std::vector<FeatureSketchSnapshot> sketches = monitor.FeatureSketches("m");
  ASSERT_EQ(sketches.size(), 2u);
  EXPECT_EQ(sketches[0].count, 100u);
  EXPECT_DOUBLE_EQ(sketches[0].min, 9.0);
  EXPECT_DOUBLE_EQ(sketches[0].max, 11.0);
  EXPECT_NEAR(sketches[0].mean, 10.0, 1e-9);
  EXPECT_NEAR(sketches[0].drift, 0.0, 1e-9);
  EXPECT_NEAR(sketches[1].mean, 5.0, 1e-9);
  EXPECT_NEAR(sketches[1].drift, 5.0, 1e-9);
  EXPECT_NEAR(monitor.DriftScore("m"), 5.0, 1e-9);
  EXPECT_GE(sketches[0].p50, 9.0);
  EXPECT_LE(sketches[0].p50, 11.0);

  monitor.Forget("m");
  EXPECT_TRUE(monitor.FeatureSketches("m").empty());
  EXPECT_DOUBLE_EQ(monitor.DriftScore("m"), 0.0);
}

TEST(ModelMonitorTest, SpecializationsFoldIntoBaseModel) {
  ModelMonitor monitor;
  flock::ModelEntry spec;
  spec.name = "churn#candidate";
  spec.base_name = "churn";
  ml::Matrix raw(10, 1);
  for (size_t i = 0; i < 10; ++i) raw.at(i, 0) = 1.0;
  monitor.ObserveFeatures(spec, raw, 10);
  ASSERT_EQ(monitor.FeatureSketches("churn").size(), 1u);
  EXPECT_EQ(monitor.FeatureSketches("churn")[0].count, 10u);
}

TEST(ModelMonitorTest, ScoreHistogramBucketsQueryResults) {
  flock::FlockEngine engine(SerialEngineOptions());
  ASSERT_TRUE(engine.Execute("CREATE TABLE scores (s DOUBLE)").ok());
  ASSERT_TRUE(
      engine.Execute("INSERT INTO scores VALUES (0.02), (0.98), (0.51)")
          .ok());
  auto result = engine.Execute("SELECT s FROM scores");
  ASSERT_TRUE(result.ok());

  ModelMonitor monitor;
  monitor.RecordScores("churn", "candidate", result->batch);
  ScoreHistogramSnapshot hist = monitor.ScoreHistogram("churn", "candidate");
  EXPECT_EQ(hist.count, 3u);
  EXPECT_NEAR(hist.mean, (0.02 + 0.98 + 0.51) / 3.0, 1e-9);
  EXPECT_EQ(hist.buckets.front(), 1u);  // 0.02
  EXPECT_EQ(hist.buckets.back(), 1u);   // 0.98
  EXPECT_EQ(monitor.ScoreHistogram("churn", "live").count, 0u);
  EXPECT_NE(monitor.StatusJson("churn").find("\"candidate\""),
            std::string::npos);
}

// ---------------------------------------------------------------------
// WAL record round-trip.
// ---------------------------------------------------------------------

TEST(WalRolloutRecordTest, PayloadRoundTrips) {
  wal::RolloutSnapshot snapshot;
  snapshot.model = "churn";
  snapshot.state = 2;
  snapshot.canary_permille = 250;
  snapshot.candidate_pipeline_text = "pipeline-bytes";
  snapshot.initiated_by = "ops";
  snapshot.live_version = 7;
  snapshot.max_divergence_rate = 0.05;
  snapshot.max_latency_regression = 2.5;
  snapshot.max_drift_score = 6.0;
  snapshot.min_observations = 123;

  wal::WalRecord record = wal::WalRecord::RolloutChange(snapshot);
  auto decoded = wal::DecodeRecordBody(wal::EncodeRecordBody(record));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, wal::WalRecordType::kRolloutState);
  EXPECT_EQ(decoded->rollout.model, "churn");
  EXPECT_EQ(decoded->rollout.state, 2);
  EXPECT_EQ(decoded->rollout.canary_permille, 250u);
  EXPECT_EQ(decoded->rollout.candidate_pipeline_text, "pipeline-bytes");
  EXPECT_EQ(decoded->rollout.initiated_by, "ops");
  EXPECT_EQ(decoded->rollout.live_version, 7u);
  EXPECT_DOUBLE_EQ(decoded->rollout.max_divergence_rate, 0.05);
  EXPECT_DOUBLE_EQ(decoded->rollout.max_latency_regression, 2.5);
  EXPECT_DOUBLE_EQ(decoded->rollout.max_drift_score, 6.0);
  EXPECT_EQ(decoded->rollout.min_observations, 123u);
}

// ---------------------------------------------------------------------
// Rollout state machine.
// ---------------------------------------------------------------------

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<flock::FlockEngine>(SerialEngineOptions());
    BuildUsersAndChurn(engine_.get());
    manager_ = std::make_unique<RolloutManager>(engine_.get());
    ASSERT_TRUE(manager_->Resume().ok());
    execute_ = [this](const std::string& sql) {
      return engine_->Execute(sql);
    };
  }

  RolloutStage StageOf(const std::string& model) {
    auto view = manager_->Describe(model);
    EXPECT_TRUE(view.ok());
    return view.ok() ? view->stage : RolloutStage::kRolledBack;
  }

  bool CandidateInstalled() {
    return engine_->models()->HasSpecialization(
        flock::RolloutCandidateKey("churn"));
  }

  std::unique_ptr<flock::FlockEngine> engine_;
  std::unique_ptr<RolloutManager> manager_;
  std::function<StatusOr<sql::QueryResult>(const std::string&)> execute_;
};

TEST_F(LifecycleTest, StateMachineWalksStagedShadowCanaryLive) {
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(false),
                                      GuardlessConfig(), "ops")
                  .ok());
  EXPECT_EQ(StageOf("churn"), RolloutStage::kStaged);
  EXPECT_TRUE(CandidateInstalled());
  EXPECT_EQ(engine_->models()->CurrentVersion("churn"), 1u);

  ASSERT_TRUE(manager_->Promote("churn").ok());
  EXPECT_EQ(StageOf("churn"), RolloutStage::kShadow);
  ASSERT_TRUE(manager_->Promote("churn").ok());
  EXPECT_EQ(StageOf("churn"), RolloutStage::kCanary);
  EXPECT_TRUE(CandidateInstalled());

  // Final promotion registers the candidate as the new live version and
  // retires the specialization in the same deploy transaction.
  ASSERT_TRUE(manager_->Promote("churn").ok());
  EXPECT_EQ(StageOf("churn"), RolloutStage::kLive);
  EXPECT_FALSE(CandidateInstalled());
  EXPECT_EQ(engine_->models()->CurrentVersion("churn"), 2u);
  EXPECT_EQ(manager_->promotions(), 1u);

  Status again = manager_->Promote("churn");
  EXPECT_FALSE(again.ok());

  // A finished rollout frees the model for the next one.
  EXPECT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(true),
                                      GuardlessConfig(), "ops")
                  .ok());
  EXPECT_EQ(StageOf("churn"), RolloutStage::kStaged);
}

TEST_F(LifecycleTest, BeginRejectsUnknownModelAndActiveConflicts) {
  RolloutConfig config = GuardlessConfig();
  EXPECT_FALSE(
      manager_->BeginWithPipeline("ghost", TrainChurnPipeline(false),
                                  config, "ops")
          .ok());
  config.canary_permille = 1001;
  EXPECT_FALSE(
      manager_->BeginWithPipeline("churn", TrainChurnPipeline(false),
                                  config, "ops")
          .ok());
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(false),
                                      GuardlessConfig(), "ops")
                  .ok());
  EXPECT_FALSE(manager_
                   ->BeginWithPipeline("churn", TrainChurnPipeline(true),
                                       GuardlessConfig(), "ops")
                   .ok());
}

TEST_F(LifecycleTest, AbortRetiresCandidateWithoutTouchingLiveVersion) {
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(true),
                                      GuardlessConfig(), "ops")
                  .ok());
  ASSERT_TRUE(manager_->Promote("churn").ok());  // shadow
  ASSERT_TRUE(manager_->Abort("churn").ok());
  EXPECT_EQ(StageOf("churn"), RolloutStage::kRolledBack);
  EXPECT_FALSE(CandidateInstalled());
  EXPECT_EQ(engine_->models()->CurrentVersion("churn"), 1u);
  EXPECT_FALSE(manager_->Abort("churn").ok());
  EXPECT_FALSE(manager_->Promote("churn").ok());
}

TEST_F(LifecycleTest, ShadowScoresBothModelsAndReturnsLiveResult) {
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(false),
                                      GuardlessConfig(), "ops")
                  .ok());
  ASSERT_TRUE(manager_->Promote("churn").ok());  // shadow

  auto direct = engine_->Execute(kScoringSql);
  ASSERT_TRUE(direct.ok());
  auto shadowed = manager_->Intercept("", kScoringSql, execute_);
  ASSERT_TRUE(shadowed.ok());
  EXPECT_EQ(shadowed->batch.num_rows(), direct->batch.num_rows());

  auto view = manager_->Describe("churn");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->shadow_scored, 1u);
  EXPECT_EQ(view->compared_rows, 100u);
  // Identical pipelines: no divergence, both histograms populated.
  EXPECT_EQ(view->diverged_rows, 0u);
  EXPECT_GT(manager_->monitor()->ScoreHistogram("churn", "live").count, 0u);
  EXPECT_GT(manager_->monitor()->ScoreHistogram("churn", "candidate").count,
            0u);
  // The PREDICT kernels fed the drift monitor through the observer hook.
  EXPECT_FALSE(manager_->monitor()->FeatureSketches("churn").empty());

  // Non-scoring statements pass straight through.
  auto plain = manager_->Intercept("", "SELECT COUNT(*) FROM users",
                                   execute_);
  ASSERT_TRUE(plain.ok());
}

TEST_F(LifecycleTest, CandidateScoresThroughCompiledKernel) {
  // The dense scoring kernel is compiled in ModelRegistry::AnalyzeEntry,
  // so both the live model and a staged rollout candidate carry one:
  // shadow/canary comparisons measure model change, never a scorer-path
  // change between interpreted and compiled execution.
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(false),
                                      GuardlessConfig(), "ops")
                  .ok());
  ASSERT_TRUE(manager_->Promote("churn").ok());  // shadow

  auto live = engine_->models()->Get("churn");
  ASSERT_TRUE(live.ok());
  ASSERT_NE((*live)->kernel, nullptr);
  EXPECT_TRUE((*live)->kernel->ok()) << (*live)->kernel->status().ToString();

  auto candidate = engine_->models()->GetSpecialization(
      flock::RolloutCandidateKey("churn"));
  ASSERT_TRUE(candidate.ok());
  ASSERT_NE((*candidate)->kernel, nullptr);
  EXPECT_TRUE((*candidate)->kernel->ok())
      << (*candidate)->kernel->status().ToString();
  // Identical pipelines compile to kernels over the same slot layout.
  EXPECT_EQ((*candidate)->kernel->input_cols(), (*live)->kernel->input_cols());
}

TEST_F(LifecycleTest, ShadowDivergenceAutoRollsBackWithZeroFailedRequests) {
  RolloutConfig config;
  config.canary_permille = 200;
  config.guard.max_divergence_rate = 0.2;
  config.guard.max_latency_regression = 0.0;  // keep the test deterministic
  config.guard.max_drift_score = 0.0;
  config.guard.min_observations = 50;
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(true),
                                      config, "ops")
                  .ok());
  ASSERT_TRUE(manager_->Promote("churn").ok());  // shadow

  // Hammer the serving path from several threads while the guard breach
  // fires and the automatic rollback swaps the model out: every request
  // must still succeed.
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &failed] {
      for (int i = 0; i < 10; ++i) {
        auto result = manager_->Intercept("", kScoringSql, execute_);
        if (!result.ok()) failed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failed.load(), 0u);
  auto view = manager_->Describe("churn");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->stage, RolloutStage::kRolledBack);
  EXPECT_NE(view->guard_breach.find("divergence"), std::string::npos);
  EXPECT_GT(view->diverged_rows, 0u);
  EXPECT_EQ(manager_->auto_rollbacks(), 1u);
  EXPECT_FALSE(CandidateInstalled());
  // The rollback re-registered the pinned live pipeline as a new version
  // through the deploy transaction.
  EXPECT_EQ(engine_->models()->CurrentVersion("churn"), 2u);
  // The durable store agrees.
  auto states = engine_->RolloutStates();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].state, 4);
}

TEST_F(LifecycleTest, CanaryRoutesDeterministicFractionByPrincipal) {
  const uint32_t permille = 400;
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(false),
                                      GuardlessConfig(permille), "ops")
                  .ok());
  ASSERT_TRUE(manager_->Promote("churn").ok());  // shadow
  ASSERT_TRUE(manager_->Promote("churn").ok());  // canary

  size_t routed = 0;
  const size_t principals = 200;
  for (size_t i = 0; i < principals; ++i) {
    const std::string principal = "user" + std::to_string(i);
    bool saw_candidate = false;
    auto probe = [&](const std::string& sql) {
      if (sql.find("#candidate") != std::string::npos) saw_candidate = true;
      return engine_->Execute(sql);
    };
    auto result = manager_->Intercept(principal, kScoringSql, probe);
    ASSERT_TRUE(result.ok());
    const bool expected = HashString(principal) % 1000 < permille;
    EXPECT_EQ(saw_candidate, expected) << principal;
    if (saw_candidate) ++routed;

    // The same principal routes the same way every time.
    bool again = false;
    auto reprobe = [&](const std::string& sql) {
      if (sql.find("#candidate") != std::string::npos) again = true;
      return engine_->Execute(sql);
    };
    ASSERT_TRUE(manager_->Intercept(principal, kScoringSql, reprobe).ok());
    EXPECT_EQ(again, saw_candidate);
  }
  // FNV-1a over distinct principals lands near the configured fraction.
  const double fraction = static_cast<double>(routed) / principals;
  EXPECT_GT(fraction, 0.25);
  EXPECT_LT(fraction, 0.55);

  auto view = manager_->Describe("churn");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->canary_routed, 2 * routed);
}

TEST_F(LifecycleTest, CanaryFallsBackToLiveOnCandidateError) {
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(false),
                                      GuardlessConfig(1000), "ops")
                  .ok());
  ASSERT_TRUE(manager_->Promote("churn").ok());  // shadow
  ASSERT_TRUE(manager_->Promote("churn").ok());  // canary

  auto failing = [this](const std::string& sql)
      -> StatusOr<sql::QueryResult> {
    if (sql.find("#candidate") != std::string::npos) {
      return Status::Internal("candidate scoring exploded");
    }
    return engine_->Execute(sql);
  };
  auto result = manager_->Intercept("anyone", kScoringSql, failing);
  ASSERT_TRUE(result.ok());  // the request survives the candidate failure
  EXPECT_EQ(result->batch.num_rows(), 100u);

  auto view = manager_->Describe("churn");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->canary_routed, 1u);
  EXPECT_EQ(view->canary_fallbacks, 1u);
  EXPECT_EQ(view->candidate_errors, 1u);
}

TEST_F(LifecycleTest, MetricsExposition) {
  obs::MetricsRegistry registry;
  manager_->RegisterMetrics(&registry);
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(false),
                                      GuardlessConfig(), "ops")
                  .ok());
  ASSERT_TRUE(manager_->Promote("churn").ok());  // shadow
  ASSERT_TRUE(manager_->Intercept("", kScoringSql, execute_).ok());
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"lifecycle\""), std::string::npos);
  EXPECT_NE(json.find("\"active_rollouts\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"shadow_scored\": 1"), std::string::npos);
  EXPECT_NE(json.find("live_latency_ms"), std::string::npos);
}

// ---------------------------------------------------------------------
// Durability and replication.
// ---------------------------------------------------------------------

TEST_F(LifecycleTest, StatusJsonEscapesStringsAndWritesNonFiniteAsNull) {
  // A model name and an initiator with JSON metacharacters, next to a
  // rollout whose drift sketch saw Inf: the evaluator does not check
  // overflow, so `age * 1e308` reaches the monitor as +Inf, and the
  // sketch's running mean becomes NaN.
  const std::string odd = "we\"ird\\";
  ASSERT_TRUE(engine_
                  ->DeployModel(odd, TrainChurnPipeline(false),
                                "lifecycle_test", "baseline")
                  .ok());
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline(odd, TrainChurnPipeline(false),
                                      GuardlessConfig(), "o\"ps\n")
                  .ok());
  ASSERT_TRUE(manager_
                  ->BeginWithPipeline("churn", TrainChurnPipeline(true),
                                      GuardlessConfig(), "ops")
                  .ok());
  ASSERT_TRUE(engine_
                  ->Execute("SELECT PREDICT(churn, age * 1e308, income, "
                            "tenure, clicks, plan) FROM users")
                  .ok());
  std::vector<FeatureSketchSnapshot> sketches =
      manager_->monitor()->FeatureSketches("churn");
  ASSERT_FALSE(sketches.empty());
  ASSERT_TRUE(std::isinf(sketches[0].max));
  ASSERT_TRUE(std::isnan(sketches[0].mean));  // Inf - Inf while averaging

  const std::string json = manager_->StatusJson();
  EXPECT_NE(json.find("\"model\":\"we\\\"ird\\\\\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"initiated_by\":\"o\\\"ps\\n\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"max\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean\":null"), std::string::npos) << json;
  for (const char* bare : {":inf", ":-inf", ":nan", ":-nan"}) {
    EXPECT_EQ(json.find(bare), std::string::npos) << bare << " in " << json;
  }
}

TEST(LifecycleDurabilityTest, CrashRecoveryRestoresCanaryRollout) {
  std::string dir = MakeTempDir();
  RolloutConfig config = GuardlessConfig(250);
  config.guard.min_observations = 77;
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    BuildUsersAndChurn(&engine);
    RolloutManager manager(&engine);
    ASSERT_TRUE(manager.Resume().ok());
    ASSERT_TRUE(manager
                    .BeginWithPipeline("churn", TrainChurnPipeline(true),
                                       config, "ops")
                    .ok());
    ASSERT_TRUE(manager.Promote("churn").ok());  // shadow
    ASSERT_TRUE(manager.Promote("churn").ok());  // canary
    // "Crash": no checkpoint, the rollout exists only as WAL records.
  }
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    RolloutManager manager(&engine);
    ASSERT_TRUE(manager.Resume().ok());
    auto view = manager.Describe("churn");
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->stage, RolloutStage::kCanary);
    EXPECT_EQ(view->canary_permille, 250u);
    EXPECT_TRUE(engine.models()->HasSpecialization(
        flock::RolloutCandidateKey("churn")));
    // The recovered rollout serves canary traffic immediately.
    bool saw_candidate = false;
    auto probe = [&](const std::string& sql) {
      if (sql.find("#candidate") != std::string::npos) saw_candidate = true;
      return engine.Execute(sql);
    };
    std::string routed_principal;
    for (int i = 0; i < 64 && routed_principal.empty(); ++i) {
      std::string p = "user" + std::to_string(i);
      if (HashString(p) % 1000 < 250) routed_principal = p;
    }
    ASSERT_FALSE(routed_principal.empty());
    ASSERT_TRUE(manager.Intercept(routed_principal, kScoringSql, probe)
                    .ok());
    EXPECT_TRUE(saw_candidate);
    // Fold the WAL into a snapshot for the next reopen.
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  {
    // Third open restores the rollout from the v3 snapshot section.
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    RolloutManager manager(&engine);
    ASSERT_TRUE(manager.Resume().ok());
    auto view = manager.Describe("churn");
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->stage, RolloutStage::kCanary);
    auto states = engine.RolloutStates();
    ASSERT_EQ(states.size(), 1u);
    EXPECT_EQ(states[0].min_observations, 77u);
  }
}

TEST(LifecycleReplicationTest, RolloutStateStreamsToReadReplica) {
  std::string dir = MakeTempDir();
  flock::FlockEngine primary(SerialEngineOptions());
  ASSERT_TRUE(primary.Open(dir).ok());
  BuildUsersAndChurn(&primary);
  RolloutManager manager(&primary);
  ASSERT_TRUE(manager.Resume().ok());
  ASSERT_TRUE(manager
                  .BeginWithPipeline("churn", TrainChurnPipeline(true),
                                     GuardlessConfig(300), "ops")
                  .ok());
  ASSERT_TRUE(manager.Promote("churn").ok());  // shadow
  ASSERT_TRUE(manager.Promote("churn").ok());  // canary

  flock::FlockEngine replica(SerialEngineOptions());
  ASSERT_TRUE(replica.OpenAsReplica().ok());
  repl::ReplicationPublisher publisher(dir);
  repl::ReplicaApplier applier(&replica, &publisher);
  ASSERT_TRUE(applier.CatchUp().ok());

  auto states = replica.RolloutStates();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].state, 2);  // canary
  EXPECT_EQ(states[0].canary_permille, 300u);
  EXPECT_TRUE(replica.models()->HasSpecialization(
      flock::RolloutCandidateKey("churn")));
  // Replicas refuse local transitions: rollouts are managed on the
  // primary and stream over.
  wal::RolloutSnapshot manual = states[0];
  manual.state = 4;
  EXPECT_FALSE(replica.UpdateRolloutState(manual).ok());

  // A terminal transition on the primary streams too and retires the
  // replica's candidate specialization.
  ASSERT_TRUE(manager.Abort("churn").ok());
  ASSERT_TRUE(applier.CatchUp().ok());
  states = replica.RolloutStates();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].state, 4);
  EXPECT_FALSE(replica.models()->HasSpecialization(
      flock::RolloutCandidateKey("churn")));
}

}  // namespace
}  // namespace flock::lifecycle
