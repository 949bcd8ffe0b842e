// Differential + crash-matrix tests for replication.
//
// Differential layer: load TPC-H and a deployed churn model into a
// durable primary, stream a replica from its data directory, and assert
// every response — all 22 TPC-H templates plus the PREDICT corpus — is
// byte-identical between the primary's serving path and the replica's.
//
// Crash matrix: the replication extension of the recovery crash matrix.
// A re-exec'd child primary dies mid-WAL-append (torn tail on disk); the
// parent streams a replica from the dead primary's files, promotes it,
// and asserts no committed write was lost and nothing uncommitted
// leaked. A second case kills a replica mid-apply (replicas are
// memory-only, so destroying the engine IS the crash) and re-bootstraps
// a fresh one.
//
// This file has its own main (linked against gtest, not gtest_main) so
// the re-exec'd crash child can branch into the workload before gtest
// runs.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "flock/flock_engine.h"
#include "ml/tree.h"
#include "repl/applier.h"
#include "repl/coordinator.h"
#include "repl/publisher.h"
#include "serve/server.h"
#include "wal/fault_injector.h"
#include "workload/tpch.h"

namespace flock::repl {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/flock_repl_diff_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

flock::FlockEngineOptions SerialEngineOptions() {
  flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  return options;
}

constexpr const char* kPredictCall =
    "PREDICT(churn, age, income, tenure, clicks, plan)";

/// PREDICT traffic over the replicated users table + churn model.
std::vector<std::string> PredictCorpus() {
  std::string predict(kPredictCall);
  return {
      "SELECT id, " + predict + " FROM users WHERE id < 50",
      "SELECT COUNT(*) FROM users WHERE " + predict + " > 0.5",
      "SELECT id, " + predict + " FROM users ORDER BY id DESC LIMIT 20",
      "SELECT " + predict + " FROM users WHERE id = 7",
  };
}

/// Builds the users table and deploys the churn model entirely through
/// the engine's write path, so both replicate through the WAL.
void BuildUsersAndChurn(flock::FlockEngine* engine, size_t rows) {
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

  ml::Matrix raw(rows, 5);
  std::vector<double> labels(rows);
  Random label_rng(13);
  for (size_t i = 0; i < rows; ++i) {
    double age = 20 + label_rng.NextDouble() * 50;
    double income = 30 + label_rng.NextDouble() * 120;
    raw.at(i, 0) = age;
    raw.at(i, 1) = income;
    raw.at(i, 2) = label_rng.NextDouble() * 10;
    raw.at(i, 3) = label_rng.NextDouble() * 100;
    raw.at(i, 4) = static_cast<double>(label_rng.Uniform(3));
    labels[i] = (0.08 * (age - 45) - 0.02 * (income - 90) -
                 0.4 * raw.at(i, 2) + 0.03 * raw.at(i, 3)) > 0
                    ? 1.0
                    : 0.0;
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
  gbt.num_trees = 8;
  gbt.max_depth = 3;
  pipeline.SetTreeModel(ml::TrainGradientBoosting(features, gbt));
  ASSERT_TRUE(
      engine->DeployModel("churn", pipeline, "tester", "repl_diff_test")
          .ok());
}

/// Canonical rendering of one serving response — result bytes or the
/// full error — so primary and replica must agree on failures too.
std::string Render(serve::LoopbackClient* client, const std::string& sql) {
  auto result = client->Execute(sql);
  if (!result.ok()) return "ERR " + result.status().ToString();
  return result->batch.ToString(10000);
}

// ---------------------------------------------------------------------
// Differential corpus.
// ---------------------------------------------------------------------

TEST(ReplDifferentialTest, TpchAndPredictCorpusByteIdenticalOnReplica) {
  std::string dir = MakeTempDir();
  flock::FlockEngine primary(SerialEngineOptions());
  ASSERT_TRUE(primary.Open(dir).ok());

  // TPC-H loads straight into storage (bypassing the WAL), so the
  // primary checkpoints afterwards: the snapshot is what carries these
  // tables to the replica's bootstrap.
  workload::TpchWorkload tpch(42);
  tpch.CreateSchema(primary.database());
  tpch.PopulateData(primary.database(), 8);
  BuildUsersAndChurn(&primary, 300);
  ASSERT_TRUE(primary.Checkpoint().ok());
  // Post-checkpoint writes stream through the log, not the snapshot.
  ASSERT_TRUE(
      primary.Execute("UPDATE users SET clicks = 0.0 WHERE id = 0").ok());

  flock::FlockEngine replica(SerialEngineOptions());
  ASSERT_TRUE(replica.OpenAsReplica().ok());
  ReplicationPublisher publisher(dir);
  ReplicaApplier applier(&replica, &publisher);
  ASSERT_TRUE(applier.CatchUp().ok());

  serve::PredictionServer primary_server(&primary);
  serve::PredictionServer replica_server(&replica);
  serve::LoopbackClient primary_client(&primary_server);
  serve::LoopbackClient replica_client(&replica_server);
  ASSERT_TRUE(primary_client.status().ok());
  ASSERT_TRUE(replica_client.status().ok());

  for (size_t q = 0; q < workload::TpchWorkload::NumTemplates(); ++q) {
    std::string sql = tpch.Instantiate(q);
    EXPECT_EQ(Render(&replica_client, sql), Render(&primary_client, sql))
        << "template " << (q + 1) << ": " << sql;
  }
  for (const std::string& sql : PredictCorpus()) {
    std::string on_primary = Render(&primary_client, sql);
    EXPECT_NE(on_primary.rfind("ERR ", 0), 0u) << sql << "\n" << on_primary;
    EXPECT_EQ(Render(&replica_client, sql), on_primary) << sql;
  }

  replica_server.Shutdown();
  primary_server.Shutdown();
}

// ---------------------------------------------------------------------
// Crash matrix.
// ---------------------------------------------------------------------

/// Statements the crash-child primary commits before dying; the torn
/// final statement must never surface anywhere.
const std::vector<std::string>& CommittedStatements() {
  static const std::vector<std::string> statements = {
      "CREATE TABLE kv (k INT, v DOUBLE, tag VARCHAR)",
      "INSERT INTO kv VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'c')",
      "UPDATE kv SET v = 40.0 WHERE k = 3",
      "DELETE FROM kv WHERE k = 2",
      "CREATE TABLE notes (id INT, note VARCHAR)",
      "INSERT INTO notes VALUES (1, 'first')",
  };
  return statements;
}

constexpr const char* kTornStatement =
    "INSERT INTO kv VALUES (99, 9.9, 'torn')";

Status RunStatements(flock::FlockEngine* engine,
                     const std::vector<std::string>& statements) {
  for (const std::string& sql : statements) {
    auto result = engine->Execute(sql);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

std::string Digest(flock::FlockEngine* engine) {
  std::string digest;
  for (const char* sql : {"SELECT k, v, tag FROM kv ORDER BY k",
                          "SELECT id, note FROM notes ORDER BY id"}) {
    auto result = engine->Execute(sql);
    if (!result.ok()) {
      digest += std::string("ERR ") + sql + ": " +
                result.status().ToString() + "\n";
      continue;
    }
    digest += result->batch.ToString(10000) + "\n";
  }
  return digest;
}

/// The reference digest: what a healthy primary looks like after the
/// committed statements (the torn one excluded).
std::string ReferenceDigest() {
  flock::FlockEngine engine(SerialEngineOptions());
  EXPECT_TRUE(RunStatements(&engine, CommittedStatements()).ok());
  return Digest(&engine);
}

int SpawnCrashChild(const std::string& dir) {
  pid_t pid = fork();
  if (pid == 0) {
    setenv("FLOCK_REPL_CRASH_CHILD", dir.c_str(), 1);
    execl("/proc/self/exe", "repl_differential_test_child",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ReplCrashMatrixTest, PrimaryKilledMidAppendPromotesWithNoLostWrites) {
  std::string dir = MakeTempDir();
  int exit_code = SpawnCrashChild(dir);
  ASSERT_EQ(exit_code, wal::FaultInjector::kCrashExitCode)
      << "crash child did not die at the armed point";

  // Stream a replica from the dead primary's files. The torn final
  // append reads as end-of-durable-log, not an error.
  auto replica =
      std::make_unique<flock::FlockEngine>(SerialEngineOptions());
  ASSERT_TRUE(replica->OpenAsReplica().ok());
  ReplicationPublisher publisher(dir);
  ReplicaApplier applier(replica.get(), &publisher);

  ReplicationCoordinator coordinator;
  ASSERT_TRUE(
      coordinator.AddReplica("survivor", replica.get(), &applier).ok());
  std::string new_dir = MakeTempDir();
  Status promoted = coordinator.Promote("survivor", new_dir);
  ASSERT_TRUE(promoted.ok()) << promoted.ToString();
  EXPECT_EQ(coordinator.failovers(), 1u);

  // Every committed write survived; the torn statement did not.
  EXPECT_EQ(Digest(replica.get()), ReferenceDigest());
  EXPECT_TRUE(replica->durable());
  ASSERT_TRUE(
      replica->Execute("INSERT INTO notes VALUES (2, 'after')").ok());

  // The promoted node's own directory reopens consistently.
  std::string after = Digest(replica.get());
  replica.reset();
  flock::FlockEngine restarted(SerialEngineOptions());
  ASSERT_TRUE(restarted.Open(new_dir).ok());
  EXPECT_EQ(Digest(&restarted), after);
}

TEST(ReplCrashMatrixTest, ReplicaKilledMidApplyFreshReplicaRebootstraps) {
  std::string dir = MakeTempDir();
  flock::FlockEngine primary(SerialEngineOptions());
  ASSERT_TRUE(primary.Open(dir).ok());
  ASSERT_TRUE(RunStatements(&primary, CommittedStatements()).ok());

  // First replica dies mid-apply: one record into catch-up, the engine
  // is destroyed. Replicas are memory-only, so destruction is the crash
  // — there is no replica-side state to corrupt or recover.
  {
    flock::FlockEngine doomed(SerialEngineOptions());
    ASSERT_TRUE(doomed.OpenAsReplica().ok());
    ReplicationPublisher publisher(dir);
    ReplicaApplierOptions one_at_a_time;
    one_at_a_time.batch_records = 1;
    ReplicaApplier applier(&doomed, &publisher, one_at_a_time);
    ASSERT_TRUE(applier.Bootstrap().ok());
    auto round = applier.CatchUpOnce();
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(*round, 1u);
    ASSERT_FALSE(applier.caught_up());
  }

  // The primary keeps committing while the dead replica is replaced.
  ASSERT_TRUE(
      primary.Execute("INSERT INTO notes VALUES (3, 'while down')").ok());

  flock::FlockEngine fresh(SerialEngineOptions());
  ASSERT_TRUE(fresh.OpenAsReplica().ok());
  ReplicationPublisher publisher(dir);
  ReplicaApplier applier(&fresh, &publisher);
  ASSERT_TRUE(applier.CatchUp().ok());
  EXPECT_EQ(Digest(&fresh), Digest(&primary));
  EXPECT_EQ(applier.bootstraps(), 1u);
}

/// Crash-child body: a durable primary that commits the fixed workload,
/// arms the torn-append fault in crash mode, and dies mid-write.
int RunCrashChild(const char* dir) {
  flock::FlockEngine engine(SerialEngineOptions());
  if (!engine.Open(dir).ok()) return 3;
  if (!RunStatements(&engine, CommittedStatements()).ok()) return 4;
  wal::FaultInjector::Get()->Arm("wal.append.partial_write",
                                 wal::FaultInjector::Mode::kCrash);
  engine.Execute(kTornStatement);  // dies here with _exit
  return 5;                        // unreachable if the fault fired
}

}  // namespace
}  // namespace flock::repl

int main(int argc, char** argv) {
  if (const char* dir = std::getenv("FLOCK_REPL_CRASH_CHILD")) {
    return flock::repl::RunCrashChild(dir);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
