// End-to-end crash-recovery tests for the durability subsystem.
//
// Two layers:
//
//  * In-process tests: write through a durable FlockEngine, reopen the
//    data directory with a fresh engine, and check the recovered state
//    digests identically (plus torn-tail, checkpoint-truncation,
//    idempotence, and derived-state cases).
//
//  * The crash matrix: for every FaultInjector point, re-exec this
//    binary as a child (custom main below) that runs a fixed workload
//    with that point armed in crash mode. The child dies mid-write with
//    _exit — no destructors, no flushes — and the parent recovers the
//    directory and asserts the digest is either the pre-crash state or
//    the fully-committed state, never a hybrid.
//
// This file has its own main (linked against gtest, not gtest_main) so
// the re-exec'd child can branch into the workload before gtest runs.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "ml/tree.h"
#include "policy/policy_engine.h"
#include "prov/catalog.h"
#include "serve/server.h"
#include "wal/checkpoint.h"
#include "wal/fault_injector.h"
#include "workload/tpch.h"

namespace flock {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/flock_recovery_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

flock::FlockEngineOptions SerialEngineOptions() {
  flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  return options;
}

/// The deterministic workload the crash matrix runs: DDL, multi-row and
/// single-statement DML, updates and deletes across two tables.
const std::vector<std::string>& SetupStatements() {
  static const std::vector<std::string> statements = {
      "CREATE TABLE kv (k INT, v DOUBLE, tag VARCHAR)",
      "INSERT INTO kv VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'c')",
      "INSERT INTO kv VALUES (4, 4.5, 'd')",
      "UPDATE kv SET v = 40.0 WHERE k = 4",
      "DELETE FROM kv WHERE k = 2",
      "CREATE TABLE notes (id INT, note VARCHAR)",
      "INSERT INTO notes VALUES (1, 'first')",
  };
  return statements;
}

const std::vector<std::string>& TailStatements() {
  static const std::vector<std::string> statements = {
      "INSERT INTO kv VALUES (5, 5.5, 'e')",
      "INSERT INTO notes VALUES (2, 'second')",
  };
  return statements;
}

constexpr char kFinalStatement[] = "INSERT INTO kv VALUES (9, 9.5, 'z')";

/// Canonical text rendering of all durable state the workload touches.
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

Status RunStatements(flock::FlockEngine* engine,
                     const std::vector<std::string>& statements) {
  for (const std::string& sql : statements) {
    auto result = engine->Execute(sql);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

/// The reference digest for a given prefix of the workload, computed on a
/// throwaway in-memory engine.
std::string ReferenceDigest(bool include_final) {
  flock::FlockEngine engine(SerialEngineOptions());
  EXPECT_TRUE(RunStatements(&engine, SetupStatements()).ok());
  EXPECT_TRUE(RunStatements(&engine, TailStatements()).ok());
  if (include_final) {
    EXPECT_TRUE(engine.Execute(kFinalStatement).ok());
  }
  return Digest(&engine);
}

/// Spawns this binary as a crash child over `dir`. `point` (optional)
/// is armed programmatically in crash mode before the final statement;
/// `extra_env` lets tests drive the injector's env-var path instead.
int SpawnCrashChild(const std::string& dir, const std::string& point,
                    const std::vector<std::string>& extra_env = {}) {
  pid_t pid = fork();
  if (pid == 0) {
    setenv("FLOCK_CRASH_CHILD", dir.c_str(), 1);
    if (!point.empty()) setenv("FLOCK_CRASH_POINT", point.c_str(), 1);
    for (const std::string& kv : extra_env) {
      size_t eq = kv.find('=');
      setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
    }
    execl("/proc/self/exe", "recovery_test_child",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(RecoveryTest, BasicPersistenceAcrossRestart) {
  std::string dir = MakeTempDir();
  std::string before;
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    ASSERT_TRUE(RunStatements(&engine, SetupStatements()).ok());
    ASSERT_TRUE(RunStatements(&engine, TailStatements()).ok());
    before = Digest(&engine);
  }
  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  const wal::RecoveryResult& rec = reopened.durability()->recovery();
  EXPECT_TRUE(rec.wal_found);
  EXPECT_FALSE(rec.snapshot_restored);  // never checkpointed
  EXPECT_GT(rec.wal_records_replayed, 0u);
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_EQ(Digest(&reopened), before);
}

TEST(RecoveryTest, CheckpointTruncatesLogAndRestoresFromSnapshot) {
  std::string dir = MakeTempDir();
  std::string before;
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    ASSERT_TRUE(RunStatements(&engine, SetupStatements()).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    EXPECT_EQ(engine.durability()->epoch(), 2u);
    before = Digest(&engine);
  }
  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  const wal::RecoveryResult& rec = reopened.durability()->recovery();
  EXPECT_TRUE(rec.snapshot_restored);
  EXPECT_EQ(rec.wal_records_replayed, 0u);  // log was cut at the snapshot
  EXPECT_EQ(rec.epoch, 2u);
  EXPECT_EQ(Digest(&reopened), before);

  // Writes after the checkpoint land in the new epoch's log and replay.
  ASSERT_TRUE(reopened.Execute(kFinalStatement).ok());
  std::string after = Digest(&reopened);
  flock::FlockEngine third(SerialEngineOptions());
  ASSERT_TRUE(third.Open(dir).ok());
  EXPECT_GT(third.durability()->recovery().wal_records_replayed, 0u);
  EXPECT_EQ(Digest(&third), after);
}

TEST(RecoveryTest, RecoveryIsIdempotent) {
  std::string dir = MakeTempDir();
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    ASSERT_TRUE(RunStatements(&engine, SetupStatements()).ok());
    ASSERT_TRUE(RunStatements(&engine, TailStatements()).ok());
  }
  std::string first;
  {
    // Read-only reopen: recovery replays, nothing new is written.
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    first = Digest(&engine);
  }
  flock::FlockEngine engine(SerialEngineOptions());
  ASSERT_TRUE(engine.Open(dir).ok());
  EXPECT_EQ(Digest(&engine), first);
  EXPECT_EQ(first, ReferenceDigest(false));
}

TEST(RecoveryTest, TornFinalRecordIsDropped) {
  std::string dir = MakeTempDir();
  std::string before;
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    ASSERT_TRUE(RunStatements(&engine, SetupStatements()).ok());
    before = Digest(&engine);
  }
  // A crash mid-append leaves a half-written frame at the tail.
  AppendBytes(dir + "/wal.log", std::string("\x13\x00\x00\x00\xde\xad", 6));

  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_TRUE(reopened.durability()->recovery().tail_truncated);
  EXPECT_EQ(Digest(&reopened), before);

  // The torn tail was truncated on resume: appends work and a third
  // restart sees a clean log.
  ASSERT_TRUE(reopened.Execute(kFinalStatement).ok());
}

TEST(RecoveryTest, ProvAndPolicyStatePersists) {
  std::string dir = MakeTempDir();
  size_t entities_before = 0, edges_before = 0, timeline_before = 0;
  {
    prov::Catalog catalog;
    policy::PolicyEngine policy_engine;
    auto policy = policy::Policy::Create("clamp", policy::ActionKind::kClamp,
                                         "prediction > 0.8");
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    policy->set_clamp(0.0, 0.8);
    ASSERT_TRUE(policy_engine.AddPolicy(std::move(*policy)).ok());

    flock::FlockEngine engine(SerialEngineOptions());
    flock::FlockDurabilityConfig config;
    config.catalog = &catalog;
    config.policy = &policy_engine;
    ASSERT_TRUE(engine.Open(dir, config).ok());

    // Provenance: a model entity with lineage and properties.
    uint64_t model = catalog.GetOrCreate(prov::EntityType::kModel, "churn");
    uint64_t table = catalog.GetOrCreate(prov::EntityType::kTable, "users");
    catalog.AddEdge(model, table, prov::EdgeType::kDerivesFrom);
    ASSERT_TRUE(catalog.SetProperty(model, "auc", "0.91").ok());
    uint64_t v2 = catalog.NewVersion(prov::EntityType::kModel, "churn");
    ASSERT_NE(v2, model);

    // Policy: decide a batch so the timeline gains entries.
    storage::RecordBatch context(storage::Schema(
        {{"segment", storage::DataType::kString, false}}));
    ASSERT_TRUE(context.AppendRow({storage::Value::String("us")}).ok());
    ASSERT_TRUE(context.AppendRow({storage::Value::String("eu")}).ok());
    auto decisions = policy_engine.DecideBatch({0.95, 0.4}, context);
    ASSERT_TRUE(decisions.ok()) << decisions.status().ToString();

    entities_before = catalog.num_entities();
    edges_before = catalog.num_edges();
    timeline_before = policy_engine.timeline().size();
    ASSERT_GT(entities_before, 0u);
    ASSERT_GT(timeline_before, 0u);
  }

  prov::Catalog catalog;
  policy::PolicyEngine policy_engine;
  flock::FlockEngine reopened(SerialEngineOptions());
  flock::FlockDurabilityConfig config;
  config.catalog = &catalog;
  config.policy = &policy_engine;
  ASSERT_TRUE(reopened.Open(dir, config).ok());

  EXPECT_EQ(catalog.num_entities(), entities_before);
  EXPECT_EQ(catalog.num_edges(), edges_before);
  auto found = catalog.Find(prov::EntityType::kModel, "churn");
  ASSERT_TRUE(found.ok());
  auto entity = catalog.GetEntity(*found);
  ASSERT_TRUE(entity.ok());
  EXPECT_EQ((*entity)->version, 2u);
  auto v1 = catalog.Find(prov::EntityType::kModel, "churn", 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*catalog.GetEntity(*v1))->properties.at("auc"), "0.91");

  ASSERT_EQ(policy_engine.timeline().size(), timeline_before);
  EXPECT_EQ(policy_engine.timeline()[0].policy, "clamp");
  EXPECT_TRUE(policy_engine.timeline()[0].rejected ||
              policy_engine.timeline()[0].after <= 0.8);

  // Policies themselves are configuration, not durable state — re-add
  // one and check replayed seq numbers keep advancing, not colliding.
  auto repolicied = policy::Policy::Create(
      "clamp", policy::ActionKind::kClamp, "prediction > 0.8");
  ASSERT_TRUE(repolicied.ok());
  repolicied->set_clamp(0.0, 0.8);
  ASSERT_TRUE(policy_engine.AddPolicy(std::move(*repolicied)).ok());
  storage::RecordBatch context(storage::Schema(
      {{"segment", storage::DataType::kString, false}}));
  ASSERT_TRUE(context.AppendRow({storage::Value::String("ap")}).ok());
  ASSERT_TRUE(policy_engine.DecideBatch({0.99}, context).ok());
  ASSERT_GT(policy_engine.timeline().size(), timeline_before);
  EXPECT_GT(policy_engine.timeline().back().seq,
            policy_engine.timeline()[timeline_before - 1].seq);
}

/// Tiny trained pipeline over (x DOUBLE) — enough to exercise model
/// deploy/recover/score without a real training set.
ml::Pipeline TinyPipeline() {
  ml::Pipeline pipeline;
  pipeline.SetInputs(
      {ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}}});
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  ml::Matrix raw(32, 1);
  std::vector<double> labels(32);
  Random rng(13);
  for (size_t i = 0; i < 32; ++i) {
    raw.at(i, 0) = rng.NextDouble() * 10;
    labels[i] = raw.at(i, 0) > 5 ? 1.0 : 0.0;
  }
  pipeline.FitFeaturizers(raw, true, true);
  ml::Dataset features;
  features.x = pipeline.Transform(raw);
  features.y = labels;
  ml::GbtOptions gbt;
  gbt.num_trees = 4;
  gbt.max_depth = 2;
  pipeline.SetTreeModel(ml::TrainGradientBoosting(features, gbt));
  return pipeline;
}

TEST(RecoveryTest, ModelsRecoverAndDerivedCatalogRebuilds) {
  std::string dir = MakeTempDir();
  std::string scores_before;
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    ASSERT_TRUE(
        engine.Execute("CREATE TABLE points (id INT, x DOUBLE)").ok());
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO points VALUES (1, 1.0), (2, 6.0), "
                             "(3, 9.0), (4, 4.0)")
                    .ok());
    ASSERT_TRUE(engine.DeployModel("scorer", TinyPipeline(), "tester",
                                   "tests/recovery_test").ok());
    auto scored = engine.Execute(
        "SELECT id, PREDICT(scorer, x) FROM points ORDER BY id");
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    scores_before = scored->batch.ToString(100);
  }

  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());

  // The model scores identically after recovery.
  auto scored = reopened.Execute(
      "SELECT id, PREDICT(scorer, x) FROM points ORDER BY id");
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  EXPECT_EQ(scored->batch.ToString(100), scores_before);

  // Derived state is rebuilt, not recovered: the catalog views exist and
  // show the model even though snapshots skip them.
  auto models = reopened.Execute("SELECT name FROM flock_models");
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  ASSERT_EQ(models->batch.num_rows(), 1u);
  EXPECT_EQ(models->batch.GetRow(0)[0].string_value(), "scorer");

  // DROP MODEL is durable too.
  ASSERT_TRUE(reopened.Execute("DROP MODEL scorer").ok());
  flock::FlockEngine third(SerialEngineOptions());
  ASSERT_TRUE(third.Open(dir).ok());
  EXPECT_FALSE(
      third.Execute("SELECT id, PREDICT(scorer, x) FROM points").ok());
}

TEST(RecoveryTest, AccessListSurvivesRestartWithoutCheckpoint) {
  std::string dir = MakeTempDir();
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    ASSERT_TRUE(
        engine.Execute("CREATE TABLE points (id INT, x DOUBLE)").ok());
    ASSERT_TRUE(
        engine.Execute("INSERT INTO points VALUES (1, 1.0), (2, 6.0)").ok());
    ASSERT_TRUE(engine.DeployModel("scorer", TinyPipeline(), "tester",
                                   "tests/recovery_test").ok());
    ASSERT_TRUE(engine.SetAccessControl("scorer", {"alice"}).ok());
  }

  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  const char* score = "SELECT id, PREDICT(scorer, x) FROM points";
  sql::ExecOptions mallory;
  mallory.principal = "mallory";
  EXPECT_EQ(reopened.Execute(score, mallory).status().code(),
            StatusCode::kPermissionDenied);
  sql::ExecOptions alice;
  alice.principal = "alice";
  auto allowed = reopened.Execute(score, alice);
  EXPECT_TRUE(allowed.ok()) << allowed.status().ToString();
}

TEST(RecoveryTest, SegmentedLayoutSurvivesCheckpointRestart) {
  std::string dir = MakeTempDir();
  std::string before;
  size_t segments_before = 0;
  std::vector<size_t> rows_per_segment;
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    // Tiny segments so a handful of rows spans several of them.
    engine.database()->set_default_segment_capacity(4);
    ASSERT_TRUE(engine.Execute("CREATE TABLE seg (k INT, v DOUBLE)").ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine
                      .Execute("INSERT INTO seg VALUES (" +
                               std::to_string(i) + ", " +
                               std::to_string(i) + ".5)")
                      .ok());
    }
    ASSERT_TRUE(engine.Checkpoint().ok());
    auto table = engine.database()->GetTable("seg");
    ASSERT_TRUE(table.ok());
    segments_before = (*table)->num_segments();
    ASSERT_GT(segments_before, 1u);
    for (size_t s = 0; s < segments_before; ++s) {
      rows_per_segment.push_back((*table)->segment_rows(s));
    }
    auto rows = engine.Execute("SELECT k, v FROM seg ORDER BY k");
    ASSERT_TRUE(rows.ok());
    before = rows->batch.ToString(1000);
  }

  // The reopened engine keeps the stock default capacity: the snapshot's
  // recorded per-table capacity must win, reproducing the exact layout.
  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_TRUE(reopened.durability()->recovery().snapshot_restored);
  auto table = reopened.database()->GetTable("seg");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->segment_capacity(), 4u);
  ASSERT_EQ((*table)->num_segments(), segments_before);
  for (size_t s = 0; s < segments_before; ++s) {
    EXPECT_EQ((*table)->segment_rows(s), rows_per_segment[s]) << "seg " << s;
  }
  // Zone maps are rebuilt on restore, ready for pruning immediately.
  EXPECT_TRUE((*table)->segment_zone_map(0, 0).has_range);
  auto rows = reopened.Execute("SELECT k, v FROM seg ORDER BY k");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->batch.ToString(1000), before);
}

/// INSERT statements loading keys [begin, end) into `blk (id INT, v
/// DOUBLE)`, 2000 rows per statement.
std::vector<std::string> BlockInserts(int begin, int end) {
  std::vector<std::string> statements;
  for (int chunk = begin; chunk < end; chunk += 2000) {
    std::string sql = "INSERT INTO blk VALUES ";
    for (int i = chunk; i < std::min(end, chunk + 2000); ++i) {
      if (i > chunk) sql += ", ";
      sql += StrCat("(", std::to_string(i)) + ", " + std::to_string(i) + ".5)";
    }
    statements.push_back(std::move(sql));
  }
  return statements;
}

/// The scan counters and rows of `EXPLAIN ANALYZE <query>`, rendered so
/// two engines can be compared with one EXPECT_EQ.
std::string ScanCounters(flock::FlockEngine* engine, const std::string& query) {
  auto result = engine->Execute("EXPLAIN ANALYZE " + query);
  if (!result.ok()) return "ERR " + result.status().ToString();
  for (const sql::OperatorMetricsSnapshot& snap : result->operator_metrics) {
    if (snap.name.rfind("TableScan", 0) != 0) continue;
    return "segments=" + std::to_string(snap.segments_scanned) +
           " pruned=" + std::to_string(snap.segments_pruned) +
           " blocks=" + std::to_string(snap.blocks_scanned) +
           " pruned=" + std::to_string(snap.blocks_pruned) +
           " in=" + std::to_string(snap.rows_in) +
           " out=" + std::to_string(snap.rows_out) + " rows=" +
           std::to_string(result->operator_metrics.front().rows_out);
  }
  return "no TableScan";
}

TEST(RecoveryTest, BlockPruningMatchesAfterSnapshotAndWalTail) {
  std::string dir = MakeTempDir();
  const std::vector<std::string> lookups = {
      "SELECT id, v FROM blk WHERE id = 5000",    // snapshot rows
      "SELECT id, v FROM blk WHERE id = 21000",   // WAL-tail rows
      "SELECT id FROM blk WHERE id BETWEEN 20470 AND 20500",  // both
  };
  std::vector<std::string> primary;
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    ASSERT_TRUE(engine.Execute("CREATE TABLE blk (id INT, v DOUBLE)").ok());
    ASSERT_TRUE(RunStatements(&engine, BlockInserts(0, 20000)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(RunStatements(&engine, BlockInserts(20000, 23000)).ok());
    for (const std::string& query : lookups) {
      primary.push_back(ScanCounters(&engine, query));
    }
  }
  // 23000 rows in one segment: 12 blocks, one of which holds the key.
  EXPECT_EQ(primary[0],
            "segments=1 pruned=0 blocks=1 pruned=11 in=2048 out=2048 rows=1");

  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_TRUE(reopened.durability()->recovery().snapshot_restored);
  EXPECT_GT(reopened.durability()->recovery().wal_records_replayed, 0u);
  for (size_t i = 0; i < lookups.size(); ++i) {
    EXPECT_EQ(ScanCounters(&reopened, lookups[i]), primary[i]) << lookups[i];
  }
}

TEST(RecoveryTest, SegmentFlushErrorLeavesNoTempImage) {
  std::string dir = MakeTempDir();
  flock::FlockEngine engine(SerialEngineOptions());
  ASSERT_TRUE(engine.Open(dir).ok());
  ASSERT_TRUE(RunStatements(&engine, SetupStatements()).ok());
  std::string before = Digest(&engine);

  // Fail (not crash) between the segment-data flush and the CRC write:
  // the checkpoint must abort cleanly and remove its torn temp image.
  wal::FaultInjector::Get()->Arm("checkpoint.after_segment_flush",
                                 wal::FaultInjector::Mode::kError);
  EXPECT_FALSE(engine.Checkpoint().ok());
  wal::FaultInjector::Get()->Disarm();
  std::ifstream tmp(wal::CheckpointManager(dir).temp_path());
  EXPECT_FALSE(tmp.good());
  EXPECT_EQ(Digest(&engine), before);

  // A retry succeeds and the snapshot restores on restart.
  ASSERT_TRUE(engine.Checkpoint().ok());
  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_TRUE(reopened.durability()->recovery().snapshot_restored);
  EXPECT_EQ(Digest(&reopened), before);
}

// ---------------------------------------------------------------------
// Crash matrix: child-process runs under fault injection.
// ---------------------------------------------------------------------

TEST(CrashMatrixTest, EveryFaultPointRecoversToAConsistentState) {
  const std::string expected_pre = ReferenceDigest(false);
  const std::string expected_post = ReferenceDigest(true);
  ASSERT_NE(expected_pre, expected_post);

  for (const std::string& point : wal::FaultInjector::Points()) {
    SCOPED_TRACE("fault point: " + point);
    std::string dir = MakeTempDir();
    int exit_code = SpawnCrashChild(dir, point);
    EXPECT_EQ(exit_code, wal::FaultInjector::kCrashExitCode)
        << "child did not crash at " << point;

    flock::FlockEngine recovered(SerialEngineOptions());
    Status opened = recovered.Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    std::string digest = Digest(&recovered);
    EXPECT_TRUE(digest == expected_pre || digest == expected_post)
        << "recovered state is neither pre- nor post-crash:\n"
        << digest;

    // The recovered engine accepts new writes and survives another
    // restart (the log/snapshot left by recovery is itself valid).
    ASSERT_TRUE(
        recovered.Execute("INSERT INTO notes VALUES (77, 'post')").ok());
    std::string after = Digest(&recovered);
    flock::FlockEngine again(SerialEngineOptions());
    ASSERT_TRUE(again.Open(dir).ok());
    EXPECT_EQ(Digest(&again), after);
  }
}

TEST(CrashMatrixTest, SegmentFlushCrashPreservesMultiSegmentTables) {
  const std::string expected_pre = ReferenceDigest(false);
  const std::string expected_post = ReferenceDigest(true);
  std::string dir = MakeTempDir();
  // Capacity 2: every table in the workload spans several segments, so
  // the crash lands after *multiple* flushed segments with no CRC yet.
  int exit_code = SpawnCrashChild(dir, "checkpoint.after_segment_flush",
                                  {"FLOCK_CRASH_SEGCAP=2"});
  EXPECT_EQ(exit_code, wal::FaultInjector::kCrashExitCode);

  flock::FlockEngine recovered(SerialEngineOptions());
  ASSERT_TRUE(recovered.Open(dir).ok());
  // Recovery must ignore the CRC-less temp image and rebuild from the
  // previous snapshot + WAL: every row exactly once, none duplicated.
  std::string digest = Digest(&recovered);
  EXPECT_TRUE(digest == expected_pre || digest == expected_post)
      << "recovered state is neither pre- nor post-crash:\n" << digest;

  // The previous snapshot recorded capacity 2, so the restored table is
  // genuinely multi-segment and its geometry is internally consistent.
  auto table = recovered.database()->GetTable("kv");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->segment_capacity(), 2u);
  EXPECT_GT((*table)->num_segments(), 1u);
  size_t total = 0;
  for (size_t s = 0; s < (*table)->num_segments(); ++s) {
    total += (*table)->segment_rows(s);
  }
  EXPECT_EQ(total, (*table)->num_rows());
}

TEST(CrashMatrixTest, EnvVarDrivenFaultInjectionKillsTheChild) {
  std::string dir = MakeTempDir();
  // No FLOCK_CRASH_POINT: the injector arms itself from FLOCK_FAULT_*
  // env vars on first access, so the child dies during the setup
  // statements rather than at the final one.
  int exit_code = SpawnCrashChild(
      dir, "",
      {"FLOCK_FAULT_POINT=wal.append.before_fsync",
       "FLOCK_FAULT_MODE=crash", "FLOCK_FAULT_SKIP=2"});
  EXPECT_EQ(exit_code, wal::FaultInjector::kCrashExitCode);

  flock::FlockEngine recovered(SerialEngineOptions());
  ASSERT_TRUE(recovered.Open(dir).ok());
  // Whatever prefix committed must replay cleanly.
  EXPECT_GE(recovered.durability()->recovery().wal_records_replayed, 0u);
}

// ---------------------------------------------------------------------
// Differential restart: the serving layer returns identical results
// before and after a full stop/checkpoint/restart cycle.
// ---------------------------------------------------------------------

TEST(DifferentialRestartTest, ServerServesIdenticalResultsAfterRestart) {
  std::string dir = MakeTempDir();
  workload::TpchWorkload tpch(42);
  std::vector<std::string> corpus = tpch.GenerateQueryStream(8);
  corpus.push_back("SELECT COUNT(*) FROM lineitem");
  corpus.push_back(
      "SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag");

  std::vector<std::string> before;
  {
    flock::FlockEngine engine(SerialEngineOptions());
    ASSERT_TRUE(engine.Open(dir).ok());
    workload::TpchWorkload loader(42);
    ASSERT_TRUE(loader.CreateSchema(engine.database()).ok());
    ASSERT_TRUE(loader.PopulateData(engine.database(), 8).ok());

    serve::PredictionServer server(&engine);
    serve::LoopbackClient client(&server);
    ASSERT_TRUE(client.status().ok());
    for (const std::string& sql : corpus) {
      auto result = client.Execute(sql);
      before.push_back(result.ok() ? result->batch.ToString(10000)
                                   : result.status().ToString());
    }
    server.Shutdown();  // drains and checkpoints
  }

  flock::FlockEngine reopened(SerialEngineOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  // Shutdown checkpointed, so the restart restores the snapshot with an
  // empty log.
  EXPECT_TRUE(reopened.durability()->recovery().snapshot_restored);
  EXPECT_EQ(reopened.durability()->recovery().wal_records_replayed, 0u);

  serve::PredictionServer server(&reopened);
  serve::LoopbackClient client(&server);
  ASSERT_TRUE(client.status().ok());
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto result = client.Execute(corpus[i]);
    std::string after = result.ok() ? result->batch.ToString(10000)
                                    : result.status().ToString();
    EXPECT_EQ(after, before[i]) << "query " << i << ": " << corpus[i];
  }
  server.Shutdown();
}

// ---------------------------------------------------------------------
// Crash-child workload (runs in the re-exec'd process, never in gtest).
// ---------------------------------------------------------------------

int RunCrashChild(const char* dir) {
  flock::FlockEngine engine(SerialEngineOptions());
  if (!engine.Open(dir).ok()) return 3;
  // FLOCK_CRASH_SEGCAP shrinks segments so the fixed workload produces
  // multi-segment tables (and multi-segment checkpoint images).
  if (const char* cap = std::getenv("FLOCK_CRASH_SEGCAP")) {
    engine.database()->set_default_segment_capacity(
        static_cast<size_t>(std::atoi(cap)));
  }
  if (!RunStatements(&engine, SetupStatements()).ok()) return 4;
  if (!engine.Checkpoint().ok()) return 5;
  if (!RunStatements(&engine, TailStatements()).ok()) return 6;

  if (const char* point = std::getenv("FLOCK_CRASH_POINT")) {
    wal::FaultInjector::Get()->Arm(point,
                                   wal::FaultInjector::Mode::kCrash);
  }
  // With a wal.append.* point armed this statement dies mid-append; with
  // a checkpoint.* point the statement commits and the checkpoint dies.
  auto final_result = engine.Execute(kFinalStatement);
  Status checkpointed = engine.Checkpoint();
  wal::FaultInjector::Get()->Disarm();
  if (!final_result.ok() || !checkpointed.ok()) return 7;
  return 0;  // no fault armed and everything committed
}

}  // namespace
}  // namespace flock

int main(int argc, char** argv) {
  if (const char* dir = std::getenv("FLOCK_CRASH_CHILD")) {
    return flock::RunCrashChild(dir);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
