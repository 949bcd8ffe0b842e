// Tests for the replication subsystem (src/repl/): wire codec, the
// publisher that tails a primary's data directory, the replica applier
// (bootstrap, catch-up streaming, re-bootstrap after checkpoints,
// sticky health), read-only replica semantics (Redirect for writes,
// bounded-staleness admission), and the coordinator (registration, lag
// reports, failover with epoch fencing).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "ml/tree.h"
#include "obs/metrics_registry.h"
#include "repl/applier.h"
#include "repl/coordinator.h"
#include "repl/metrics.h"
#include "repl/publisher.h"
#include "repl/replication.h"
#include "repl/wire.h"
#include "serve/server.h"
#include "storage/schema.h"
#include "wal/fault_injector.h"
#include "wal/wal_record.h"

namespace flock::repl {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/flock_repl_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

flock::FlockEngineOptions SerialEngineOptions() {
  flock::FlockEngineOptions options;
  options.sql.num_threads = 1;
  return options;
}

/// The fixed primary workload: DDL, multi-row inserts, updates, deletes
/// across two tables — the same shape the crash-recovery suite replays.
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

Status RunStatements(flock::FlockEngine* engine,
                     const std::vector<std::string>& statements) {
  for (const std::string& sql : statements) {
    auto result = engine->Execute(sql);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

/// Canonical text rendering of all replicated state the workload touches.
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

/// Tiny trained pipeline over (x DOUBLE) for model-replication tests.
ml::Pipeline TinyPipeline() {
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}}});
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

/// A primary + replica pair sharing one data directory: the publisher
/// reads the primary's files, the applier drives the replica engine.
struct ReplicaPair {
  std::string dir;
  std::unique_ptr<flock::FlockEngine> primary;
  std::unique_ptr<flock::FlockEngine> replica;
  std::unique_ptr<ReplicationPublisher> publisher;
  std::unique_ptr<ReplicaApplier> applier;
};

ReplicaPair MakePair(ReplicaApplierOptions applier_options = {}) {
  ReplicaPair pair;
  pair.dir = MakeTempDir();
  pair.primary = std::make_unique<flock::FlockEngine>(SerialEngineOptions());
  EXPECT_TRUE(pair.primary->Open(pair.dir).ok());
  pair.replica = std::make_unique<flock::FlockEngine>(SerialEngineOptions());
  EXPECT_TRUE(pair.replica->OpenAsReplica().ok());
  pair.publisher = std::make_unique<ReplicationPublisher>(pair.dir);
  pair.applier = std::make_unique<ReplicaApplier>(
      pair.replica.get(), pair.publisher.get(), applier_options);
  return pair;
}

// ---------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------

TEST(ReplWireTest, HexRoundTripsAllByteValues) {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes.push_back(static_cast<char>(b));
  std::string hex = HexEncode(bytes);
  EXPECT_EQ(hex.size(), 512u);
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, bytes);
}

TEST(ReplWireTest, HexDecodeRejectsMalformedInput) {
  EXPECT_FALSE(HexDecode("abc").ok());   // odd length
  EXPECT_FALSE(HexDecode("zz").ok());    // non-hex digit
  auto empty = HexDecode("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ReplWireTest, RecordFrameRoundTrip) {
  storage::Schema schema({{"k", storage::DataType::kInt64, false}});
  std::vector<wal::WalRecord> records;
  records.push_back(wal::WalRecord::CreateTable("t", schema));
  records.push_back(wal::WalRecord::DropTable("t"));
  records.push_back(
      wal::WalRecord::DeployModel("m", "pipe", "alice", "train.py"));
  for (const wal::WalRecord& record : records) {
    std::string frame = EncodeRecordFrame(record);
    auto decoded = DecodeRecordFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, record.type);
    // Re-encoding the decoded record reproduces the frame bit-for-bit.
    EXPECT_EQ(EncodeRecordFrame(*decoded), frame);
  }
  EXPECT_FALSE(DecodeRecordFrame("q1").ok());
  EXPECT_FALSE(DecodeRecordFrame("").ok());
}

TEST(ReplWireTest, ParseReplCommandForms) {
  EXPECT_EQ(ParseReplCommand("status").kind, ReplCommand::Kind::kStatus);
  EXPECT_EQ(ParseReplCommand("bootstrap").kind,
            ReplCommand::Kind::kBootstrap);
  ReplCommand fetch = ParseReplCommand("fetch 3 17 256");
  ASSERT_EQ(fetch.kind, ReplCommand::Kind::kFetch);
  EXPECT_EQ(fetch.from.epoch, 3u);
  EXPECT_EQ(fetch.from.lsn, 17u);
  EXPECT_EQ(fetch.max_records, 256u);
  for (const char* bad :
       {"", "fetch", "fetch 1", "fetch 1 2", "fetch a b c", "nonsense"}) {
    EXPECT_EQ(ParseReplCommand(bad).kind, ReplCommand::Kind::kInvalid)
        << bad;
  }
}

TEST(ReplWireTest, StatusResponseRoundTrip) {
  std::string text = EncodeStatusResponse("primary", {7, 42});
  auto parsed = ParseStatusResponse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->role, "primary");
  EXPECT_EQ(parsed->position.epoch, 7u);
  EXPECT_EQ(parsed->position.lsn, 42u);
  EXPECT_FALSE(ParseStatusResponse("REPL STATUS primary 7\n").ok());
}

TEST(ReplWireTest, BootstrapResponseRoundTrip) {
  BootstrapResult bootstrap;
  bootstrap.snapshot.epoch = 5;
  bootstrap.position = {5, 0};
  std::string text = EncodeBootstrapResponse(bootstrap);
  auto parsed = ParseBootstrapResponse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->snapshot.epoch, 5u);
  EXPECT_EQ(parsed->position.epoch, 5u);
  EXPECT_EQ(parsed->position.lsn, 0u);
  EXPECT_GT(parsed->bytes, 0u);
}

TEST(ReplWireTest, FetchResponseRoundTrip) {
  storage::Schema schema({{"k", storage::DataType::kInt64, false}});
  FetchResult fetch;
  fetch.records.push_back(wal::WalRecord::CreateTable("t", schema));
  fetch.records.push_back(wal::WalRecord::DropTable("t"));
  fetch.next = {2, 9};
  fetch.end_of_log = true;
  fetch.snapshot_required = false;
  std::string text = EncodeFetchResponse(fetch);
  auto parsed = ParseFetchResponse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->records.size(), 2u);
  EXPECT_EQ(parsed->records[0].type, wal::WalRecordType::kCreateTable);
  EXPECT_EQ(parsed->records[1].type, wal::WalRecordType::kDropTable);
  EXPECT_EQ(parsed->next.epoch, 2u);
  EXPECT_EQ(parsed->next.lsn, 9u);
  EXPECT_TRUE(parsed->end_of_log);
  EXPECT_FALSE(parsed->snapshot_required);
  EXPECT_GT(parsed->bytes, 0u);
}

// ---------------------------------------------------------------------
// Publisher: catch-up + streaming from a primary's data directory.
// ---------------------------------------------------------------------

TEST(PublisherTest, BootstrapOnFreshDirIsEmptySnapshotAtEpochOne) {
  std::string dir = MakeTempDir();
  flock::FlockEngine primary(SerialEngineOptions());
  ASSERT_TRUE(primary.Open(dir).ok());

  ReplicationPublisher publisher(dir);
  auto bootstrap = publisher.Bootstrap();
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status().ToString();
  EXPECT_EQ(bootstrap->position.epoch, 1u);
  EXPECT_EQ(bootstrap->position.lsn, 0u);
  EXPECT_TRUE(bootstrap->snapshot.tables.empty());
}

TEST(PublisherTest, StreamsCommittedRecordsToEndOfLog) {
  std::string dir = MakeTempDir();
  flock::FlockEngine primary(SerialEngineOptions());
  ASSERT_TRUE(primary.Open(dir).ok());
  ASSERT_TRUE(RunStatements(&primary, SetupStatements()).ok());

  ReplicationPublisher publisher(dir);
  auto fetch = publisher.Fetch({1, 0}, 1000);
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  EXPECT_EQ(fetch->records.size(), SetupStatements().size());
  EXPECT_TRUE(fetch->end_of_log);
  EXPECT_FALSE(fetch->snapshot_required);
  EXPECT_EQ(fetch->next.epoch, 1u);
  EXPECT_EQ(fetch->next.lsn, SetupStatements().size());
  EXPECT_GT(fetch->bytes, 0u);

  // Fetching from the end again: empty round, still end-of-log.
  auto drained = publisher.Fetch(fetch->next, 1000);
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->records.empty());
  EXPECT_TRUE(drained->end_of_log);
}

TEST(PublisherTest, FetchFromTruncatedEpochRequiresSnapshot) {
  std::string dir = MakeTempDir();
  flock::FlockEngine primary(SerialEngineOptions());
  ASSERT_TRUE(primary.Open(dir).ok());
  ASSERT_TRUE(RunStatements(&primary, SetupStatements()).ok());
  ASSERT_TRUE(primary.Checkpoint().ok());  // WAL truncated, epoch 2

  ReplicationPublisher publisher(dir);
  auto fetch = publisher.Fetch({1, 2}, 1000);
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  EXPECT_TRUE(fetch->snapshot_required);
  EXPECT_TRUE(fetch->records.empty());

  // And the fresh bootstrap lands in the post-checkpoint epoch.
  auto bootstrap = publisher.Bootstrap();
  ASSERT_TRUE(bootstrap.ok());
  EXPECT_EQ(bootstrap->position.epoch, 2u);
  EXPECT_FALSE(bootstrap->snapshot.tables.empty());
}

TEST(PublisherTest, DurableEndTracksCommittedAppends) {
  std::string dir = MakeTempDir();
  flock::FlockEngine primary(SerialEngineOptions());
  ASSERT_TRUE(primary.Open(dir).ok());

  ReplicationPublisher publisher(dir);
  auto end = publisher.DurableEnd();
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_EQ(end->epoch, 1u);
  EXPECT_EQ(end->lsn, 0u);

  ASSERT_TRUE(RunStatements(&primary, SetupStatements()).ok());
  end = publisher.DurableEnd();
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->lsn, SetupStatements().size());
  // The engine's own epoch-local LSN agrees with the on-disk probe.
  EXPECT_EQ(primary.durability()->lsn(), end->lsn);
}

TEST(PublisherTest, ServesCatchUpFromADeadPrimarysFiles) {
  std::string dir = MakeTempDir();
  std::string before;
  {
    flock::FlockEngine primary(SerialEngineOptions());
    ASSERT_TRUE(primary.Open(dir).ok());
    ASSERT_TRUE(RunStatements(&primary, SetupStatements()).ok());
    before = Digest(&primary);
  }  // primary gone; only its files remain — the failover scenario

  flock::FlockEngine replica(SerialEngineOptions());
  ASSERT_TRUE(replica.OpenAsReplica().ok());
  ReplicationPublisher publisher(dir);
  ReplicaApplier applier(&replica, &publisher);
  ASSERT_TRUE(applier.CatchUp().ok());
  EXPECT_EQ(Digest(&replica), before);
}

// ---------------------------------------------------------------------
// Applier + replica engine.
// ---------------------------------------------------------------------

TEST(ReplicaTest, BootstrapAndCatchUpMatchPrimary) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());

  ASSERT_TRUE(pair.applier->CatchUp().ok());
  EXPECT_EQ(Digest(pair.replica.get()), Digest(pair.primary.get()));
  EXPECT_TRUE(pair.applier->caught_up());
  EXPECT_EQ(pair.applier->lag_records(), 0u);
  EXPECT_EQ(pair.applier->applied().epoch, 1u);
  EXPECT_EQ(pair.applier->applied().lsn, SetupStatements().size());
  EXPECT_EQ(pair.applier->records_applied(), SetupStatements().size());
  EXPECT_EQ(pair.applier->bootstraps(), 1u);
  EXPECT_GT(pair.applier->bytes_received(), 0u);
  EXPECT_TRUE(pair.applier->health().ok());
}

TEST(ReplicaTest, IncrementalStreamingAppliesNewWrites) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());

  ASSERT_TRUE(
      pair.primary->Execute("INSERT INTO kv VALUES (9, 9.5, 'z')").ok());
  ASSERT_TRUE(pair.primary->Execute("DELETE FROM notes WHERE id = 1").ok());
  auto round = pair.applier->CatchUpOnce();
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(*round, 2u);
  EXPECT_EQ(Digest(pair.replica.get()), Digest(pair.primary.get()));
}

TEST(ReplicaTest, PrimaryCheckpointTriggersReBootstrap) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());
  ASSERT_EQ(pair.applier->bootstraps(), 1u);

  // Checkpoint truncates the epoch-1 log the replica was tailing; the
  // next rounds must re-bootstrap from the snapshot and keep going.
  ASSERT_TRUE(pair.primary->Checkpoint().ok());
  ASSERT_TRUE(
      pair.primary->Execute("INSERT INTO kv VALUES (10, 0.5, 'n')").ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());
  EXPECT_EQ(pair.applier->bootstraps(), 2u);
  EXPECT_EQ(pair.applier->applied().epoch, 2u);
  EXPECT_EQ(Digest(pair.replica.get()), Digest(pair.primary.get()));
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

TEST(ReplicaTest, BlockPruningMatchesPrimaryAfterBootstrapAndStreaming) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(
      pair.primary->Execute("CREATE TABLE blk (id INT, v DOUBLE)").ok());
  ASSERT_TRUE(RunStatements(pair.primary.get(), BlockInserts(0, 20000)).ok());
  // The replica bootstraps from this snapshot, then streams the tail.
  ASSERT_TRUE(pair.primary->Checkpoint().ok());
  ASSERT_TRUE(
      RunStatements(pair.primary.get(), BlockInserts(20000, 23000)).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());
  EXPECT_EQ(pair.applier->bootstraps(), 1u);
  EXPECT_GT(pair.applier->records_applied(), 0u);

  // 23000 rows in one segment are 12 blocks; the last lookup straddles
  // the boundary between blocks 9 and 10.
  const std::vector<std::pair<std::string, std::string>> lookups = {
      {"SELECT id, v FROM blk WHERE id = 5000", " blocks=1 pruned=11 "},
      {"SELECT id, v FROM blk WHERE id = 21000", " blocks=1 pruned=11 "},
      {"SELECT id FROM blk WHERE id BETWEEN 20470 AND 20500",
       " blocks=2 pruned=10 "},
  };
  for (const auto& [query, blocks] : lookups) {
    const std::string on_primary = ScanCounters(pair.primary.get(), query);
    EXPECT_NE(on_primary.find(blocks), std::string::npos)
        << query << ": " << on_primary;
    EXPECT_EQ(ScanCounters(pair.replica.get(), query), on_primary) << query;
  }
}

TEST(ReplicaTest, ModelsReplicateAndScoreIdentically) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(
      pair.primary->Execute("CREATE TABLE points (id INT, x DOUBLE)").ok());
  ASSERT_TRUE(pair.primary
                  ->Execute("INSERT INTO points VALUES (1, 1.0), (2, 6.0), "
                            "(3, 9.0), (4, 4.0)")
                  .ok());
  ASSERT_TRUE(pair.primary
                  ->DeployModel("scorer", TinyPipeline(), "tester",
                                "tests/repl_test")
                  .ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());

  const char* score =
      "SELECT id, PREDICT(scorer, x) FROM points ORDER BY id";
  auto on_primary = pair.primary->Execute(score);
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  auto on_replica = pair.replica->Execute(score);
  ASSERT_TRUE(on_replica.ok()) << on_replica.status().ToString();
  EXPECT_EQ(on_replica->batch.ToString(100), on_primary->batch.ToString(100));

  // The derived model-catalog view is rebuilt on the replica too.
  auto models = pair.replica->Execute("SELECT name FROM flock_models");
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  ASSERT_EQ(models->batch.num_rows(), 1u);
  EXPECT_EQ(models->batch.GetRow(0)[0].string_value(), "scorer");

  // DROP MODEL replicates and invalidates the replica's cached plans.
  ASSERT_TRUE(pair.primary->Execute("DROP MODEL scorer").ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());
  EXPECT_FALSE(pair.replica->Execute(score).ok());
}

TEST(ReplicaTest, AccessListReplicatesAndDenies) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(
      pair.primary->Execute("CREATE TABLE points (id INT, x DOUBLE)").ok());
  ASSERT_TRUE(
      pair.primary->Execute("INSERT INTO points VALUES (1, 1.0), (2, 6.0)")
          .ok());
  ASSERT_TRUE(pair.primary
                  ->DeployModel("scorer", TinyPipeline(), "tester",
                                "tests/repl_test")
                  .ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());
  const char* score = "SELECT id, PREDICT(scorer, x) FROM points";
  sql::ExecOptions mallory;
  mallory.principal = "mallory";
  ASSERT_TRUE(pair.replica->Execute(score, mallory).ok());  // public

  ASSERT_TRUE(pair.primary->SetAccessControl("scorer", {"alice"}).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());
  EXPECT_EQ(pair.replica->Execute(score, mallory).status().code(),
            StatusCode::kPermissionDenied);
  sql::ExecOptions alice;
  alice.principal = "alice";
  auto allowed = pair.replica->Execute(score, alice);
  EXPECT_TRUE(allowed.ok()) << allowed.status().ToString();
  // Access lists change on the primary only.
  EXPECT_EQ(pair.replica->SetAccessControl("scorer", {}).code(),
            StatusCode::kRedirect);
}

TEST(ReplicaTest, WritesAndDdlRedirectToPrimary) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());

  for (const char* sql :
       {"INSERT INTO kv VALUES (99, 1.0, 'x')",
        "UPDATE kv SET v = 0.0 WHERE k = 1", "DELETE FROM kv WHERE k = 1",
        "CREATE TABLE other (id INT)", "DROP TABLE kv"}) {
    auto result = pair.replica->Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kRedirect) << sql;
    EXPECT_NE(result.status().message().find("primary"), std::string::npos);
  }
  // Reads and EXPLAIN stay local.
  EXPECT_TRUE(pair.replica->Execute("SELECT COUNT(*) FROM kv").ok());
  EXPECT_TRUE(
      pair.replica->Execute("EXPLAIN SELECT COUNT(*) FROM kv").ok());
  // Scripts and direct model deploys are write paths too.
  EXPECT_FALSE(
      pair.replica->ExecuteScript("SELECT 1 FROM kv; SELECT 2 FROM kv")
          .ok());
  EXPECT_FALSE(pair.replica
                   ->DeployModel("m", TinyPipeline(), "t", "repl_test")
                   .ok());
  // Nothing leaked through: the replica still matches the primary.
  EXPECT_EQ(Digest(pair.replica.get()), Digest(pair.primary.get()));
}

TEST(ReplicaTest, ServesReadsThatStartWithAComment) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());

  const char* read = "-- note\nSELECT COUNT(*) FROM kv";
  auto on_primary = pair.primary->Execute(read);
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  auto on_replica = pair.replica->Execute(read);
  ASSERT_TRUE(on_replica.ok()) << on_replica.status().ToString();
  EXPECT_EQ(on_replica->batch.ToString(10), on_primary->batch.ToString(10));
  sql::ExecOptions alice;
  alice.principal = "alice";
  EXPECT_TRUE(pair.replica->Execute(read, alice).ok());
  // A comment that spells SELECT does not make a write a read.
  auto write = pair.replica->Execute("-- SELECT\nDELETE FROM kv");
  EXPECT_EQ(write.status().code(), StatusCode::kRedirect);
}

TEST(ReplicaTest, ApplierSeesOnlyCommittedRecordsAfterTornAppend) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  std::string committed = Digest(pair.primary.get());

  // The primary dies mid-append: half a frame lands. The statement never
  // committed, so the replica must not see any part of it.
  wal::FaultInjector::Get()->Arm("wal.append.partial_write",
                                 wal::FaultInjector::Mode::kError);
  EXPECT_FALSE(
      pair.primary->Execute("INSERT INTO kv VALUES (66, 6.0, 'torn')").ok());
  wal::FaultInjector::Get()->Disarm();

  ASSERT_TRUE(pair.applier->CatchUp().ok());
  EXPECT_EQ(Digest(pair.replica.get()), committed);
  EXPECT_TRUE(pair.applier->health().ok());
}

TEST(ReplicaTest, BackgroundStreamingConverges) {
  ReplicaApplierOptions options;
  options.poll_interval_ms = 1;
  ReplicaPair pair = MakePair(options);
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());

  pair.applier->Start();
  pair.applier->Start();  // idempotent
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pair.primary
                    ->Execute("INSERT INTO notes VALUES (" +
                              std::to_string(100 + i) + ", 'bg')")
                    .ok());
  }
  size_t expected = SetupStatements().size() + 10;
  for (int spin = 0; spin < 2000; ++spin) {
    if (pair.applier->records_applied() >= expected &&
        pair.applier->caught_up()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pair.applier->Stop();
  pair.applier->Stop();  // idempotent
  EXPECT_EQ(pair.applier->records_applied(), expected);
  EXPECT_EQ(Digest(pair.replica.get()), Digest(pair.primary.get()));
}

TEST(ReplicaTest, StalenessGateShedsUntilCaughtUp) {
  ReplicaApplierOptions options;
  options.batch_records = 1;  // one record per round: lag is observable
  ReplicaPair pair = MakePair(options);
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());

  // One round: bootstrap + 1 of 7 records. The probe after the partial
  // round must expose the true durable end, i.e. a real lag.
  ASSERT_TRUE(pair.applier->Bootstrap().ok());
  auto round = pair.applier->CatchUpOnce();
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(*round, 1u);
  uint64_t lag = pair.applier->lag_records();
  ASSERT_EQ(lag, SetupStatements().size() - 1);

  // Serve through the replica with a zero-staleness bound: reads shed
  // with Unavailable while behind, admit once caught up. This is the
  // exact read_gate wiring examples/flock_server.cc uses.
  serve::ServerOptions server_options;
  ReplicaApplier* applier = pair.applier.get();
  server_options.read_gate = [applier]() -> Status {
    uint64_t behind = applier->lag_records();
    if (behind == 0) return Status::OK();
    return Status::Unavailable("replica lag " + std::to_string(behind) +
                               " records exceeds staleness bound 0");
  };
  serve::PredictionServer server(pair.replica.get(), server_options);
  serve::LoopbackClient client(&server);
  ASSERT_TRUE(client.status().ok());

  auto stale = client.Execute("SELECT COUNT(*) FROM kv");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(stale.status().message().find("staleness"), std::string::npos);

  ASSERT_TRUE(pair.applier->CatchUp().ok());
  EXPECT_EQ(pair.applier->lag_records(), 0u);
  auto fresh = client.Execute("SELECT COUNT(*) FROM kv");
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  server.Shutdown();
}

TEST(ReplicaTest, ServingPathRedirectsWritesWithRedirectStatus) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());

  serve::PredictionServer server(pair.replica.get());
  serve::LoopbackClient client(&server);
  ASSERT_TRUE(client.status().ok());
  auto write = client.Execute("INSERT INTO kv VALUES (5, 5.0, 'w')");
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), StatusCode::kRedirect);
  auto read = client.Execute("SELECT COUNT(*) FROM kv");
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  server.Shutdown();
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

TEST(ReplMetricsTest, ReplicaAndCoordinatorMetricsExpose) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());

  obs::MetricsRegistry registry;
  RegisterReplicaMetrics(&registry, pair.applier.get());
  ReplicationCoordinator coordinator;
  ASSERT_TRUE(coordinator.AttachPrimary(pair.primary.get()).ok());
  ASSERT_TRUE(coordinator
                  .AddReplica("r1", pair.replica.get(), pair.applier.get())
                  .ok());
  RegisterCoordinatorMetrics(&registry, &coordinator);

  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"repl\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"applied_lsn\": " +
                      std::to_string(SetupStatements().size())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"replica_lag_records\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"replicas\": 1"), std::string::npos);

  std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE flock_repl_records_applied counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("flock_repl_applied_lsn "), std::string::npos);
  EXPECT_NE(prom.find("flock_repl_failovers 0"), std::string::npos);
}

// ---------------------------------------------------------------------
// Coordinator: registration, lags, failover + fencing.
// ---------------------------------------------------------------------

TEST(CoordinatorTest, AttachRequiresADurablePrimary) {
  flock::FlockEngine memory_only(SerialEngineOptions());
  ReplicationCoordinator coordinator;
  EXPECT_FALSE(coordinator.AttachPrimary(&memory_only).ok());
  EXPECT_EQ(coordinator.primary(), nullptr);
}

TEST(CoordinatorTest, RegistrationLagsAndDetach) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  ASSERT_TRUE(pair.applier->CatchUp().ok());

  ReplicationCoordinator coordinator;
  ASSERT_TRUE(coordinator.AttachPrimary(pair.primary.get()).ok());
  EXPECT_EQ(coordinator.primary(), pair.primary.get());

  // Only replica-mode engines register as replicas.
  EXPECT_FALSE(coordinator
                   .AddReplica("bad", pair.primary.get(), pair.applier.get())
                   .ok());
  ASSERT_TRUE(coordinator
                  .AddReplica("r1", pair.replica.get(), pair.applier.get())
                  .ok());
  EXPECT_EQ(coordinator
                .AddReplica("r1", pair.replica.get(), pair.applier.get())
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(coordinator.num_replicas(), 1u);

  std::vector<ReplicaLag> lags = coordinator.Lags();
  ASSERT_EQ(lags.size(), 1u);
  EXPECT_EQ(lags[0].name, "r1");
  EXPECT_EQ(lags[0].lag_records, 0u);
  EXPECT_TRUE(lags[0].caught_up);
  EXPECT_EQ(lags[0].applied.lsn, SetupStatements().size());
  EXPECT_EQ(lags[0].health, "OK");

  ASSERT_TRUE(coordinator.Detach("r1").ok());
  EXPECT_EQ(coordinator.num_replicas(), 0u);
  EXPECT_EQ(coordinator.Detach("r1").code(), StatusCode::kNotFound);
}

TEST(CoordinatorTest, PromoteUnknownReplicaIsNotFound) {
  ReplicationCoordinator coordinator;
  EXPECT_EQ(coordinator.Promote("ghost", MakeTempDir()).code(),
            StatusCode::kNotFound);
}

TEST(CoordinatorTest, FailoverPromotesCaughtUpReplicaAndFencesOldPrimary) {
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());
  std::string committed = Digest(pair.primary.get());
  uint64_t old_epoch = pair.primary->durability()->epoch();

  ReplicationCoordinator coordinator;
  ASSERT_TRUE(coordinator.AttachPrimary(pair.primary.get()).ok());
  ASSERT_TRUE(coordinator
                  .AddReplica("r1", pair.replica.get(), pair.applier.get())
                  .ok());
  // Replica is mid-stream (not caught up) when the primary dies.
  ASSERT_TRUE(pair.applier->Bootstrap().ok());

  pair.primary.reset();  // the primary process is gone; files remain
  coordinator.DetachPrimary();

  // Promote drains the remaining log from the dead primary's directory,
  // then turns the replica durable in a fresh dir with a fenced epoch.
  std::string new_dir = MakeTempDir();
  Status promoted = coordinator.Promote("r1", new_dir);
  ASSERT_TRUE(promoted.ok()) << promoted.ToString();
  EXPECT_EQ(coordinator.failovers(), 1u);
  EXPECT_EQ(coordinator.num_replicas(), 0u);
  EXPECT_EQ(coordinator.primary(), pair.replica.get());
  EXPECT_GE(coordinator.fence_epoch(), old_epoch);

  // No committed write was lost, and the promoted node is a full
  // primary: durable, writable, and strictly ahead of the old epoch.
  EXPECT_FALSE(pair.replica->replica());
  EXPECT_TRUE(pair.replica->durable());
  EXPECT_EQ(Digest(pair.replica.get()), committed);
  EXPECT_GT(pair.replica->durability()->epoch(), old_epoch);
  ASSERT_TRUE(
      pair.replica->Execute("INSERT INTO kv VALUES (11, 1.1, 'post')").ok());

  // The deposed primary's files reopen fine — but the coordinator
  // refuses to re-attach it: its epoch is at or below the fence.
  flock::FlockEngine deposed(SerialEngineOptions());
  ASSERT_TRUE(deposed.Open(pair.dir).ok());
  Status attach = coordinator.AttachPrimary(&deposed);
  ASSERT_FALSE(attach.ok());
  EXPECT_EQ(attach.code(), StatusCode::kAborted);
  EXPECT_NE(attach.message().find("fenced"), std::string::npos);

  // The promoted primary re-attaches, and its state survives restart.
  ASSERT_TRUE(coordinator.AttachPrimary(pair.replica.get()).ok());
  std::string after = Digest(pair.replica.get());
  pair.replica.reset();
  flock::FlockEngine restarted(SerialEngineOptions());
  ASSERT_TRUE(restarted.Open(new_dir).ok());
  EXPECT_EQ(Digest(&restarted), after);
}

TEST(CoordinatorTest, PromotedReplicaCanSeedANewReplica) {
  // The full failover circle: primary -> replica -> promoted primary ->
  // fresh replica streaming from the promoted node's directory.
  ReplicaPair pair = MakePair();
  ASSERT_TRUE(RunStatements(pair.primary.get(), SetupStatements()).ok());

  ReplicationCoordinator coordinator;
  ASSERT_TRUE(coordinator.AttachPrimary(pair.primary.get()).ok());
  ASSERT_TRUE(coordinator
                  .AddReplica("r1", pair.replica.get(), pair.applier.get())
                  .ok());
  pair.primary.reset();
  coordinator.DetachPrimary();
  std::string new_dir = MakeTempDir();
  ASSERT_TRUE(coordinator.Promote("r1", new_dir).ok());
  ASSERT_TRUE(
      pair.replica->Execute("INSERT INTO kv VALUES (12, 2.1, 'new')").ok());

  flock::FlockEngine second(SerialEngineOptions());
  ASSERT_TRUE(second.OpenAsReplica().ok());
  ReplicationPublisher publisher(new_dir);
  ReplicaApplier applier(&second, &publisher);
  ASSERT_TRUE(applier.CatchUp().ok());
  EXPECT_EQ(Digest(&second), Digest(pair.replica.get()));
}

}  // namespace
}  // namespace flock::repl
