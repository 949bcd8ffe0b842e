// Unit tests for the WAL layer: record codec, frame format, torn-tail
// semantics, fsync policies (incl. concurrent appenders sharing one
// fsync, exercised under TSan by scripts/check.sh), resume, fault
// injection in error mode, and snapshot encode/decode.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "storage/record_batch.h"
#include "storage/schema.h"
#include "storage/serialization.h"
#include "storage/value.h"
#include "wal/checkpoint.h"
#include "wal/fault_injector.h"
#include "wal/recovery.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"
#include "wal/wal_record.h"
#include "wal/wal_writer.h"
#include "wal_records.h"

namespace flock::wal {
namespace {

using storage::ColumnDef;
using storage::DataType;
using storage::RecordBatch;
using storage::Schema;
using storage::Value;

/// Fresh unique temp directory per test (left behind on failure for
/// post-mortem; /tmp is scratch in CI).
std::string MakeTempDir() {
  char tmpl[] = "/tmp/flock_wal_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectRolloutsEqual(const RolloutSnapshot& a, const RolloutSnapshot& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.canary_permille, b.canary_permille);
  EXPECT_EQ(a.candidate_pipeline_text, b.candidate_pipeline_text);
  EXPECT_EQ(a.initiated_by, b.initiated_by);
  EXPECT_EQ(a.live_version, b.live_version);
  EXPECT_EQ(a.max_divergence_rate, b.max_divergence_rate);
  EXPECT_EQ(a.max_latency_regression, b.max_latency_regression);
  EXPECT_EQ(a.max_drift_score, b.max_drift_score);
  EXPECT_EQ(a.min_observations, b.min_observations);
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  ASSERT_EQ(a.type, b.type) << WalRecordTypeName(a.type);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.schema == b.schema, true);
  EXPECT_EQ(a.batch.ToString(), b.batch.ToString());
  EXPECT_EQ(a.column, b.column);
  EXPECT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_TRUE(a.values[i] == b.values[i]);
  }
  EXPECT_EQ(a.keep, b.keep);
  EXPECT_EQ(a.pipeline_text, b.pipeline_text);
  EXPECT_EQ(a.created_by, b.created_by);
  EXPECT_EQ(a.lineage, b.lineage);
  EXPECT_EQ(a.principal, b.principal);
  EXPECT_EQ(a.timeline.seq, b.timeline.seq);
  EXPECT_EQ(a.timeline.policy, b.timeline.policy);
  EXPECT_EQ(a.timeline.action, b.timeline.action);
  EXPECT_EQ(a.timeline.before, b.timeline.before);
  EXPECT_EQ(a.timeline.after, b.timeline.after);
  EXPECT_EQ(a.timeline.rejected, b.timeline.rejected);
  EXPECT_EQ(a.timeline.context, b.timeline.context);
  EXPECT_EQ(a.entity.id, b.entity.id);
  EXPECT_EQ(a.entity.type, b.entity.type);
  EXPECT_EQ(a.entity.name, b.entity.name);
  EXPECT_EQ(a.entity.version, b.entity.version);
  EXPECT_EQ(a.edge.src, b.edge.src);
  EXPECT_EQ(a.edge.dst, b.edge.dst);
  EXPECT_EQ(a.edge.type, b.edge.type);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);
  ExpectRolloutsEqual(a.rollout, b.rollout);
  EXPECT_EQ(a.principals, b.principals);
}

/// A log drained by the one reader to the end of its durable prefix, in
/// bounded polls the way recovery drains it.
struct DrainedLog {
  Status status;
  uint64_t epoch = 0;
  std::vector<WalRecord> records;
  uint64_t valid_size = 0;      // the reader's cursor
  bool tail_truncated = false;  // bytes remain past the cursor
};

DrainedLog DrainLog(const std::string& path) {
  DrainedLog log;
  WalReader reader(path);
  while (true) {
    auto polled = reader.Poll(4);
    if (!polled.ok()) {
      log.status = polled.status();
      break;
    }
    for (WalRecord& record : polled->records) {
      log.records.push_back(std::move(record));
    }
    if (polled->end_of_durable_log) break;
  }
  log.epoch = reader.epoch();
  log.valid_size = reader.offset();
  log.tail_truncated = log.valid_size < ReadFile(path).size();
  return log;
}

std::vector<std::string> Names(const std::vector<WalRecord>& records) {
  std::vector<std::string> names;
  for (const WalRecord& record : records) names.push_back(record.name);
  return names;
}

TEST(WalRecordTest, PayloadRoundTripAllTypes) {
  for (const WalRecord& record : AllRecordTypes()) {
    std::string body = EncodeRecordBody(record);
    EXPECT_EQ(static_cast<uint8_t>(body[0]),
              static_cast<uint8_t>(record.type));
    auto decoded = DecodeRecordBody(body);
    ASSERT_TRUE(decoded.ok())
        << WalRecordTypeName(record.type) << ": "
        << decoded.status().ToString();
    ExpectRecordsEqual(record, *decoded);
  }
}

TEST(WalRecordTest, TruncatedPayloadIsDataLoss) {
  for (const WalRecord& record : AllRecordTypes()) {
    std::string body = EncodeRecordBody(record);
    auto decoded =
        DecodeRecordBody(std::string_view(body).substr(0, body.size() - 1));
    ASSERT_FALSE(decoded.ok()) << WalRecordTypeName(record.type);
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  EXPECT_EQ(DecodeRecordBody("").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeRecordBody("\x63").status().code(),
            StatusCode::kDataLoss);  // unknown type tag
}

TEST(WalRecordTest, TrailingBytesAreDataLoss) {
  WalRecord record = WalRecord::DropTable("t");
  std::string body = EncodeRecordBody(record) + "x";
  auto decoded = DecodeRecordBody(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// The shared sub-codecs hold the only enum range checks, so an
// out-of-range tag fails at decode, before any replay sees it.
TEST(WalRecordTest, OutOfRangeEnumTagsAreDataLossAtDecode) {
  const std::vector<WalRecord> records = AllRecordTypes();
  struct Case {
    WalRecordType type;
    size_t tag_offset;  // of the enum byte within the body
  };
  const Case cases[] = {
      {WalRecordType::kPolicyAction, 1 + 8 + 4 + 5},  // seq, "clamp"
      {WalRecordType::kProvEntity, 1 + 8},            // id
      {WalRecordType::kProvEdge, 1 + 8 + 8},          // src, dst
      {WalRecordType::kRolloutState, 1 + 4 + 5},      // "churn"
  };
  for (const Case& c : cases) {
    for (const WalRecord& record : records) {
      if (record.type != c.type) continue;
      std::string body = EncodeRecordBody(record);
      ASSERT_TRUE(DecodeRecordBody(body).ok());
      body[c.tag_offset] = static_cast<char>(0x7f);
      EXPECT_EQ(DecodeRecordBody(body).status().code(),
                StatusCode::kDataLoss)
          << WalRecordTypeName(c.type);
    }
  }
}

TEST(WalWriterTest, WriteThenReadBack) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kEveryRecord;
  auto writer_or = WalWriter::Create(path, 3, options);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  std::vector<WalRecord> records = AllRecordTypes();
  for (const WalRecord& record : records) {
    ASSERT_TRUE((*writer_or)->Append(record).ok());
  }
  EXPECT_EQ((*writer_or)->records_appended(), records.size());
  EXPECT_GE((*writer_or)->syncs(), records.size());  // one per append
  writer_or->reset();

  DrainedLog log = DrainLog(path);
  ASSERT_TRUE(log.status.ok()) << log.status.ToString();
  EXPECT_EQ(log.epoch, 3u);
  ASSERT_EQ(log.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], log.records[i]);
  }
  EXPECT_FALSE(log.tail_truncated);
}

TEST(WalWriterTest, EveryFsyncPolicyRoundTrips) {
  for (FsyncPolicy policy :
       {FsyncPolicy::kEveryRecord, FsyncPolicy::kNever}) {
    std::string dir = MakeTempDir();
    std::string path = dir + "/wal.log";
    WalWriterOptions options;
    options.fsync_policy = policy;
    auto writer_or = WalWriter::Create(path, 1, options);
    ASSERT_TRUE(writer_or.ok()) << FsyncPolicyName(policy);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*writer_or)
                      ->Append(WalRecord::DropTable(
                          StrCat("t", std::to_string(i))))
                      .ok());
    }
    writer_or->reset();
    DrainedLog log = DrainLog(path);
    ASSERT_TRUE(log.status.ok());
    for (size_t i = 0; i < log.records.size(); ++i) {
      EXPECT_EQ(log.records[i].name, StrCat("t", std::to_string(i)));
    }
    EXPECT_EQ(log.records.size(), 20u) << FsyncPolicyName(policy);
  }
}

// The TSan target in scripts/check.sh runs this: many threads appending
// under kEveryRecord, each waiting on whichever appender leads the fsync
// that covers its frame.
TEST(WalWriterTest, GroupCommitConcurrentAppends) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kEveryRecord;
  auto writer_or = WalWriter::Create(path, 1, options);
  ASSERT_TRUE(writer_or.ok());
  WalWriter* writer = writer_or->get();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([writer, t, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        WalRecord record = WalRecord::ProvProperty(
            static_cast<uint64_t>(t), "i", std::to_string(i));
        if (!writer->Append(record).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(writer->records_appended(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(writer->epoch_records(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LE(writer->syncs(), static_cast<uint64_t>(kThreads * kPerThread));
  writer_or->reset();

  DrainedLog log = DrainLog(path);
  ASSERT_TRUE(log.status.ok());
  EXPECT_EQ(log.records.size(), static_cast<size_t>(kThreads * kPerThread));
}

// A failed fsync fails every appender whose frame it was to cover, and
// every later one. Only frames that a completed fsync covered count as
// appended, and those are the log's prefix.
TEST(WalWriterTest, GroupCommitFailedFsyncFailsEveryAppenderItCovers) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  auto writer_or = WalWriter::Create(path, 1, {});
  ASSERT_TRUE(writer_or.ok());
  WalWriter* writer = writer_or->get();

  // Each appender has at most one frame in flight, so 20 fsyncs cover at
  // most 80 of the 200 frames and the 21st fsync always happens.
  constexpr int kSkip = 20;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  FaultInjector::Get()->Arm("wal.append.before_fsync",
                            FaultInjector::Mode::kError, kSkip);
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([writer, t, &acked] {
      for (int i = 0; i < kPerThread; ++i) {
        WalRecord record = WalRecord::ProvProperty(
            static_cast<uint64_t>(t), "i", std::to_string(i));
        if (writer->Append(record).ok()) acked.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  FaultInjector::Get()->Disarm();

  EXPECT_EQ(writer->syncs(), static_cast<uint64_t>(kSkip));
  EXPECT_GE(acked.load(), static_cast<uint64_t>(kSkip));
  EXPECT_LE(acked.load(), static_cast<uint64_t>(kSkip * kThreads));
  EXPECT_EQ(writer->records_appended(), acked.load());
  EXPECT_EQ(writer->epoch_records(), acked.load());
  EXPECT_FALSE(writer->Sync().ok());
  writer_or->reset();

  DrainedLog log = DrainLog(path);
  ASSERT_TRUE(log.status.ok());
  EXPECT_GE(log.records.size(), acked.load());
}

TEST(WalWriterTest, ResumeAppendsAfterIntactPrefix) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  auto writer_or = WalWriter::Create(path, 2, {});
  ASSERT_TRUE(writer_or.ok());
  ASSERT_TRUE((*writer_or)->Append(WalRecord::DropTable("a")).ok());
  writer_or->reset();

  // Simulate a torn tail: half a frame of garbage at the end.
  std::string contents = ReadFile(path);
  WriteFile(path, contents + std::string(5, '\x7f'));

  DrainedLog torn = DrainLog(path);
  ASSERT_TRUE(torn.status.ok());
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_TRUE(torn.tail_truncated);
  uint64_t valid = torn.valid_size;
  EXPECT_EQ(valid, contents.size());

  // Resume truncates the torn tail and appends cleanly after it.
  auto resumed_or = WalWriter::Resume(path, 2, valid, {});
  ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();
  ASSERT_TRUE((*resumed_or)->Append(WalRecord::DropTable("b")).ok());
  resumed_or->reset();

  DrainedLog reread = DrainLog(path);
  ASSERT_TRUE(reread.status.ok());
  EXPECT_EQ(Names(reread.records), (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(reread.tail_truncated);
}

TEST(WalReaderTest, TornFinalCrcIsDroppedButMidLogCrcIsDataLoss) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  auto writer_or = WalWriter::Create(path, 1, {});
  ASSERT_TRUE(writer_or.ok());
  ASSERT_TRUE((*writer_or)->Append(WalRecord::DropTable("first")).ok());
  ASSERT_TRUE((*writer_or)->Append(WalRecord::DropTable("second")).ok());
  writer_or->reset();
  const std::string intact = ReadFile(path);

  // Flip a payload bit in the FINAL record: torn tail, dropped.
  std::string tail_damage = intact;
  tail_damage.back() ^= 0x1;
  WriteFile(path, tail_damage);
  DrainedLog torn = DrainLog(path);
  ASSERT_TRUE(torn.status.ok());
  EXPECT_EQ(Names(torn.records), (std::vector<std::string>{"first"}));
  EXPECT_TRUE(torn.tail_truncated);

  // The same bit flip in the FIRST record is mid-log: DataLoss.
  std::string mid_damage = intact;
  mid_damage[kWalHeaderSize + kRecordHeaderSize + 2] ^= 0x1;
  WriteFile(path, mid_damage);
  WalReader header_only(path);
  ASSERT_TRUE(header_only.Poll(0).ok());  // header is fine
  Status st = DrainLog(path).status;  // damage surfaces on the records
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(WalReaderTest, TruncatedHeaderIsDataLoss) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WriteFile(path, "FLOCKW");  // shorter than the 20-byte header
  // To the reader a short header is a log still being created...
  EXPECT_EQ(WalReader(path).Poll(1).status().code(),
            StatusCode::kUnavailable);
  // ...but next to a snapshot (a checkpoint already cut this log) it is
  // damage, and recovery refuses it.
  SnapshotData snapshot;
  snapshot.epoch = 1;
  ASSERT_TRUE(CheckpointManager(dir).Write(snapshot).ok());
  storage::Database db;
  auto recovered = RecoveryManager(dir, &db, nullptr, nullptr, {}).Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

TEST(WalWriterTest, ResetForEpochCutsFreshLog) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  auto writer_or = WalWriter::Create(path, 1, {});
  ASSERT_TRUE(writer_or.ok());
  ASSERT_TRUE((*writer_or)->Append(WalRecord::DropTable("old")).ok());
  ASSERT_TRUE((*writer_or)->ResetForEpoch(2).ok());
  EXPECT_EQ((*writer_or)->epoch(), 2u);
  ASSERT_TRUE((*writer_or)->Append(WalRecord::DropTable("new")).ok());
  writer_or->reset();

  DrainedLog log = DrainLog(path);
  ASSERT_TRUE(log.status.ok());
  EXPECT_EQ(log.epoch, 2u);
  // The pre-reset record is gone.
  EXPECT_EQ(Names(log.records), (std::vector<std::string>{"new"}));
}

TEST(FaultInjectorTest, ErrorModeWedgesTheWriterStickily) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  auto writer_or = WalWriter::Create(path, 1, {});
  ASSERT_TRUE(writer_or.ok());
  ASSERT_TRUE((*writer_or)->Append(WalRecord::DropTable("ok")).ok());

  FaultInjector::Get()->Arm("wal.append.before_write",
                            FaultInjector::Mode::kError);
  Status st = (*writer_or)->Append(WalRecord::DropTable("fails"));
  FaultInjector::Get()->Disarm();
  ASSERT_FALSE(st.ok());

  // Sticky: the injector disarmed after one shot, but the writer stays
  // wedged with the first error.
  Status again = (*writer_or)->Append(WalRecord::DropTable("still-fails"));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.ToString(), st.ToString());
  writer_or->reset();

  // Only the pre-fault record is on disk.
  DrainedLog log = DrainLog(path);
  ASSERT_TRUE(log.status.ok());
  EXPECT_EQ(Names(log.records), (std::vector<std::string>{"ok"}));
}

TEST(FaultInjectorTest, SkipCountDelaysTheFault) {
  FaultInjector* injector = FaultInjector::Get();
  injector->Arm("wal.append.before_write", FaultInjector::Mode::kError, 2);
  EXPECT_TRUE(injector->Hit("wal.append.before_write").ok());  // skip 1
  EXPECT_TRUE(injector->Hit("other.point").ok());              // no match
  EXPECT_TRUE(injector->Hit("wal.append.before_write").ok());  // skip 2
  EXPECT_FALSE(injector->Hit("wal.append.before_write").ok()); // fires
  // One-shot: disarmed after firing.
  EXPECT_TRUE(injector->Hit("wal.append.before_write").ok());
  EXPECT_FALSE(injector->armed());
}

TEST(FaultInjectorTest, PointsListsWritePathThenCheckpointPath) {
  const std::vector<std::string>& points = FaultInjector::Points();
  ASSERT_EQ(points.size(), 9u);
  EXPECT_EQ(points.front(), "wal.append.before_write");
  EXPECT_EQ(points.back(), "checkpoint.after_wal_reset");
  // The segment-flush point sits between snapshot write and rename, so the
  // crash matrix exercises a torn checkpoint image with flushed segments.
  EXPECT_EQ(points[5], "checkpoint.after_segment_flush");
}

SnapshotData SampleSnapshot() {
  SnapshotData data;
  data.epoch = 9;
  TableSnapshot table;
  table.name = "t";
  table.schema = TwoColSchema();
  table.segment_capacity = 4;
  table.segments.push_back(SmallBatch());
  data.tables.push_back(std::move(table));
  ModelSnapshot model;
  model.name = "churn";
  model.version = 4;
  model.pipeline_text = "pipe";
  model.created_by = "alice";
  model.lineage = "train.py";
  model.allowed_principals = {"alice", "bob"};
  data.models.push_back(std::move(model));
  AuditEventSnapshot audit;
  audit.kind = 1;
  audit.model = "churn";
  audit.principal = "alice";
  audit.version = 4;
  audit.rows = 100;
  data.audit.push_back(audit);
  policy::TimelineEntry entry;
  entry.seq = 11;
  entry.policy = "clamp";
  entry.before = 0.9;
  entry.after = 0.5;
  entry.rejected = true;
  entry.context = "ctx";
  data.timeline.push_back(entry);
  data.policy_next_seq = 12;
  prov::Entity entity;
  entity.id = 1;
  entity.type = prov::EntityType::kModel;
  entity.name = "churn";
  entity.version = 4;
  entity.properties = {{"auc", "0.91"}};
  data.entities.push_back(entity);
  data.edges.push_back({1, 1, prov::EdgeType::kVersionOf});
  return data;
}

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  SnapshotData data = SampleSnapshot();
  auto decoded = DecodeSnapshot(EncodeSnapshot(data));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 9u);
  ASSERT_EQ(decoded->tables.size(), 1u);
  EXPECT_EQ(decoded->tables[0].name, "t");
  EXPECT_TRUE(decoded->tables[0].schema == data.tables[0].schema);
  EXPECT_EQ(decoded->tables[0].segment_capacity, 4u);
  ASSERT_EQ(decoded->tables[0].segments.size(), 1u);
  EXPECT_EQ(decoded->tables[0].segments[0].ToString(),
            data.tables[0].segments[0].ToString());
  ASSERT_EQ(decoded->models.size(), 1u);
  EXPECT_EQ(decoded->models[0].name, "churn");
  EXPECT_EQ(decoded->models[0].allowed_principals,
            data.models[0].allowed_principals);
  ASSERT_EQ(decoded->audit.size(), 1u);
  EXPECT_EQ(decoded->audit[0].principal, "alice");
  ASSERT_EQ(decoded->timeline.size(), 1u);
  EXPECT_EQ(decoded->timeline[0].seq, 11u);
  EXPECT_EQ(decoded->timeline[0].rejected, true);
  EXPECT_EQ(decoded->policy_next_seq, 12u);
  ASSERT_EQ(decoded->entities.size(), 1u);
  EXPECT_EQ(decoded->entities[0].type, prov::EntityType::kModel);
  EXPECT_EQ(decoded->entities[0].properties.at("auc"), "0.91");
  ASSERT_EQ(decoded->edges.size(), 1u);
  EXPECT_EQ(decoded->edges[0].type, prov::EdgeType::kVersionOf);
}

// Hand-encodes a version-1 snapshot image: one table stored as a single
// monolithic batch with no segment metadata (the pre-segmentation format).
std::string EncodeV1Snapshot(const RecordBatch& rows) {
  std::string payload;
  storage::PutU32(&payload, 1);  // format version 1
  storage::PutU64(&payload, 9);  // epoch
  storage::PutU32(&payload, 1);  // one table
  storage::PutString(&payload, "t");
  storage::SerializeSchema(TwoColSchema(), &payload);
  storage::SerializeBatch(rows, &payload);
  storage::PutU32(&payload, 0);  // models
  storage::PutU32(&payload, 0);  // audit events
  storage::PutU64(&payload, 0);  // policy next seq
  storage::PutU32(&payload, 0);  // timeline
  storage::PutU32(&payload, 0);  // entities
  storage::PutU32(&payload, 0);  // edges
  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.append(payload);
  storage::PutU32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

TEST(SnapshotTest, VersionOneImageStillDecodes) {
  auto decoded = DecodeSnapshot(EncodeV1Snapshot(SmallBatch()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->tables.size(), 1u);
  const TableSnapshot& t = decoded->tables[0];
  // Capacity 0 marks a v1 image: restore repacks at the catalog default.
  EXPECT_EQ(t.segment_capacity, 0u);
  ASSERT_EQ(t.segments.size(), 1u);
  EXPECT_EQ(t.segments[0].ToString(), SmallBatch().ToString());
}

TEST(SnapshotTest, VersionOneEmptyTableDecodesToNoSegments) {
  auto decoded = DecodeSnapshot(EncodeV1Snapshot(RecordBatch(TwoColSchema())));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->tables.size(), 1u);
  EXPECT_TRUE(decoded->tables[0].segments.empty());
}

TEST(SnapshotTest, MultiSegmentTableRoundTrips) {
  SnapshotData data;
  data.epoch = 3;
  TableSnapshot table;
  table.name = "t";
  table.schema = TwoColSchema();
  table.segment_capacity = 2;
  for (int s = 0; s < 3; ++s) {
    RecordBatch seg(TwoColSchema());
    EXPECT_TRUE(
        seg.AppendRow({Value::Int(2 * s), Value::Double(s * 0.5)}).ok());
    if (s < 2) {  // last segment half-full, like a live open segment
      EXPECT_TRUE(seg.AppendRow({Value::Int(2 * s + 1), Value::Null()}).ok());
    }
    table.segments.push_back(std::move(seg));
  }
  data.tables.push_back(std::move(table));
  auto decoded = DecodeSnapshot(EncodeSnapshot(data));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const TableSnapshot& t = decoded->tables[0];
  EXPECT_EQ(t.segment_capacity, 2u);
  ASSERT_EQ(t.segments.size(), 3u);
  EXPECT_EQ(t.segments[0].num_rows(), 2u);
  EXPECT_EQ(t.segments[2].num_rows(), 1u);
  EXPECT_EQ(t.segments[2].column(0)->int_at(0), 4);
}

TEST(SnapshotTest, ZeroSegmentCapacityInV2ImageIsDataLoss) {
  SnapshotData data = SampleSnapshot();
  data.tables[0].segment_capacity = 0;  // corrupt: v2 requires a capacity
  auto decoded = DecodeSnapshot(EncodeSnapshot(data));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotTest, FutureFormatVersionIsDataLoss) {
  std::string payload;
  storage::PutU32(&payload, kSnapshotFormatVersion + 1);
  storage::PutU64(&payload, 1);
  std::string buf(kSnapshotMagic, sizeof(kSnapshotMagic));
  buf.append(payload);
  storage::PutU32(&buf, Crc32(payload.data(), payload.size()));
  auto decoded = DecodeSnapshot(buf);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotTest, CorruptedPayloadIsDataLoss) {
  std::string buf = EncodeSnapshot(SampleSnapshot());
  buf[buf.size() / 2] ^= 0x1;
  auto decoded = DecodeSnapshot(buf);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotTest, CheckpointManagerWritesAtomicallyAndReadsBack) {
  std::string dir = MakeTempDir();
  CheckpointManager manager(dir);
  EXPECT_EQ(manager.Read().status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(manager.Write(SampleSnapshot()).ok());
  auto read = manager.Read();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->epoch, 9u);
  // No temp file left behind.
  std::ifstream tmp(manager.temp_path());
  EXPECT_FALSE(tmp.good());
}

// ---------------------------------------------------------------------
// WalReader tailing a *live* log (replication).
// ---------------------------------------------------------------------

TEST(WalTailReaderTest, PollIsNotFoundUntilTheLogExists) {
  std::string dir = MakeTempDir();
  WalReader tail(dir + "/wal.log");
  auto poll = tail.Poll(10);
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), StatusCode::kNotFound);
}

TEST(WalTailReaderTest, TailsALiveWriterIncrementally) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->Append(WalRecord::CreateTable("t", TwoColSchema())).ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::AppendBatch("t", SmallBatch())).ok());

  WalReader tail(path);
  auto first = tail.Poll(10);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->records.size(), 2u);
  EXPECT_TRUE(first->end_of_durable_log);
  EXPECT_EQ(tail.epoch(), 1u);
  EXPECT_EQ(tail.next_lsn(), 2u);

  // The writer keeps appending; the next poll picks up only the delta.
  ASSERT_TRUE((*writer)->Append(WalRecord::DeleteRows("t", {0})).ok());
  auto second = tail.Poll(10);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->records.size(), 1u);
  EXPECT_EQ(second->records[0].type, WalRecordType::kDeleteRows);
  EXPECT_EQ(tail.next_lsn(), 3u);

  // max_records bounds a round without losing position.
  ASSERT_TRUE((*writer)->Append(WalRecord::DeleteRows("t", {1})).ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::DropTable("t")).ok());
  auto capped = tail.Poll(1);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->records.size(), 1u);
  EXPECT_FALSE(capped->end_of_durable_log);
  auto rest = tail.Poll(10);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->records.size(), 1u);
  EXPECT_TRUE(rest->end_of_durable_log);
}

TEST(WalTailReaderTest, TornTailIsEndOfDurableLogNotAnError) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->Append(WalRecord::CreateTable("t", TwoColSchema())).ok());

  // A half-written frame at the tail: to a tailing replica this is a
  // record still in flight, not corruption — retried, never truncated.
  AppendBytes(path, std::string("\x40\x00\x00\x00\xaa\xbb", 6));
  WalReader tail(path);
  auto poll = tail.Poll(10);
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  EXPECT_EQ(poll->records.size(), 1u);
  EXPECT_TRUE(poll->end_of_durable_log);

  // The condition is not sticky: polling again is still fine.
  auto again = tail.Poll(10);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->records.empty());
  EXPECT_TRUE(again->end_of_durable_log);
}

TEST(WalTailReaderTest, InjectedPartialWriteReadsAsEndOfDurableLog) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->Append(WalRecord::CreateTable("t", TwoColSchema())).ok());

  // The injector tears the next append mid-frame (half the bytes land),
  // exactly what a live tail sees when the primary dies mid-write.
  FaultInjector::Get()->Arm("wal.append.partial_write",
                            FaultInjector::Mode::kError);
  EXPECT_FALSE(
      (*writer)->Append(WalRecord::AppendBatch("t", SmallBatch())).ok());
  FaultInjector::Get()->Disarm();

  WalReader tail(path);
  auto poll = tail.Poll(10);
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  EXPECT_EQ(poll->records.size(), 1u);  // only the committed record
  EXPECT_TRUE(poll->end_of_durable_log);
}

TEST(WalTailReaderTest, MidLogDamageIsStillDataLoss) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->Append(WalRecord::CreateTable("t", TwoColSchema())).ok());
  size_t first_end = ReadFile(path).size();
  ASSERT_TRUE((*writer)->Append(WalRecord::AppendBatch("t", SmallBatch())).ok());
  writer->reset();

  // Flip a byte inside the *first* record: damage before the tail frame
  // is real corruption, not an in-flight append.
  std::string bytes = ReadFile(path);
  bytes[first_end - 3] ^= 0x5a;
  WriteFile(path, bytes);

  WalReader tail(path);
  auto poll = tail.Poll(10);
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), StatusCode::kDataLoss);
}

TEST(WalTailReaderTest, CheckpointEpochSwapIsReported) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->Append(WalRecord::CreateTable("t", TwoColSchema())).ok());

  WalReader tail(path);
  ASSERT_TRUE(tail.Poll(10).ok());
  EXPECT_EQ(tail.epoch(), 1u);

  // Checkpoint: the file is atomically replaced under a bumped epoch.
  ASSERT_TRUE((*writer)->ResetForEpoch(2).ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::DropTable("t")).ok());

  auto swapped = tail.Poll(10);
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(swapped->epoch_changed);
  EXPECT_TRUE(swapped->records.empty());  // cursor reset, nothing consumed
  EXPECT_EQ(tail.epoch(), 2u);
  EXPECT_EQ(tail.next_lsn(), 0u);

  auto fresh = tail.Poll(10);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->records.size(), 1u);
  EXPECT_EQ(fresh->records[0].type, WalRecordType::kDropTable);
}

TEST(WalTailReaderTest, SeekRepositionsWithinTheDurablePrefix) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 3, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*writer)
            ->Append(WalRecord::DropModel("m" + std::to_string(i), "p"))
            .ok());
  }

  WalReader tail(path);
  ASSERT_TRUE(tail.Seek(2).ok());
  EXPECT_EQ(tail.epoch(), 3u);
  auto poll = tail.Poll(10);
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll->records.size(), 2u);
  EXPECT_EQ(poll->records[0].name, "m2");

  // Seeking past the durable log is OutOfRange (the caller re-bootstraps
  // or waits, depending on which side of the epoch it is on).
  EXPECT_EQ(tail.Seek(9).code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------
// Replay into real components (shared by the compatibility and sweep
// tests below).
// ---------------------------------------------------------------------

/// The components a recovery replays into, with the registry callbacks
/// recorded instead of applied.
struct ReplayedState {
  storage::Database db;
  prov::Catalog catalog;
  policy::PolicyEngine policy;
  std::vector<std::string> model_calls;
  std::vector<AuditEventSnapshot> audit;
  std::vector<RolloutSnapshot> rollouts;

  EngineStateAdapter Adapter() {
    EngineStateAdapter adapter;
    adapter.replay_deploy = [this](const std::string& name,
                                   const std::string& pipeline_text,
                                   const std::string& created_by,
                                   const std::string& lineage) {
      model_calls.push_back("deploy " + name + " " + pipeline_text + " " +
                            created_by + " " + lineage);
      return Status::OK();
    };
    adapter.replay_drop = [this](const std::string& name,
                                 const std::string& principal) {
      model_calls.push_back("drop " + name + " " + principal);
      return Status::OK();
    };
    adapter.replay_access_control =
        [this](const std::string& name,
               const std::vector<std::string>& principals) {
          std::string call = "acl " + name;
          for (const std::string& p : principals) call += " " + p;
          model_calls.push_back(call);
          return Status::OK();
        };
    adapter.restore_model = [this](const ModelSnapshot& m) {
      model_calls.push_back("restore " + m.name + " " +
                            std::to_string(m.version));
      return Status::OK();
    };
    adapter.restore_audit = [this](std::vector<AuditEventSnapshot> events) {
      audit = std::move(events);
    };
    adapter.apply_rollout = [this](const RolloutSnapshot& rollout) {
      rollouts.push_back(rollout);
      return Status::OK();
    };
    return adapter;
  }

  StatusOr<RecoveryResult> Recover(const std::string& dir) {
    return RecoveryManager(dir, &db, &catalog, &policy, Adapter())
        .Recover();
  }
};

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16));
  }
  return bytes;
}

/// Writes `records` as a fresh epoch-1 log; returns its bytes.
std::string WriteRecords(const std::string& path,
                         const std::vector<WalRecord>& records) {
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 1, options);
  EXPECT_TRUE(writer.ok());
  for (const WalRecord& record : records) {
    EXPECT_TRUE((*writer)->Append(record).ok());
  }
  writer->reset();
  return ReadFile(path);
}

std::string WriteAllRecordTypes(const std::string& path) {
  return WriteRecords(path, AllRecordTypes());
}

/// Offsets where the header and then each frame of `log` end, read from
/// the length words of an intact log.
std::vector<size_t> FrameEnds(const std::string& log) {
  std::vector<size_t> ends = {kWalHeaderSize};
  while (ends.back() < log.size()) {
    storage::ByteReader frame(log.data() + ends.back(), 4);
    uint32_t len = 0;
    EXPECT_TRUE(frame.GetU32(&len).ok());
    ends.push_back(ends.back() + kRecordHeaderSize + len);
  }
  EXPECT_EQ(ends.back(), log.size());
  return ends;
}

// ---------------------------------------------------------------------
// Bytes written before record bodies and snapshot sections shared their
// sub-codecs: a log holding AllRecordTypes() and the image of
// SampleSnapshot() plus SampleRollout(). They must decode to the same
// state, and today's encoders must reproduce them byte for byte.
// ---------------------------------------------------------------------

constexpr char kEarlierWalHex[] =
    "464c4f434b57414c0100000001000000000000001800000074c5ac3d01010000"
    "007402000000010000006b0100010000007602013c000000170ddac603010000"
    "007402000000010000006b010001000000760201020000000000000001010000"
    "000000000001020000000000000001000000000000f83f002a00000086cd52c9"
    "0401000000740100000002000000000000000100000000020000000000002240"
    "0002000000000000204010000000a68d0c7c0501000000740200000000000000"
    "01002d00000082d678650605000000636875726e0a000000706970652d627974"
    "657305000000616c69636508000000747261696e2e707911000000acfcc91607"
    "05000000636875726e03000000626f622b000000d5424a6c0807000000000000"
    "0005000000636c616d7002cdccccccccccec3f000000000000e03f0103000000"
    "6374781b000000bdee17770901000000000000000505000000636875726e0200"
    "00000000000012000000db112ee20a0100000000000000010000000000000004"
    "180000006f75e05e0b01000000000000000300000061756304000000302e3931"
    "4d00000065239ec50c05000000636875726e02fa0000000900000063616e642d"
    "7069706505000000616c69636503000000000000009a9999999999b93f9a9999"
    "999999c93f333333333333d33f3200000000000000060000003d9c0296020100"
    "000074";
constexpr char kEarlierSnapshotHex[] =
    "464c4f434b534e50030000000900000000000000010000000100000074020000"
    "00010000006b0100010000007602010400000000000000010000000200000001"
    "0000006b01000100000076020102000000000000000101000000000000000102"
    "0000000000000001000000000000f83f000100000005000000636875726e0400"
    "000000000000040000007069706505000000616c69636508000000747261696e"
    "2e70790200000005000000616c69636503000000626f62010000000105000000"
    "636875726e05000000616c696365040000000000000064000000000000000c00"
    "000000000000010000000b0000000000000005000000636c616d7000cdcccccc"
    "ccccec3f000000000000e03f0103000000637478010000000505000000636875"
    "726e0400000000000000010000000300000061756304000000302e3931010000"
    "0001000000000000000100000000000000070100000005000000636875726e02"
    "fa0000000900000063616e642d7069706505000000616c696365030000000000"
    "00009a9999999999b93f9a9999999999c93f333333333333d33f320000000000"
    "00002650bf6b";

TEST(WalCompatTest, EarlierLogRecoversAndReencodesIdentically) {
  std::string dir = MakeTempDir();
  const std::string log = FromHex(kEarlierWalHex);
  WriteFile(dir + "/wal.log", log);
  ReplayedState state;
  auto recovered = state.Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->wal_records_replayed, 12u);
  EXPECT_FALSE(recovered->tail_truncated);
  EXPECT_EQ(recovered->wal_valid_size, log.size());

  EXPECT_TRUE(state.db.ListTables().empty());  // created, edited, dropped
  EXPECT_EQ(state.model_calls,
            (std::vector<std::string>{"deploy churn pipe-bytes alice train.py",
                                      "drop churn bob"}));
  ASSERT_EQ(state.policy.timeline().size(), 1u);
  const policy::TimelineEntry& entry = state.policy.timeline()[0];
  EXPECT_EQ(entry.seq, 7u);
  EXPECT_EQ(entry.policy, "clamp");
  EXPECT_EQ(entry.action, policy::ActionKind::kClamp);
  EXPECT_EQ(entry.before, 0.9);
  EXPECT_EQ(entry.after, 0.5);
  EXPECT_TRUE(entry.rejected);
  EXPECT_EQ(entry.context, "ctx");
  ASSERT_EQ(state.catalog.entities().size(), 1u);
  const prov::Entity& entity = state.catalog.entities()[0];
  EXPECT_EQ(entity.type, prov::EntityType::kModel);
  EXPECT_EQ(entity.name, "churn");
  EXPECT_EQ(entity.version, 2u);
  EXPECT_EQ(entity.properties.at("auc"), "0.91");
  ASSERT_EQ(state.catalog.edges().size(), 1u);
  EXPECT_EQ(state.catalog.edges()[0].type, prov::EdgeType::kTrains);
  ASSERT_EQ(state.rollouts.size(), 1u);
  ExpectRolloutsEqual(state.rollouts[0], SampleRollout());

  // The earlier log predates ACCESS_CONTROL records; the other twelve
  // types still encode byte for byte as it does.
  std::vector<WalRecord> earlier_types;
  for (WalRecord& record : AllRecordTypes()) {
    if (record.type != WalRecordType::kAccessControl) {
      earlier_types.push_back(std::move(record));
    }
  }
  EXPECT_EQ(WriteRecords(MakeTempDir() + "/wal.log", earlier_types), log);
}

TEST(WalReplayTest, AccessListReplaysBetweenDeployAndDrop) {
  std::string dir = MakeTempDir();
  WriteAllRecordTypes(dir + "/wal.log");
  ReplayedState state;
  auto recovered = state.Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->wal_records_replayed, AllRecordTypes().size());
  EXPECT_EQ(state.model_calls,
            (std::vector<std::string>{"deploy churn pipe-bytes alice train.py",
                                      "acl churn alice bob",
                                      "drop churn bob"}));
}

TEST(WalCompatTest, EarlierSnapshotRestoresAndReencodesIdentically) {
  const std::string image = FromHex(kEarlierSnapshotHex);
  SnapshotData expected = SampleSnapshot();
  expected.rollouts.push_back(SampleRollout());
  EXPECT_EQ(EncodeSnapshot(expected), image);

  auto decoded = DecodeSnapshot(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ReplayedState state;
  EngineStateAdapter adapter = state.Adapter();
  ASSERT_TRUE(RestoreSnapshotState(
                  {&state.db, &state.catalog, &state.policy, &adapter},
                  *decoded)
                  .ok());
  auto table = state.db.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->ScanRange(0, (*table)->num_rows()).ToString(),
            SmallBatch().ToString());
  EXPECT_EQ(state.model_calls, (std::vector<std::string>{"restore churn 4"}));
  ASSERT_EQ(state.audit.size(), 1u);
  EXPECT_EQ(state.audit[0].principal, "alice");
  EXPECT_EQ(state.audit[0].rows, 100u);
  ASSERT_EQ(state.policy.timeline().size(), 1u);
  EXPECT_EQ(state.policy.timeline()[0].seq, 11u);
  EXPECT_EQ(state.policy.timeline()[0].action, policy::ActionKind::kAllow);
  ASSERT_EQ(state.catalog.entities().size(), 1u);
  EXPECT_EQ(state.catalog.entities()[0].properties.at("auc"), "0.91");
  ASSERT_EQ(state.catalog.edges().size(), 1u);
  EXPECT_EQ(state.catalog.edges()[0].type, prov::EdgeType::kVersionOf);
  ASSERT_EQ(state.rollouts.size(), 1u);
  ExpectRolloutsEqual(state.rollouts[0], SampleRollout());
}

// ---------------------------------------------------------------------
// Decoders check every count against the bytes left before sizing a
// container from it: each crafted input below names ~4G items in a few
// bytes, and must be DataLoss rather than an allocation.
// ---------------------------------------------------------------------

std::string SealSnapshot(const std::string& payload) {
  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.append(payload);
  storage::PutU32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

/// A version-3 snapshot payload up to (not including) the count of
/// top-level section `section` (0 tables, 1 models, 2 audit, 3 timeline,
/// 4 entities, 5 edges, 6 rollouts), every earlier section empty.
std::string SnapshotPayloadBefore(int section) {
  std::string payload;
  storage::PutU32(&payload, kSnapshotFormatVersion);
  storage::PutU64(&payload, 9);  // epoch
  for (int s = 0; s <= section; ++s) {
    if (s == 3) storage::PutU64(&payload, 0);  // policy next seq
    if (s < section) storage::PutU32(&payload, 0);
  }
  return payload;
}

struct HugeCountCase {
  std::string site;
  std::function<Status()> decode;
};

void PrintTo(const HugeCountCase& c, std::ostream* os) { *os << c.site; }

std::vector<HugeCountCase> HugeCountCases() {
  constexpr uint32_t kHuge = 0xFFFFFFFFu;
  auto body = [](WalRecordType type, const std::string& rest) {
    std::string out;
    storage::PutU8(&out, static_cast<uint8_t>(type));
    storage::PutString(&out, "t");
    return out + rest;
  };
  auto record = [](std::string bytes) {
    return [bytes] { return DecodeRecordBody(bytes).status(); };
  };
  auto snapshot = [](std::string payload) {
    return [payload] { return DecodeSnapshot(SealSnapshot(payload)).status(); };
  };
  std::vector<HugeCountCase> cases;

  std::string rest;
  storage::PutU32(&rest, 0);  // column
  storage::PutU32(&rest, kHuge);
  cases.push_back({"UpdateColumn",
                   record(body(WalRecordType::kUpdateColumn, rest))});
  rest.clear();
  storage::PutU64(&rest, uint64_t{1} << 40);
  cases.push_back({"DeleteRows",
                   record(body(WalRecordType::kDeleteRows, rest))});
  rest.clear();
  storage::PutU32(&rest, kHuge);  // schema column count
  cases.push_back({"Schema", record(body(WalRecordType::kCreateTable, rest))});
  rest.clear();
  storage::SerializeSchema(TwoColSchema(), &rest);
  storage::PutU64(&rest, uint64_t{1} << 40);  // batch row count
  cases.push_back({"Batch", record(body(WalRecordType::kAppendBatch, rest))});
  rest.clear();
  storage::PutU32(&rest, kHuge);  // allowed principals
  cases.push_back({"AccessControl",
                   record(body(WalRecordType::kAccessControl, rest))});

  const char* sections[] = {"SnapshotTables",   "SnapshotModels",
                            "SnapshotAudit",    "SnapshotTimeline",
                            "SnapshotEntities", "SnapshotEdges",
                            "SnapshotRollouts"};
  for (int s = 0; s < 7; ++s) {
    std::string payload = SnapshotPayloadBefore(s);
    storage::PutU32(&payload, kHuge);
    cases.push_back({sections[s], snapshot(payload)});
  }
  std::string segments = SnapshotPayloadBefore(0);
  storage::PutU32(&segments, 1);  // one table
  storage::PutString(&segments, "t");
  storage::SerializeSchema(TwoColSchema(), &segments);
  storage::PutU64(&segments, 4);  // segment capacity
  storage::PutU32(&segments, kHuge);
  cases.push_back({"SnapshotSegments", snapshot(segments)});
  std::string acl = SnapshotPayloadBefore(1);
  storage::PutU32(&acl, 1);  // one model
  storage::PutString(&acl, "m");
  storage::PutU64(&acl, 1);
  storage::PutString(&acl, "pipe");
  storage::PutString(&acl, "alice");
  storage::PutString(&acl, "train.py");
  storage::PutU32(&acl, kHuge);  // allowed principals
  cases.push_back({"SnapshotModelAcl", snapshot(acl)});
  return cases;
}

class HugeCountTest : public ::testing::TestWithParam<HugeCountCase> {};

TEST_P(HugeCountTest, IsDataLossBeforeAllocating) {
  Status st = GetParam().decode();
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

// ctest names each case after its site, through PrintTo.
INSTANTIATE_TEST_SUITE_P(CountSites, HugeCountTest,
                         ::testing::ValuesIn(HugeCountCases()));

// ---------------------------------------------------------------------
// Truncation and bit-flip sweep over one log holding every record type:
// recovery and a fresh reader must agree on the durable prefix at every
// length, and damage must be a torn tail exactly when it is in the final
// frame.
// ---------------------------------------------------------------------

TEST(WalSweepTest, TruncationAtEveryLengthReplaysCompleteFrames) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  const std::string log = WriteAllRecordTypes(path);
  const std::vector<size_t> ends = FrameEnds(log);
  const std::vector<WalRecord> records = AllRecordTypes();
  ASSERT_EQ(ends.size(), records.size() + 1);
  for (size_t len = 0; len <= log.size(); ++len) {
    SCOPED_TRACE("log truncated to " + std::to_string(len) + " bytes");
    WriteFile(path, log.substr(0, len));
    ReplayedState state;
    auto recovered = state.Recover(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (len < kWalHeaderSize) {
      // A crash while the first log's header was being written.
      EXPECT_TRUE(recovered->stale_wal_discarded);
      EXPECT_EQ(recovered->wal_records_replayed, 0u);
      continue;
    }
    size_t complete = 0;
    while (complete + 1 < ends.size() && ends[complete + 1] <= len) {
      ++complete;
    }
    EXPECT_EQ(recovered->wal_records_replayed, complete);
    EXPECT_EQ(recovered->wal_valid_size, ends[complete]);
    EXPECT_EQ(recovered->tail_truncated, ends[complete] < len);

    WalReader reader(path);
    auto polled = reader.Poll(records.size() + 1);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    EXPECT_TRUE(polled->end_of_durable_log);
    EXPECT_EQ(reader.offset(), ends[complete]);
    ASSERT_EQ(polled->records.size(), complete);
    for (size_t i = 0; i < complete; ++i) {
      ExpectRecordsEqual(records[i], polled->records[i]);
    }
  }
}

TEST(WalSweepTest, ByteFlipIsDataLossMidLogAndTornInTheFinalFrame) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  const std::string log = WriteAllRecordTypes(path);
  const std::vector<size_t> ends = FrameEnds(log);
  const size_t final_frame = ends[ends.size() - 2];
  for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
    for (size_t i = 0; i < log.size(); ++i) {
      SCOPED_TRACE("byte " + std::to_string(i) + " ^= " +
                   std::to_string(mask));
      std::string damaged = log;
      damaged[i] = static_cast<char>(damaged[i] ^ mask);
      WriteFile(path, damaged);
      ReplayedState state;
      auto recovered = state.Recover(dir);
      DrainedLog drained = DrainLog(path);
      if (i < final_frame) {
        // The header or a committed frame with intact frames after it.
        ASSERT_FALSE(recovered.ok());
        EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
        if (i >= kWalHeaderSize) {
          EXPECT_EQ(drained.status.code(), StatusCode::kDataLoss);
        }
        continue;
      }
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(recovered->wal_records_replayed, ends.size() - 2);
      EXPECT_TRUE(recovered->tail_truncated);
      EXPECT_EQ(recovered->wal_valid_size, final_frame);
      ASSERT_TRUE(drained.status.ok()) << drained.status.ToString();
      EXPECT_EQ(drained.records.size(), ends.size() - 2);
      EXPECT_EQ(drained.valid_size, final_frame);
    }
  }
}

// A torn append's payload is user data, and may hold bytes that form a
// complete, CRC-valid frame. Wherever the tear falls — including right
// after that embedded frame, where it chains exactly to EOF — the result
// is a torn tail: an unacknowledged write never stops a restart.
TEST(WalSweepTest, TornFrameEmbeddingAnIntactFrameIsATornTail) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  const std::string body = EncodeRecordBody(WalRecord::DropTable("t"));
  std::string embedded;
  storage::PutU32(&embedded, static_cast<uint32_t>(body.size()));
  storage::PutU32(&embedded, Crc32(body.data(), body.size()));
  embedded += body;
  // The string column comes first, so payload bytes follow the frame.
  Schema schema({{"s", DataType::kString, false},
                 {"k", DataType::kInt64, false}});
  RecordBatch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::String(embedded), Value::Int(7)}).ok());
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::CreateTable("t", schema)).ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::AppendBatch("t", batch)).ok());
  writer->reset();
  const std::string log = ReadFile(path);
  const size_t committed = FrameEnds(log)[1];
  const size_t at = log.find(embedded, committed);
  ASSERT_NE(at, std::string::npos);
  ASSERT_LT(at + embedded.size(), log.size());
  for (size_t len = committed + 1; len < log.size(); ++len) {
    SCOPED_TRACE("append torn at " + std::to_string(len) + " bytes");
    WriteFile(path, log.substr(0, len));
    ReplayedState state;
    auto recovered = state.Recover(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->wal_records_replayed, 1u);
    EXPECT_EQ(recovered->wal_valid_size, committed);
    EXPECT_TRUE(recovered->tail_truncated);
    WriteFile(path, log.substr(0, len));
    DrainedLog drained = DrainLog(path);
    ASSERT_TRUE(drained.status.ok()) << drained.status.ToString();
    EXPECT_EQ(drained.records.size(), 1u);
  }
}

// The damage check is linear in the tail. Sequential BIGINT ids read as
// plausible frame lengths all through this multi-MB payload, so a scan
// that CRC-checked every such candidate would take minutes here.
TEST(WalReaderTest, TornMultiMegabyteBatchRecoversInLinearTime) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.log";
  Schema schema({{"id", DataType::kInt64, false}});
  RecordBatch batch(schema);
  for (int64_t id = 0; id < 500000; ++id) {
    ASSERT_TRUE(batch.AppendRow({Value::Int(id)}).ok());
  }
  WalWriterOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto writer = WalWriter::Create(path, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::CreateTable("t", schema)).ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::AppendBatch("t", batch)).ok());
  writer->reset();
  const std::string log = ReadFile(path);
  ASSERT_GT(log.size(), size_t{3} << 20);
  const size_t committed = FrameEnds(log)[1];
  WriteFile(path, log.substr(0, committed + (log.size() - committed) / 2));

  const auto start = std::chrono::steady_clock::now();
  ReplayedState state;
  auto recovered = state.Recover(dir);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->wal_records_replayed, 1u);
  EXPECT_EQ(recovered->wal_valid_size, committed);
  EXPECT_TRUE(recovered->tail_truncated);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(WalFormatTest, Crc32MatchesKnownVector) {
  // IEEE 802.3 CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Chained calls equal one shot.
  uint32_t chained = Crc32("56789", 5, Crc32("1234", 4));
  EXPECT_EQ(chained, 0xCBF43926u);
}

}  // namespace
}  // namespace flock::wal
