// Sample WAL records shared by the WAL suites: one record of every type,
// with every field group populated (wal_test's codec, log and recovery
// cases; wal_fuzz_test's mutation seeds).
#ifndef FLOCK_TESTS_WAL_RECORDS_H_
#define FLOCK_TESTS_WAL_RECORDS_H_

#include <gtest/gtest.h>

#include <vector>

#include "storage/record_batch.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "wal/wal_record.h"

namespace flock::wal {

inline storage::Schema TwoColSchema() {
  return storage::Schema({{"k", storage::DataType::kInt64, false},
                          {"v", storage::DataType::kDouble, true}});
}

inline storage::RecordBatch SmallBatch() {
  using storage::Value;
  storage::RecordBatch batch(TwoColSchema());
  EXPECT_TRUE(batch.AppendRow({Value::Int(1), Value::Double(1.5)}).ok());
  EXPECT_TRUE(batch.AppendRow({Value::Int(2), Value::Null()}).ok());
  return batch;
}

inline RolloutSnapshot SampleRollout() {
  RolloutSnapshot r;
  r.model = "churn";
  r.state = 2;
  r.canary_permille = 250;
  r.candidate_pipeline_text = "cand-pipe";
  r.initiated_by = "alice";
  r.live_version = 3;
  r.max_divergence_rate = 0.1;
  r.max_latency_regression = 0.2;
  r.max_drift_score = 0.3;
  r.min_observations = 50;
  return r;
}

/// All thirteen record types, with every field group populated, in an
/// order that replays cleanly into an empty engine.
inline std::vector<WalRecord> AllRecordTypes() {
  using storage::Value;
  policy::TimelineEntry entry;
  entry.seq = 7;
  entry.policy = "clamp";
  entry.action = policy::ActionKind::kClamp;
  entry.before = 0.9;
  entry.after = 0.5;
  entry.rejected = true;
  entry.context = "ctx";
  std::vector<WalRecord> records;
  records.push_back(WalRecord::CreateTable("t", TwoColSchema()));
  records.push_back(WalRecord::AppendBatch("t", SmallBatch()));
  records.push_back(WalRecord::UpdateColumn(
      "t", 1, {0, 1}, {Value::Double(9.0), Value::Double(8.0)}));
  records.push_back(WalRecord::DeleteRows("t", {1, 0}));
  records.push_back(WalRecord::DeployModel("churn", "pipe-bytes", "alice",
                                           "train.py"));
  records.push_back(WalRecord::AccessControl("churn", {"alice", "bob"}));
  records.push_back(WalRecord::DropModel("churn", "bob"));
  records.push_back(WalRecord::PolicyAction(entry));
  records.push_back(
      WalRecord::ProvEntity({1, prov::EntityType::kModel, "churn", 2, {}}));
  records.push_back(WalRecord::ProvEdge({1, 1, prov::EdgeType::kTrains}));
  records.push_back(WalRecord::ProvProperty(1, "auc", "0.91"));
  records.push_back(WalRecord::RolloutChange(SampleRollout()));
  records.push_back(WalRecord::DropTable("t"));
  return records;
}

}  // namespace flock::wal

#endif  // FLOCK_TESTS_WAL_RECORDS_H_
