#include "wal/recovery.h"

#include <sys/stat.h>

#include "wal/wal_reader.h"

namespace flock::wal {

namespace {

/// Records decoded per poll while replaying, bounding how many are held
/// in memory at once.
constexpr size_t kReplayPollRecords = 1024;

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

RecoveryManager::RecoveryManager(std::string dir, storage::Database* db,
                                 prov::Catalog* catalog,
                                 policy::PolicyEngine* policy,
                                 EngineStateAdapter adapter)
    : dir_(std::move(dir)),
      db_(db),
      catalog_(catalog),
      policy_(policy),
      adapter_(std::move(adapter)) {}

WalReplayTarget RecoveryManager::Target() const {
  return WalReplayTarget{db_, catalog_, policy_, &adapter_};
}

StatusOr<RecoveryResult> RecoveryManager::Recover() {
  RecoveryResult result;
  result.tail_truncated = false;

  CheckpointManager checkpoint(dir_);
  uint64_t snap_epoch = 0;
  auto snapshot = checkpoint.Read();
  if (snapshot.ok()) {
    FLOCK_RETURN_NOT_OK(RestoreSnapshotState(Target(), *snapshot));
    result.snapshot_restored = true;
    snap_epoch = snapshot->epoch;
    result.epoch = snap_epoch;
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  // Poll(0) reads only the header: the epoch fence below must run before
  // any record of a possibly stale log is decoded.
  WalReader reader(wal_path());
  Status header = reader.Poll(0).status();
  if (header.code() == StatusCode::kNotFound) {
    return result;  // fresh directory (or snapshot-only)
  }
  if (header.code() == StatusCode::kUnavailable) {
    // The header is shorter than its fixed size: a crash during the very
    // first WAL creation, before any record could have committed, is
    // nothing to lose. After a checkpoint the log cannot be that short.
    if (result.snapshot_restored) {
      return Status::DataLoss("wal header truncated: " + wal_path());
    }
    result.stale_wal_discarded = true;
    return result;
  }
  FLOCK_RETURN_NOT_OK(header);

  uint64_t wal_epoch = reader.epoch();
  if (!result.snapshot_restored) {
    if (wal_epoch != 1) {
      return Status::DataLoss("wal is from epoch " +
                              std::to_string(wal_epoch) +
                              " but no snapshot exists");
    }
  } else if (wal_epoch < snap_epoch) {
    // Crash between the checkpoint's snapshot rename and its WAL reset:
    // everything in this older log is already inside the snapshot.
    result.wal_found = true;
    result.stale_wal_discarded = true;
    return result;
  } else if (wal_epoch > snap_epoch) {
    return Status::DataLoss(
        "wal is from epoch " + std::to_string(wal_epoch) +
        " but latest snapshot is from epoch " + std::to_string(snap_epoch));
  }

  result.wal_found = true;
  result.epoch = wal_epoch;
  while (true) {
    FLOCK_ASSIGN_OR_RETURN(WalReader::PollResult polled,
                           reader.Poll(kReplayPollRecords));
    for (const WalRecord& record : polled.records) {
      FLOCK_RETURN_NOT_OK(ApplyWalRecord(Target(), record));
      ++result.wal_records_replayed;
    }
    if (polled.end_of_durable_log) break;
  }
  // Bytes past the cursor are a torn final append; Resume truncates them.
  result.wal_valid_size = reader.offset();
  result.tail_truncated = reader.offset() < FileSize(wal_path());
  return result;
}

Status RestoreSnapshotState(const WalReplayTarget& target,
                            const SnapshotData& snapshot) {
  storage::Database* db = target.db;
  for (const TableSnapshot& t : snapshot.tables) {
    FLOCK_RETURN_NOT_OK(db->CreateTable(
        t.name, t.schema, static_cast<size_t>(t.segment_capacity)));
    if (t.segments.empty()) continue;
    FLOCK_ASSIGN_OR_RETURN(storage::TablePtr table, db->GetTable(t.name));
    if (t.segment_capacity > 0) {
      // Version-2 image: install the recorded segments verbatim so the
      // restored physical layout (and zone maps) matches the original.
      FLOCK_RETURN_NOT_OK(table->RestoreSegments(t.segments));
    } else {
      // Version-1 image: one monolithic batch; a plain append repacks it
      // into segments at the catalog's default capacity.
      FLOCK_RETURN_NOT_OK(table->AppendBatch(t.segments[0]));
    }
  }
  const EngineStateAdapter* adapter = target.adapter;
  for (const ModelSnapshot& m : snapshot.models) {
    if (adapter == nullptr || !adapter->restore_model) {
      return Status::Internal(
          "snapshot contains models but no restore_model adapter");
    }
    FLOCK_RETURN_NOT_OK(adapter->restore_model(m));
  }
  if (!snapshot.audit.empty() && adapter != nullptr &&
      adapter->restore_audit) {
    adapter->restore_audit(snapshot.audit);
  }
  for (const RolloutSnapshot& r : snapshot.rollouts) {
    if (adapter == nullptr || !adapter->apply_rollout) {
      return Status::Internal(
          "snapshot contains rollouts but no apply_rollout adapter");
    }
    FLOCK_RETURN_NOT_OK(adapter->apply_rollout(r));
  }
  if (!snapshot.timeline.empty() || snapshot.policy_next_seq > 0) {
    if (target.policy == nullptr) {
      return Status::Internal(
          "snapshot contains a policy timeline but no policy engine is "
          "attached");
    }
    target.policy->RestoreTimeline(snapshot.timeline,
                                   snapshot.policy_next_seq);
  }
  if (!snapshot.entities.empty() || !snapshot.edges.empty()) {
    if (target.catalog == nullptr) {
      return Status::Internal(
          "snapshot contains provenance but no catalog is attached");
    }
    FLOCK_RETURN_NOT_OK(
        target.catalog->Restore(snapshot.entities, snapshot.edges));
  }
  return Status::OK();
}

Status ApplyWalRecord(const WalReplayTarget& target, const WalRecord& r) {
  storage::Database* db = target.db;
  prov::Catalog* catalog = target.catalog;
  policy::PolicyEngine* policy = target.policy;
  const EngineStateAdapter* adapter = target.adapter;
  switch (r.type) {
    case WalRecordType::kCreateTable:
      return db->CreateTable(r.name, r.schema);
    case WalRecordType::kDropTable:
      return db->DropTable(r.name);
    case WalRecordType::kAppendBatch: {
      FLOCK_ASSIGN_OR_RETURN(storage::TablePtr table, db->GetTable(r.name));
      return table->AppendBatch(r.batch);
    }
    case WalRecordType::kUpdateColumn: {
      FLOCK_ASSIGN_OR_RETURN(storage::TablePtr table, db->GetTable(r.name));
      return table->UpdateColumn(r.column, r.rows, r.values);
    }
    case WalRecordType::kDeleteRows: {
      FLOCK_ASSIGN_OR_RETURN(storage::TablePtr table, db->GetTable(r.name));
      std::vector<bool> keep(r.keep.begin(), r.keep.end());
      if (keep.size() != table->num_rows()) {
        return Status::DataLoss(
            "DELETE_ROWS bitmap for '" + r.name + "' covers " +
            std::to_string(keep.size()) + " rows but table has " +
            std::to_string(table->num_rows()));
      }
      table->FilterInPlace(keep);
      return Status::OK();
    }
    case WalRecordType::kDeployModel:
      if (adapter == nullptr || !adapter->replay_deploy) {
        return Status::Internal(
            "wal contains model deploys but no replay_deploy adapter");
      }
      return adapter->replay_deploy(r.name, r.pipeline_text, r.created_by,
                                    r.lineage);
    case WalRecordType::kDropModel:
      if (adapter == nullptr || !adapter->replay_drop) {
        return Status::Internal(
            "wal contains model drops but no replay_drop adapter");
      }
      return adapter->replay_drop(r.name, r.principal);
    case WalRecordType::kPolicyAction:
      if (policy == nullptr) {
        return Status::Internal(
            "wal contains policy actions but no policy engine is attached");
      }
      policy->ReplayTimelineEntry(r.timeline);
      return Status::OK();
    case WalRecordType::kProvEntity:
      if (catalog == nullptr) {
        return Status::Internal(
            "wal contains provenance but no catalog is attached");
      }
      return catalog->ReplayEntity(r.entity.id, r.entity.type, r.entity.name,
                                   r.entity.version);
    case WalRecordType::kProvEdge:
      if (catalog == nullptr) {
        return Status::Internal(
            "wal contains provenance but no catalog is attached");
      }
      catalog->AddEdge(r.edge.src, r.edge.dst, r.edge.type);
      return Status::OK();
    case WalRecordType::kProvProperty:
      if (catalog == nullptr) {
        return Status::Internal(
            "wal contains provenance but no catalog is attached");
      }
      return catalog->SetProperty(r.entity.id, r.key, r.value);
    case WalRecordType::kRolloutState:
      if (adapter == nullptr || !adapter->apply_rollout) {
        return Status::Internal(
            "wal contains rollout transitions but no apply_rollout adapter");
      }
      return adapter->apply_rollout(r.rollout);
    case WalRecordType::kAccessControl:
      if (adapter == nullptr || !adapter->replay_access_control) {
        return Status::Internal(
            "wal contains access-list changes but no replay_access_control "
            "adapter");
      }
      return adapter->replay_access_control(r.name, r.principals);
  }
  return Status::DataLoss("unknown wal record type during replay");
}

}  // namespace flock::wal
