#include "repl/publisher.h"

#include "wal/checkpoint.h"
#include "wal/fault_injector.h"

namespace flock::repl {

ReplicationPublisher::ReplicationPublisher(std::string data_dir)
    : data_dir_(std::move(data_dir)) {}

StatusOr<BootstrapResult> ReplicationPublisher::Bootstrap() {
  std::lock_guard<std::mutex> lock(mu_);
  FLOCK_RETURN_NOT_OK(wal::FaultInjector::Get()->Hit("repl.bootstrap"));
  BootstrapResult out;
  wal::CheckpointManager checkpoint(data_dir_);
  auto snapshot = checkpoint.Read();
  if (snapshot.ok()) {
    out.snapshot = *std::move(snapshot);
  } else if (snapshot.status().code() == StatusCode::kNotFound) {
    // The primary has never checkpointed: its whole history is in the
    // epoch-1 WAL, so the bootstrap image is the empty engine.
    out.snapshot.epoch = 1;
  } else {
    return snapshot.status();
  }
  out.position = ReplicationPosition{out.snapshot.epoch, 0};
  out.bytes = wal::EncodeSnapshot(out.snapshot).size();
  return out;
}

StatusOr<FetchResult> ReplicationPublisher::Fetch(ReplicationPosition from,
                                                  size_t max_records) {
  std::lock_guard<std::mutex> lock(mu_);
  FLOCK_RETURN_NOT_OK(wal::FaultInjector::Get()->Hit("repl.fetch"));
  FetchResult out;
  out.next = from;

  if (reader_ == nullptr) {
    reader_ = std::make_unique<wal::WalReader>(wal_path());
  }
  if (reader_->epoch() != from.epoch || reader_->next_lsn() != from.lsn) {
    Status seek = reader_->Seek(from.lsn);
    if (seek.code() == StatusCode::kNotFound) {
      // No log on disk yet: everything durable is in the snapshot.
      out.end_of_log = true;
      return out;
    }
    if (seek.code() == StatusCode::kOutOfRange) {
      // The durable log holds fewer records than the replica claims to
      // have applied — its position is from a truncated (older) epoch.
      out.snapshot_required = true;
      return out;
    }
    FLOCK_RETURN_NOT_OK(seek);
    if (reader_->epoch() != from.epoch) {
      out.snapshot_required = true;
      return out;
    }
  }

  uint64_t start_offset = reader_->offset();
  auto polled = reader_->Poll(max_records);
  if (!polled.ok() && polled.status().code() == StatusCode::kNotFound) {
    out.end_of_log = true;
    return out;
  }
  FLOCK_RETURN_NOT_OK(polled.status());
  if (polled->epoch_changed) {
    // A checkpoint swapped the log out from under the cursor. The old
    // epoch's final LSN is unknowable (its file is gone), so streaming
    // continuity cannot be proven — the replica re-bootstraps from the
    // snapshot that very checkpoint wrote.
    out.snapshot_required = true;
    return out;
  }
  out.records = std::move(polled->records);
  out.end_of_log = polled->end_of_durable_log;
  out.next = ReplicationPosition{reader_->epoch(), reader_->next_lsn()};
  out.bytes = reader_->offset() - start_offset;
  return out;
}

StatusOr<ReplicationPosition> ReplicationPublisher::DurableEnd() {
  std::lock_guard<std::mutex> lock(mu_);
  wal::WalReader probe(wal_path());
  while (true) {
    auto polled = probe.Poll(1024);
    if (!polled.ok()) {
      if (polled.status().code() == StatusCode::kNotFound) {
        // No WAL: the snapshot (if any) is the entire durable state.
        wal::CheckpointManager checkpoint(data_dir_);
        auto snapshot = checkpoint.Read();
        if (snapshot.ok()) {
          return ReplicationPosition{snapshot->epoch, 0};
        }
        if (snapshot.status().code() == StatusCode::kNotFound) {
          return ReplicationPosition{1, 0};
        }
        return snapshot.status();
      }
      return polled.status();
    }
    if (polled->epoch_changed) continue;
    if (polled->end_of_durable_log) break;
  }
  return ReplicationPosition{probe.epoch(), probe.next_lsn()};
}

}  // namespace flock::repl
