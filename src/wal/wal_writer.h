#ifndef FLOCK_WAL_WAL_WRITER_H_
#define FLOCK_WAL_WAL_WRITER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status_or.h"
#include "wal/wal_record.h"

namespace flock::wal {

/// When appends become durable.
enum class FsyncPolicy {
  /// fsync before every Append returns: strongest guarantee, one disk
  /// round trip per record.
  kEveryRecord,
  /// Appends block until a background flusher's next fsync covers them
  /// (interval-based group commit): one fsync amortized over every append
  /// that arrived in the window. Same guarantee as kEveryRecord — Append
  /// returning means the record is on disk — at far higher throughput.
  kGroupCommit,
  /// No fsync; the OS decides. Survives process crash (page cache is
  /// kernel-owned) but not power loss. For bulk loads and tests.
  kNever,
};

const char* FsyncPolicyName(FsyncPolicy policy);

/// Group-commit window: how long the flusher waits for more appends
/// before one fsync covers them. Smaller = lower commit latency, more
/// fsyncs.
inline constexpr std::chrono::milliseconds kGroupCommitInterval{2};

struct WalWriterOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
};

/// Appends length-prefixed, CRC-checksummed records to the log. Thread-
/// safe; in the engine all appends arrive under the exclusive statement
/// lock, but the writer is independently safe so benches and the group-
/// commit tests can drive it from many threads.
///
/// Errors are sticky: after any write/fsync failure (including injected
/// faults) every subsequent Append returns the first error — a log that
/// failed once must not accept further records, or the failure window
/// would be silently spanned.
class WalWriter {
 public:
  /// Creates a fresh log (truncating any existing file) with `epoch` in
  /// the header; fsyncs the header and the directory.
  static StatusOr<std::unique_ptr<WalWriter>> Create(
      const std::string& path, uint64_t epoch, WalWriterOptions options);

  /// Opens an existing log for appending. `valid_size` is the byte offset
  /// of the end of the last intact record (from WalReader); anything
  /// after it (a torn tail) is truncated away before appending resumes.
  /// `records_in_log` is the number of intact records already in the log
  /// — it seeds the epoch-local LSN counter (`epoch_records()`).
  static StatusOr<std::unique_ptr<WalWriter>> Resume(
      const std::string& path, uint64_t epoch, uint64_t valid_size,
      WalWriterOptions options, uint64_t records_in_log = 0);

  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record; returns once the record is durable per the
  /// fsync policy.
  Status Append(const WalRecord& record);

  /// Forces an fsync covering everything appended so far.
  Status Sync();

  /// Checkpoint truncation: atomically replaces the log with a fresh one
  /// whose header carries `new_epoch` (write temp + rename + dir fsync),
  /// then switches appends to it. Caller must guarantee no concurrent
  /// Append (the engine holds its exclusive lock across checkpoints).
  Status ResetForEpoch(uint64_t new_epoch);

  uint64_t epoch() const { return epoch_; }
  const std::string& path() const { return path_; }
  uint64_t records_appended() const {
    return records_appended_.load(std::memory_order_relaxed);
  }
  /// Records durable under the *current* epoch — i.e. the LSN the next
  /// append will get. Unlike records_appended() this resets to zero when
  /// ResetForEpoch cuts a fresh log; replication streams against it.
  uint64_t epoch_records() const {
    return epoch_records_.load(std::memory_order_relaxed);
  }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  WalWriter(std::string path, std::FILE* file, uint64_t epoch,
            WalWriterOptions options);

  Status AppendLocked(const WalRecord& record,
                      std::unique_lock<std::mutex>* lock);
  Status SyncLocked();
  void FlusherLoop();

  const std::string path_;
  const WalWriterOptions options_;
  uint64_t epoch_;

  std::mutex mu_;
  std::FILE* file_;
  Status health_;  // first error, sticky
  // Mutated under mu_, but atomic so the metrics registry can read them
  // lock-free while the serving path is appending.
  std::atomic<uint64_t> records_appended_{0};
  std::atomic<uint64_t> epoch_records_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> bytes_written_{0};

  // Group commit: appenders wait until flushed_seq_ >= their seq.
  std::condition_variable flush_cv_;
  uint64_t written_seq_ = 0;
  uint64_t flushed_seq_ = 0;
  bool stop_flusher_ = false;
  std::thread flusher_;
};

}  // namespace flock::wal

#endif  // FLOCK_WAL_WAL_WRITER_H_
