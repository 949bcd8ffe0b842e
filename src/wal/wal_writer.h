#ifndef FLOCK_WAL_WAL_WRITER_H_
#define FLOCK_WAL_WAL_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/status_or.h"
#include "wal/wal_record.h"

namespace flock::wal {

/// When appends become durable.
enum class FsyncPolicy {
  /// Append returns once a completed fsync covers the record. Concurrent
  /// appenders share one fsync (group commit); a lone appender pays one
  /// fsync per record.
  kEveryRecord,
  /// No fsync; the OS decides. Survives process crash (page cache is
  /// kernel-owned) but not power loss. For bulk loads and tests.
  kNever,
};

const char* FsyncPolicyName(FsyncPolicy policy);

struct WalWriterOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
};

/// Appends length-prefixed, CRC-checksummed records to the log. Thread-
/// safe; in the engine all appends arrive under the exclusive statement
/// lock, but the writer is independently safe so benches and the group-
/// commit tests can drive it from many threads.
///
/// Group commit: a frame is written under `mu_` and takes a sequence
/// number; the appender then waits until a completed fsync covers it.
/// The first waiter that finds no fsync in flight leads: it fsyncs
/// everything written so far outside `mu_` (later appenders keep writing
/// frames meanwhile), then publishes `synced_seq_` and wakes the rest.
///
/// Errors are sticky: after any write/fsync failure (including injected
/// faults) every subsequent Append returns the first error — a log that
/// failed once must not accept further records, or the failure window
/// would be silently spanned. A failed fsync also fails every appender
/// whose frame it was to cover.
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

  /// Returns once a completed fsync covers everything appended so far.
  Status Sync();

  /// Checkpoint truncation: atomically replaces the log with a fresh one
  /// whose header carries `new_epoch` (write temp + rename + dir fsync),
  /// then switches appends to it. Caller must guarantee no concurrent
  /// Append or Sync (the engine holds its exclusive lock across
  /// checkpoints).
  /// Under kEveryRecord the old log is fully synced first, so a failed
  /// rename leaves it durable.
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

  /// Waits (holding `*lock` on entry and exit) until a completed fsync
  /// covers frame `seq`, leading that fsync if none is in flight.
  Status WaitSynced(uint64_t seq, std::unique_lock<std::mutex>* lock);

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

  // Frames written / covered by a completed fsync, counted since open.
  std::condition_variable synced_cv_;
  uint64_t written_seq_ = 0;
  uint64_t synced_seq_ = 0;
  bool sync_in_flight_ = false;
};

}  // namespace flock::wal

#endif  // FLOCK_WAL_WAL_WRITER_H_
