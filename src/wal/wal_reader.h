#ifndef FLOCK_WAL_WAL_READER_H_
#define FLOCK_WAL_WAL_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "wal/wal_record.h"

namespace flock::wal {

/// The one reader of WAL files. Crash recovery drains it in bounded
/// polls; the replication publisher tails a primary's live log with it.
/// Each Poll re-reads the header and then only the bytes past its cursor,
/// so draining a log is a single pass over the file.
///
///  - A damaged frame (partial header, implausible length, body past EOF
///    or a CRC mismatch) is the *end of the durable log*: an append that
///    is in flight, or that a crash tore and so never committed. Poll
///    stops at the last intact frame boundary; the condition is not
///    sticky, so a live tail simply polls again from the same cursor.
///    Recovery reads it as a torn tail: the cursor is the valid size, and
///    any bytes past it are dropped.
///  - Unless committed records provably follow the damage: a chain of
///    frames from some later offset to EOF whose first frame is intact,
///    where the damaged frame's length or CRC shows it ends at that
///    offset. That is corruption of committed records: Status::DataLoss.
///    A torn append never fits the file, so frames that its payload
///    happens to contain do not count.
///  - A header shorter than the fixed prefix is a log mid-creation:
///    Unavailable. A bad magic or version is DataLoss.
///  - Checkpoints atomically replace the file with a fresh log under a
///    bumped epoch. Poll detects the swap from the header and reports it
///    (`epoch_changed`), resetting its cursor to the new log's start; the
///    caller decides whether it can continue (it was fully caught up) or
///    must re-bootstrap from a snapshot.
///
/// Positions are LSNs: the index of the next record within the current
/// epoch's log (record 0 is the first record after the header).
class WalReader {
 public:
  explicit WalReader(std::string path);

  struct PollResult {
    /// Records decoded this poll, in log order.
    std::vector<WalRecord> records;
    /// True when the intact prefix of the log is exhausted — clean EOF or
    /// a (possibly still in-flight) torn tail frame.
    bool end_of_durable_log = false;
    /// True when the log file was replaced by a checkpoint: the reader
    /// now sits at LSN 0 of the new epoch and `records` is empty.
    bool epoch_changed = false;
  };

  /// Reads up to `max_records` records from the current position
  /// (`Poll(0)` only validates the header and learns the epoch).
  /// NotFound until the log file exists; DataLoss only on corruption.
  StatusOr<PollResult> Poll(size_t max_records);

  /// Repositions to `lsn` within the current log (re-reading from the
  /// header). OutOfRange when the durable log holds fewer records.
  Status Seek(uint64_t lsn);

  /// Epoch of the log the cursor is in (0 before the first Poll).
  uint64_t epoch() const { return epoch_; }
  /// LSN of the next record Poll would return.
  uint64_t next_lsn() const { return next_lsn_; }
  /// Byte offset of the cursor (end of the last intact record consumed).
  uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  uint64_t epoch_ = 0;
  uint64_t next_lsn_ = 0;
  uint64_t offset_ = 0;
  bool header_seen_ = false;
};

}  // namespace flock::wal

#endif  // FLOCK_WAL_WAL_READER_H_
