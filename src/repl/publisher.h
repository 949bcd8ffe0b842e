#ifndef FLOCK_REPL_PUBLISHER_H_
#define FLOCK_REPL_PUBLISHER_H_

#include <memory>
#include <mutex>
#include <string>

#include "repl/replication.h"
#include "wal/wal_reader.h"

namespace flock::repl {

/// Serves catch-up and steady-state streaming for one replica, reading
/// purely from the primary's *data directory* (snapshot.fsnap +
/// wal.log). No live-engine dependency: the publisher works equally
/// against a running primary (the WAL writer fflushes every append, so
/// the file is always current up to the last committed record) and
/// against a dead one's leftover files — the failover path.
///
/// Torn tails are handled by WalReader: a half-written final frame is
/// "end of durable log", never an error, because the writer only acks a
/// record after its full frame (and fsync policy) lands. Checkpoint log
/// swaps surface as `snapshot_required` when the replica's position is
/// from a truncated epoch.
///
/// One publisher per replica (each holds its own cursor); all methods
/// are internally locked so a metrics scrape can call DurableEnd while a
/// fetch is in flight.
class ReplicationPublisher : public ReplicationSource {
 public:
  explicit ReplicationPublisher(std::string data_dir);

  StatusOr<BootstrapResult> Bootstrap() override;
  StatusOr<FetchResult> Fetch(ReplicationPosition from,
                              size_t max_records) override;
  StatusOr<ReplicationPosition> DurableEnd() override;

  const std::string& data_dir() const { return data_dir_; }

 private:
  std::string wal_path() const { return data_dir_ + "/wal.log"; }

  std::string data_dir_;
  std::mutex mu_;
  /// Cursor for this replica's stream; recreated on Seek mismatches.
  std::unique_ptr<wal::WalReader> reader_;
};

}  // namespace flock::repl

#endif  // FLOCK_REPL_PUBLISHER_H_
