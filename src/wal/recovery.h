#ifndef FLOCK_WAL_RECOVERY_H_
#define FLOCK_WAL_RECOVERY_H_

#include <cstdint>
#include <string>

#include "common/status_or.h"
#include "policy/policy_engine.h"
#include "prov/catalog.h"
#include "storage/database.h"
#include "wal/checkpoint.h"
#include "wal/engine_state.h"
#include "wal/wal_record.h"

namespace flock::wal {

struct RecoveryResult {
  bool snapshot_restored = false;
  bool wal_found = false;
  uint64_t wal_records_replayed = 0;
  /// The final record was torn (crash mid-append) and dropped.
  bool tail_truncated = true;
  /// A WAL older than the snapshot was discarded (crash between snapshot
  /// rename and WAL reset during a checkpoint).
  bool stale_wal_discarded = false;
  /// Epoch the resumed (or fresh) WAL must carry.
  uint64_t epoch = 1;
  /// Byte size of the intact WAL prefix; Resume truncates to this.
  uint64_t wal_valid_size = 0;
};

/// The component set a WAL record or snapshot is applied into. Shared by
/// crash recovery and the replication applier (src/repl) so a replica
/// streams records through the exact same replay path a restart does —
/// one switch, one set of invariants.
struct WalReplayTarget {
  storage::Database* db = nullptr;
  prov::Catalog* catalog = nullptr;        // may be null
  policy::PolicyEngine* policy = nullptr;  // may be null
  const EngineStateAdapter* adapter = nullptr;
};

/// Applies one committed redo record. Internal when the record names a
/// component the target lacks; DataLoss when it does not fit the state
/// (enum tags were already range-checked by DecodeRecordBody).
Status ApplyWalRecord(const WalReplayTarget& target,
                      const WalRecord& record);

/// Restores a full snapshot image into an empty target (tables, models,
/// audit log, policy timeline, provenance graph).
Status RestoreSnapshotState(const WalReplayTarget& target,
                            const SnapshotData& snapshot);

/// Rebuilds durable state from a data directory: restores the latest
/// snapshot (if any), then replays the WAL tail on top. Epoch fencing
/// guards the snapshot/WAL pair: the snapshot records the epoch of the
/// WAL cut at the same checkpoint, and a WAL from any *later* epoch —
/// which would mean a missing snapshot — is DataLoss, while one from an
/// earlier epoch is a leftover already covered by the snapshot and is
/// discarded instead of double-replayed.
///
/// Derived state (plan caches, optimizer specializations) is NOT
/// rebuilt here; the engine does that after recovery returns.
class RecoveryManager {
 public:
  RecoveryManager(std::string dir, storage::Database* db,
                  prov::Catalog* catalog, policy::PolicyEngine* policy,
                  EngineStateAdapter adapter);

  StatusOr<RecoveryResult> Recover();

  std::string wal_path() const { return dir_ + "/wal.log"; }

 private:
  WalReplayTarget Target() const;

  std::string dir_;
  storage::Database* db_;
  prov::Catalog* catalog_;
  policy::PolicyEngine* policy_;
  EngineStateAdapter adapter_;
};

}  // namespace flock::wal

#endif  // FLOCK_WAL_RECOVERY_H_
