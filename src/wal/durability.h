#ifndef FLOCK_WAL_DURABILITY_H_
#define FLOCK_WAL_DURABILITY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "policy/policy_engine.h"
#include "prov/catalog.h"
#include "storage/database.h"
#include "storage/observer.h"
#include "wal/engine_state.h"
#include "wal/recovery.h"
#include "wal/wal_writer.h"

namespace flock::wal {

struct DurabilityOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  /// Epoch stamped into a *freshly created* log (ignored when recovery
  /// finds existing state). Replication failover seeds this above the old
  /// primary's epoch so the promoted replica fences its predecessor.
  uint64_t initial_epoch = 1;
};

/// The durability facade: one object per data directory that
///
///  1. runs recovery on Open (snapshot restore + WAL replay),
///  2. observes every committed mutation — storage DDL/DML via
///     storage::DatabaseObserver, provenance via prov::CatalogListener,
///     policy decisions via policy::TimelineListener, model deploys,
///     access lists and rollouts via explicit Log calls from the engine —
///     and appends it to the WAL,
///  3. takes checkpoints: snapshot to disk, then cut a fresh WAL under a
///     bumped epoch.
///
/// Observer callbacks cannot return errors, so append failures park in a
/// sticky health() status; the engine checks it after every exclusive
/// statement and refuses further writes once the log is wedged. Open
/// attaches the observers itself, after recovery, so replayed mutations
/// are not re-logged.
class DurabilityManager : public storage::DatabaseObserver,
                          public prov::CatalogListener,
                          public policy::TimelineListener {
 public:
  /// Recovers `dir` (created if missing) into the supplied components and
  /// starts logging. `catalog` / `policy` may be null when the deployment
  /// does not use them — recovery then fails cleanly if the log disagrees.
  static StatusOr<std::unique_ptr<DurabilityManager>> Open(
      const std::string& dir, storage::Database* db, prov::Catalog* catalog,
      policy::PolicyEngine* policy, EngineStateAdapter adapter,
      DurabilityOptions options);

  ~DurabilityManager() override;

  /// What recovery found and replayed.
  const RecoveryResult& recovery() const { return recovery_; }

  /// Snapshot + WAL reset. The caller must hold whatever lock serializes
  /// mutations (the engine's exclusive statement lock): the snapshot must
  /// be a point-in-time image and no append may interleave with the log
  /// swap. Fault points: checkpoint.before_snapshot_write,
  /// checkpoint.before_snapshot_rename, checkpoint.after_snapshot_rename,
  /// checkpoint.after_wal_reset.
  Status Checkpoint();

  /// First WAL append/fsync error, sticky. OK while the log is healthy.
  Status health() const;

  /// Forces everything appended so far to disk.
  Status Sync();

  uint64_t epoch() const { return writer_->epoch(); }
  const std::string& directory() const { return dir_; }
  std::string wal_path() const { return dir_ + "/wal.log"; }
  /// Epoch-local LSN: number of records durable in the current epoch's
  /// log — the position a fully caught-up replica would sit at.
  uint64_t lsn() const { return writer_->epoch_records(); }
  uint64_t records_logged() const;
  /// Cumulative fsyncs / bytes appended (lock-free; for the metrics
  /// registry).
  uint64_t syncs() const;
  uint64_t bytes_written() const;

  /// Appends one record. The observer callbacks below log through it,
  /// and the engine logs model, access-list and rollout changes (which
  /// are not observable from storage) directly. A failed append also
  /// makes health() fail, stickily.
  Status Log(const WalRecord& record);

  // --- storage::DatabaseObserver ---
  void OnCreateTable(const std::string& name,
                     const storage::Schema& schema) override;
  void OnDropTable(const std::string& name) override;
  void OnAppendBatch(const storage::Table& table,
                     const storage::RecordBatch& batch) override;
  void OnAppendRow(const storage::Table& table,
                   const std::vector<storage::Value>& row) override;
  void OnUpdateColumn(const storage::Table& table, size_t col,
                      const std::vector<uint32_t>& rows,
                      const std::vector<storage::Value>& values) override;
  void OnDeleteRows(const storage::Table& table,
                    const std::vector<bool>& keep, size_t removed) override;

  // --- prov::CatalogListener ---
  void OnEntity(const prov::Entity& entity) override;
  void OnEdge(const prov::Edge& edge) override;
  void OnProperty(uint64_t id, const std::string& key,
                  const std::string& value) override;

  // --- policy::TimelineListener ---
  void OnTimelineEntry(const policy::TimelineEntry& entry) override;

 private:
  DurabilityManager(std::string dir, storage::Database* db,
                    prov::Catalog* catalog, policy::PolicyEngine* policy,
                    EngineStateAdapter adapter, DurabilityOptions options);

  SnapshotData BuildSnapshot(uint64_t epoch) const;

  std::string dir_;
  storage::Database* db_;
  prov::Catalog* catalog_;
  policy::PolicyEngine* policy_;
  EngineStateAdapter adapter_;
  DurabilityOptions options_;
  std::unique_ptr<WalWriter> writer_;
  RecoveryResult recovery_;

  mutable std::mutex health_mu_;
  Status observer_health_;  // first failed observed append, sticky
};

}  // namespace flock::wal

#endif  // FLOCK_WAL_DURABILITY_H_
