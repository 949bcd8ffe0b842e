#include "wal/durability.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.h"
#include "wal/checkpoint.h"
#include "wal/fault_injector.h"

namespace flock::wal {

namespace {

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::Internal("mkdir failed for " + dir + ": " +
                          std::strerror(errno));
}

}  // namespace

StatusOr<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const std::string& dir, storage::Database* db, prov::Catalog* catalog,
    policy::PolicyEngine* policy, EngineStateAdapter adapter,
    DurabilityOptions options) {
  FLOCK_RETURN_NOT_OK(EnsureDir(dir));

  std::unique_ptr<DurabilityManager> manager(
      new DurabilityManager(dir, db, catalog, policy, std::move(adapter),
                            std::move(options)));

  RecoveryManager recovery(dir, db, catalog, policy, manager->adapter_);
  FLOCK_ASSIGN_OR_RETURN(manager->recovery_, recovery.Recover());

  WalWriterOptions writer_options;
  writer_options.fsync_policy = manager->options_.fsync_policy;
  const RecoveryResult& r = manager->recovery_;
  if (r.wal_found && !r.stale_wal_discarded) {
    FLOCK_ASSIGN_OR_RETURN(
        manager->writer_,
        WalWriter::Resume(recovery.wal_path(), r.epoch, r.wal_valid_size,
                          writer_options, r.wal_records_replayed));
  } else {
    uint64_t create_epoch = r.epoch;
    if (!r.snapshot_restored && !r.wal_found &&
        manager->options_.initial_epoch > create_epoch) {
      // Truly fresh directory: honor the seeded epoch (promotion fencing).
      create_epoch = manager->options_.initial_epoch;
    }
    FLOCK_ASSIGN_OR_RETURN(
        manager->writer_,
        WalWriter::Create(recovery.wal_path(), create_epoch,
                          writer_options));
  }

  // Attach observers only now: recovery's own replay mutations must not
  // be re-appended to the log.
  db->set_observer(manager.get());
  if (catalog != nullptr) catalog->set_listener(manager.get());
  if (policy != nullptr) policy->set_timeline_listener(manager.get());
  return manager;
}

DurabilityManager::DurabilityManager(std::string dir, storage::Database* db,
                                     prov::Catalog* catalog,
                                     policy::PolicyEngine* policy,
                                     EngineStateAdapter adapter,
                                     DurabilityOptions options)
    : dir_(std::move(dir)),
      db_(db),
      catalog_(catalog),
      policy_(policy),
      adapter_(std::move(adapter)),
      options_(std::move(options)) {}

DurabilityManager::~DurabilityManager() {
  db_->set_observer(nullptr);
  if (catalog_ != nullptr) catalog_->set_listener(nullptr);
  if (policy_ != nullptr) policy_->set_timeline_listener(nullptr);
}

Status DurabilityManager::Log(const WalRecord& record) {
  // Appends happen on the request thread, so a traced request sees its
  // own WAL appends as spans (no-op when tracing is off).
  obs::ScopedSpan span("wal.append");
  Status s = writer_->Append(record);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (observer_health_.ok()) observer_health_ = s;
  }
  return s;
}

Status DurabilityManager::health() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return observer_health_;
}

Status DurabilityManager::Sync() {
  FLOCK_RETURN_NOT_OK(health());
  return writer_->Sync();
}

uint64_t DurabilityManager::records_logged() const {
  return writer_->records_appended();
}

uint64_t DurabilityManager::syncs() const { return writer_->syncs(); }

uint64_t DurabilityManager::bytes_written() const {
  return writer_->bytes_written();
}

SnapshotData DurabilityManager::BuildSnapshot(uint64_t epoch) const {
  SnapshotData data;
  data.epoch = epoch;
  for (const std::string& name : db_->ListTables()) {
    auto table = db_->GetTable(name);
    if (!table.ok()) continue;  // dropped between list and get
    TableSnapshot t;
    t.name = (*table)->name();
    t.schema = (*table)->schema();
    t.segment_capacity = (*table)->segment_capacity();
    t.segments.reserve((*table)->num_segments());
    for (size_t s = 0; s < (*table)->num_segments(); ++s) {
      // Zero-copy views: serialization reads them without materializing.
      t.segments.push_back((*table)->ScanSegment(s));
    }
    data.tables.push_back(std::move(t));
  }
  if (adapter_.snapshot_models) data.models = adapter_.snapshot_models();
  if (adapter_.snapshot_audit) data.audit = adapter_.snapshot_audit();
  if (adapter_.snapshot_rollouts) {
    data.rollouts = adapter_.snapshot_rollouts();
  }
  if (policy_ != nullptr) {
    data.timeline = policy_->timeline();
    data.policy_next_seq = policy_->next_seq();
  }
  if (catalog_ != nullptr) {
    data.entities = catalog_->entities();
    data.edges = catalog_->edges();
  }
  return data;
}

Status DurabilityManager::Checkpoint() {
  FLOCK_RETURN_NOT_OK(health());
  FaultInjector* faults = FaultInjector::Get();
  FLOCK_RETURN_NOT_OK(faults->Hit("checkpoint.before_snapshot_write"));
  // All appends so far must be durable before the snapshot supersedes the
  // log they live in.
  FLOCK_RETURN_NOT_OK(writer_->Sync());
  uint64_t new_epoch = writer_->epoch() + 1;
  CheckpointManager checkpoint(dir_);
  FLOCK_RETURN_NOT_OK(checkpoint.Write(BuildSnapshot(new_epoch)));
  FLOCK_RETURN_NOT_OK(writer_->ResetForEpoch(new_epoch));
  FLOCK_RETURN_NOT_OK(faults->Hit("checkpoint.after_wal_reset"));
  return Status::OK();
}

void DurabilityManager::OnCreateTable(const std::string& name,
                                      const storage::Schema& schema) {
  (void)Log(WalRecord::CreateTable(name, schema));
}

void DurabilityManager::OnDropTable(const std::string& name) {
  (void)Log(WalRecord::DropTable(name));
}

void DurabilityManager::OnAppendBatch(const storage::Table& table,
                                      const storage::RecordBatch& batch) {
  (void)Log(WalRecord::AppendBatch(table.name(), batch));
}

void DurabilityManager::OnAppendRow(const storage::Table& table,
                                    const std::vector<storage::Value>& row) {
  storage::RecordBatch batch(table.schema());
  Status s = batch.AppendRow(row);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (observer_health_.ok()) observer_health_ = s;
    return;
  }
  (void)Log(WalRecord::AppendBatch(table.name(), std::move(batch)));
}

void DurabilityManager::OnUpdateColumn(
    const storage::Table& table, size_t col,
    const std::vector<uint32_t>& rows,
    const std::vector<storage::Value>& values) {
  (void)Log(WalRecord::UpdateColumn(
      table.name(), static_cast<uint32_t>(col), rows, values));
}

void DurabilityManager::OnDeleteRows(const storage::Table& table,
                                     const std::vector<bool>& keep,
                                     size_t removed) {
  (void)removed;
  std::vector<uint8_t> bitmap(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) bitmap[i] = keep[i] ? 1 : 0;
  (void)Log(WalRecord::DeleteRows(table.name(), std::move(bitmap)));
}

void DurabilityManager::OnEntity(const prov::Entity& entity) {
  (void)Log(WalRecord::ProvEntity(entity));
}

void DurabilityManager::OnEdge(const prov::Edge& edge) {
  (void)Log(WalRecord::ProvEdge(edge));
}

void DurabilityManager::OnProperty(uint64_t id, const std::string& key,
                                   const std::string& value) {
  (void)Log(WalRecord::ProvProperty(id, key, value));
}

void DurabilityManager::OnTimelineEntry(const policy::TimelineEntry& entry) {
  (void)Log(WalRecord::PolicyAction(entry));
}

}  // namespace flock::wal
