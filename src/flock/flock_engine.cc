#include "flock/flock_engine.h"

#include <fstream>

#include "common/string_util.h"
#include "obs/trace.h"

namespace flock::flock {

namespace {

const char* ModelTypeName(ml::Pipeline::ModelType type) {
  switch (type) {
    case ml::Pipeline::ModelType::kLinear:
      return "linear";
    case ml::Pipeline::ModelType::kTrees:
      return "trees";
    case ml::Pipeline::ModelType::kNone:
      return "none";
  }
  return "?";
}

const char* AuditKindName(AuditEvent::Kind kind) {
  switch (kind) {
    case AuditEvent::Kind::kRegister:
      return "REGISTER";
    case AuditEvent::Kind::kDrop:
      return "DROP";
    case AuditEvent::Kind::kScore:
      return "SCORE";
    case AuditEvent::Kind::kDenied:
      return "DENIED";
    case AuditEvent::Kind::kSpecialize:
      return "SPECIALIZE";
  }
  return "?";
}

/// The catalog view `name` names, snapshotted for one statement, or
/// nullptr when it names none. `flock_models` has one row per user-visible
/// model (latest version): entries are freed only under the engine's
/// exclusive lock, so reading them under the shared one is safe.
/// `flock_audit` is the audit trail, copied under the registry's lock, so
/// scorers appending meanwhile only add rows a later read sees.
StatusOr<storage::TablePtr> CatalogView(const ModelRegistry& models,
                                        const std::string& name) {
  using storage::ColumnDef;
  using storage::DataType;
  using storage::Value;
  storage::RecordBatch rows;
  if (EqualsIgnoreCase(name, "flock_models")) {
    rows = storage::RecordBatch(
        storage::Schema({ColumnDef{"name", DataType::kString, false},
                         ColumnDef{"version", DataType::kInt64, false},
                         ColumnDef{"created_by", DataType::kString, false},
                         ColumnDef{"lineage", DataType::kString, true},
                         ColumnDef{"model_type", DataType::kString, false},
                         ColumnDef{"num_inputs", DataType::kInt64, false},
                         ColumnDef{"tree_nodes", DataType::kInt64, false},
                         ColumnDef{"restricted", DataType::kBool, false}}));
    for (const std::string& model : models.ListModels()) {
      FLOCK_ASSIGN_OR_RETURN(const ModelEntry* entry, models.Get(model));
      FLOCK_RETURN_NOT_OK(rows.AppendRow(
          {Value::String(entry->name),
           Value::Int(static_cast<int64_t>(entry->version)),
           Value::String(entry->created_by), Value::String(entry->lineage),
           Value::String(ModelTypeName(entry->pipeline.model_type())),
           Value::Int(static_cast<int64_t>(entry->pipeline.num_inputs())),
           Value::Int(static_cast<int64_t>(entry->graph.TotalTreeNodes())),
           Value::Bool(!entry->allowed_principals.empty())}));
    }
  } else if (EqualsIgnoreCase(name, "flock_audit")) {
    rows = storage::RecordBatch(
        storage::Schema({ColumnDef{"seq", DataType::kInt64, false},
                         ColumnDef{"kind", DataType::kString, false},
                         ColumnDef{"model", DataType::kString, false},
                         ColumnDef{"principal", DataType::kString, false},
                         ColumnDef{"version", DataType::kInt64, false},
                         ColumnDef{"rows_scored", DataType::kInt64, false}}));
    int64_t seq = 0;
    for (const AuditEvent& event : models.audit_log()) {
      FLOCK_RETURN_NOT_OK(rows.AppendRow(
          {Value::Int(seq++), Value::String(AuditKindName(event.kind)),
           Value::String(event.model), Value::String(event.principal),
           Value::Int(static_cast<int64_t>(event.version)),
           Value::Int(static_cast<int64_t>(event.rows))}));
    }
  } else {
    return storage::TablePtr();
  }
  auto table = std::make_shared<storage::Table>(ToLower(name), rows.schema());
  FLOCK_RETURN_NOT_OK(table->AppendBatch(rows));
  return table;
}

}  // namespace

std::string RolloutCandidateKey(const std::string& model) {
  return ToLower(model) + "#candidate";
}

FlockEngine::FlockEngine(FlockEngineOptions options)
    : sql_engine_(&db_, options.sql),
      cross_optimizer_(&models_, options.cross),
      context_(std::make_shared<ScoringContext>()),
      enable_cross_optimizer_(options.enable_cross_optimizer) {
  RegisterPredictFunctions(sql_engine_.functions(), &models_, context_);

  sql_engine_.set_plan_rewriter([this](sql::PlanPtr* plan) -> Status {
    if (!enable_cross_optimizer_) return Status::OK();
    return cross_optimizer_.Rewrite(plan);
  });

  sql_engine_.set_view_resolver([this](const std::string& name) {
    return CatalogView(models_, name);
  });

  sql_engine_.set_model_ddl_handler(
      [this](const sql::CreateModelStatement& stmt,
             const std::string& principal) -> Status {
        FLOCK_ASSIGN_OR_RETURN(ml::Pipeline pipeline,
                               ml::Pipeline::Deserialize(stmt.definition));
        FLOCK_RETURN_NOT_OK(models_.Register(stmt.model_name,
                                             std::move(pipeline), principal,
                                             "sql:CREATE MODEL"));
        return Log(wal::WalRecord::DeployModel(
            stmt.model_name, stmt.definition, principal, "sql:CREATE MODEL"));
      },
      [this](const sql::DropModelStatement& stmt,
             const std::string& principal) -> Status {
        FLOCK_RETURN_NOT_OK(models_.Drop(stmt.model_name, principal));
        return Log(wal::WalRecord::DropModel(stmt.model_name, principal));
      });
}

Status FlockEngine::Open(const std::string& data_dir,
                         FlockDurabilityConfig config) {
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  if (replica_) {
    return Status::InvalidArgument(
        "engine is a replica; use PromoteToPrimary to make it durable");
  }
  return OpenLocked(data_dir, config, /*initial_epoch=*/1);
}

Status FlockEngine::OpenAsReplica(FlockDurabilityConfig config) {
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  if (durability_ != nullptr) {
    return Status::InvalidArgument("engine is already durable against " +
                                   durability_->directory());
  }
  if (replica_) {
    return Status::InvalidArgument("engine is already a replica");
  }
  replica_ = true;
  replica_catalog_ = config.catalog;
  replica_policy_ = config.policy;
  replica_adapter_ = BuildStateAdapter();
  return Status::OK();
}

wal::WalReplayTarget FlockEngine::ReplicaTarget() const {
  return wal::WalReplayTarget{const_cast<storage::Database*>(&db_),
                              replica_catalog_, replica_policy_,
                              &replica_adapter_};
}

Status FlockEngine::InstallReplicaSnapshot(
    const wal::SnapshotData& snapshot) {
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  if (!replica_) {
    return Status::InvalidArgument("engine is not a replica");
  }
  // Wipe everything: re-bootstrap must not layer a snapshot over stale
  // state (RestoreModel demands monotonic versions, and the snapshot's
  // provenance/timeline images are complete replacements).
  for (const std::string& name : db_.ListTables()) {
    FLOCK_RETURN_NOT_OK(db_.DropTable(name));
  }
  models_.Reset();
  rollouts_.clear();
  if (replica_catalog_ != nullptr) {
    FLOCK_RETURN_NOT_OK(replica_catalog_->Restore({}, {}));
  }
  if (replica_policy_ != nullptr) replica_policy_->RestoreTimeline({}, 0);
  FLOCK_RETURN_NOT_OK(
      wal::RestoreSnapshotState(ReplicaTarget(), snapshot));
  sql_engine_.plan_cache()->Clear();
  return Status::OK();
}

Status FlockEngine::ApplyReplicated(const wal::WalRecord& record) {
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  if (!replica_) {
    return Status::InvalidArgument("engine is not a replica");
  }
  obs::ScopedSpan span("repl.apply");
  FLOCK_RETURN_NOT_OK(wal::ApplyWalRecord(ReplicaTarget(), record));
  switch (record.type) {
    case wal::WalRecordType::kCreateTable:
    case wal::WalRecordType::kDropTable:
    case wal::WalRecordType::kDeployModel:
    case wal::WalRecordType::kDropModel:
    case wal::WalRecordType::kAccessControl:
      // Mirror the primary's invalidation points: cached plans may hold
      // dead table handles or superseded model specializations.
      sql_engine_.plan_cache()->Clear();
      break;
    default:
      break;
  }
  return Status::OK();
}

Status FlockEngine::PromoteToPrimary(const std::string& data_dir,
                                     FlockDurabilityConfig config,
                                     uint64_t initial_epoch) {
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  if (!replica_) {
    return Status::InvalidArgument("engine is not a replica");
  }
  replica_ = false;
  replica_catalog_ = nullptr;
  replica_policy_ = nullptr;
  FLOCK_RETURN_NOT_OK(OpenLocked(data_dir, config, initial_epoch));
  // Persist the streamed state under the fenced epoch before the first
  // post-promotion write can be acknowledged: a crash right after
  // promotion must recover to at least the promotion point.
  return durability_->Checkpoint();
}

wal::EngineStateAdapter FlockEngine::BuildStateAdapter() {
  wal::EngineStateAdapter adapter;
  adapter.snapshot_models = [this] {
    std::vector<wal::ModelSnapshot> out;
    for (const std::string& name : models_.ListModels()) {
      auto entry = models_.Get(name);
      if (!entry.ok()) continue;
      wal::ModelSnapshot m;
      m.name = (*entry)->name;
      m.version = (*entry)->version;
      m.pipeline_text = (*entry)->pipeline.Serialize();
      m.created_by = (*entry)->created_by;
      m.lineage = (*entry)->lineage;
      m.allowed_principals.assign((*entry)->allowed_principals.begin(),
                                  (*entry)->allowed_principals.end());
      out.push_back(std::move(m));
    }
    return out;
  };
  adapter.snapshot_audit = [this] {
    std::vector<wal::AuditEventSnapshot> out;
    for (const AuditEvent& event : models_.audit_log()) {
      out.push_back(wal::AuditEventSnapshot{
          static_cast<uint8_t>(event.kind), event.model, event.principal,
          event.version, event.rows});
    }
    return out;
  };
  adapter.restore_model = [this](const wal::ModelSnapshot& m) -> Status {
    FLOCK_ASSIGN_OR_RETURN(ml::Pipeline pipeline,
                           ml::Pipeline::Deserialize(m.pipeline_text));
    return models_.RestoreModel(
        m.name, std::move(pipeline), m.version, m.created_by, m.lineage,
        std::set<std::string>(m.allowed_principals.begin(),
                              m.allowed_principals.end()));
  };
  adapter.restore_audit = [this](std::vector<wal::AuditEventSnapshot> a) {
    std::vector<AuditEvent> events;
    events.reserve(a.size());
    for (const wal::AuditEventSnapshot& e : a) {
      events.push_back(AuditEvent{static_cast<AuditEvent::Kind>(e.kind),
                                  e.model, e.principal, e.version,
                                  static_cast<size_t>(e.rows)});
    }
    models_.RestoreAuditLog(std::move(events));
  };
  adapter.replay_deploy = [this](const std::string& name,
                                 const std::string& pipeline_text,
                                 const std::string& created_by,
                                 const std::string& lineage) -> Status {
    FLOCK_ASSIGN_OR_RETURN(ml::Pipeline pipeline,
                           ml::Pipeline::Deserialize(pipeline_text));
    return models_.Register(name, std::move(pipeline), created_by,
                            lineage);
  };
  adapter.replay_drop = [this](const std::string& name,
                               const std::string& principal) -> Status {
    return models_.Drop(name, principal);
  };
  adapter.replay_access_control =
      [this](const std::string& name,
             const std::vector<std::string>& principals) -> Status {
    return models_.SetAccessControl(
        name, std::set<std::string>(principals.begin(), principals.end()));
  };
  adapter.snapshot_rollouts = [this] {
    std::vector<wal::RolloutSnapshot> out;
    out.reserve(rollouts_.size());
    for (const auto& [key, rollout] : rollouts_) out.push_back(rollout);
    return out;
  };
  // Callers hold the exclusive lock.
  adapter.apply_rollout =
      [this](const wal::RolloutSnapshot& rollout) -> Status {
    return ApplyRolloutLocked(rollout);
  };
  return adapter;
}

Status FlockEngine::OpenLocked(const std::string& data_dir,
                               const FlockDurabilityConfig& config,
                               uint64_t initial_epoch) {
  if (durability_ != nullptr) {
    return Status::InvalidArgument("engine is already durable against " +
                                   durability_->directory());
  }

  wal::DurabilityOptions options;
  options.fsync_policy = config.fsync_policy;
  options.initial_epoch = initial_epoch;

  FLOCK_ASSIGN_OR_RETURN(
      durability_,
      wal::DurabilityManager::Open(data_dir, &db_, config.catalog,
                                   config.policy, BuildStateAdapter(),
                                   std::move(options)));
  // Recovery mutated tables and models behind the SQL layer's back; any
  // cached plan would serve pre-recovery state.
  sql_engine_.plan_cache()->Clear();
  return Status::OK();
}

Status FlockEngine::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "engine has no data directory (call Open first)");
  }
  FLOCK_RETURN_NOT_OK(durability_->Checkpoint());
  // Persist the slow-query log next to the checkpoint so outliers
  // survive restarts for postmortems. Best-effort: the log is derived
  // observability state, so a write failure must not fail the
  // checkpoint.
  std::ofstream out(durability_->directory() + "/slowlog.json",
                    std::ios::trunc);
  if (out.is_open()) out << sql_engine_.slow_log()->ToJson() << "\n";
  return Status::OK();
}

StatusOr<sql::QueryResult> FlockEngine::Execute(
    const std::string& sql, const sql::ExecOptions& exec_opts) {
  FLOCK_ASSIGN_OR_RETURN(sql::LexedStatement stmt, sql::LexStatement(sql));
  return ExecuteLexed(stmt, exec_opts);
}

StatusOr<sql::QueryResult> FlockEngine::ExecuteScript(
    const std::string& sql, const sql::ExecOptions& exec_opts) {
  if (replica_) {
    // Scripts may interleave DDL/DML; a replica rejects them wholesale
    // rather than partially applying the read-only prefix.
    return Status::Redirect(
        "replica is read-only; send scripts to the primary");
  }
  FLOCK_ASSIGN_OR_RETURN(std::vector<sql::LexedStatement> stmts,
                         sql::LexScript(sql));
  sql::QueryResult last;
  for (const sql::LexedStatement& stmt : stmts) {
    FLOCK_ASSIGN_OR_RETURN(last, ExecuteLexed(stmt, exec_opts));
  }
  return last;
}

StatusOr<sql::QueryResult> FlockEngine::ExecuteLexed(
    const sql::LexedStatement& stmt, const sql::ExecOptions& exec_opts) {
  if (stmt.read_only) {
    std::shared_lock<std::shared_mutex> lock(engine_mu_);
    return sql_engine_.Execute(stmt, exec_opts);
  }
  if (replica_) {  // a replica serves only SELECT and EXPLAIN
    return Status::Redirect(
        "replica is read-only; send writes and DDL to the primary");
  }
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  StatusOr<sql::QueryResult> result = sql_engine_.Execute(stmt, exec_opts);
  // Commit point: a statement whose WAL append failed must not be
  // acknowledged, though its in-memory mutation happened (the log is
  // wedged; health() is sticky).
  if (durability_ != nullptr) FLOCK_RETURN_NOT_OK(durability_->health());
  return result;
}

Status FlockEngine::DeployModel(const std::string& name,
                                ml::Pipeline pipeline,
                                const std::string& created_by,
                                const std::string& lineage) {
  if (replica_) {
    return Status::Redirect(
        "replica is read-only; deploy models on the primary");
  }
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  // Redeploys supersede cross-optimizer specializations referenced by
  // cached plans; drop them all.
  sql_engine_.plan_cache()->Clear();
  std::string pipeline_text;
  if (durability_ != nullptr) pipeline_text = pipeline.Serialize();
  FLOCK_RETURN_NOT_OK(
      models_.Register(name, std::move(pipeline), created_by, lineage));
  return Log(
      wal::WalRecord::DeployModel(name, pipeline_text, created_by, lineage));
}

Status FlockEngine::SetAccessControl(const std::string& name,
                                     std::set<std::string> principals) {
  if (replica_) {
    return Status::Redirect(
        "replica is read-only; change model access on the primary");
  }
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  std::vector<std::string> logged(principals.begin(), principals.end());
  FLOCK_RETURN_NOT_OK(models_.SetAccessControl(name, std::move(principals)));
  sql_engine_.plan_cache()->Clear();
  return Log(wal::WalRecord::AccessControl(name, std::move(logged)));
}

Status FlockEngine::Log(const wal::WalRecord& record) {
  return durability_ == nullptr ? Status::OK() : durability_->Log(record);
}

DeployTransaction FlockEngine::BeginDeployment() {
  return DeployTransaction(
      &models_, &engine_mu_,
      [this](const std::vector<CommittedDeployOp>& committed) {
        sql_engine_.plan_cache()->Clear();
        if (durability_ == nullptr) return;
        for (const CommittedDeployOp& op : committed) {
          (void)durability_->Log(
              op.is_drop ? wal::WalRecord::DropModel(op.name, op.created_by)
                         : wal::WalRecord::DeployModel(
                               op.name, op.pipeline_text, op.created_by,
                               op.lineage));
        }
      },
      [this]() { sql_engine_.plan_cache()->Clear(); });
}

void FlockEngine::SetFeatureObserver(FeatureObserver* observer) {
  context_->observer.store(observer, std::memory_order_release);
}

void FlockEngine::SetScoreCoalescer(ScoreCoalescer* coalescer) {
  context_->coalescer.store(coalescer, std::memory_order_release);
}

Status FlockEngine::ApplyRolloutLocked(
    const wal::RolloutSnapshot& rollout) {
  const std::string spec_key = RolloutCandidateKey(rollout.model);
  if (rollout.state <= 2) {
    // staged / shadow / canary: the candidate must be scoreable. Install
    // it as a specialization of the live model — not a registry version —
    // so plain PREDICT(model, ...) still resolves to the live entry and
    // only rewritten candidate traffic reaches it.
    FLOCK_ASSIGN_OR_RETURN(
        ml::Pipeline pipeline,
        ml::Pipeline::Deserialize(rollout.candidate_pipeline_text));
    ModelEntry entry;
    entry.name = spec_key;
    entry.base_name = rollout.model;
    FLOCK_ASSIGN_OR_RETURN(entry.graph, pipeline.Compile());
    entry.pipeline = std::move(pipeline);
    FLOCK_RETURN_NOT_OK(
        models_.RegisterSpecialization(spec_key, std::move(entry)));
  } else {
    // live / rolled_back: candidate traffic stops. (Promotion's Register
    // already erased the spec; rollback retires it here.)
    models_.RemoveSpecialization(spec_key);
  }
  rollouts_[ToLower(rollout.model)] = rollout;
  // Cached plans may reference the superseded (or freshly installed)
  // candidate specialization.
  sql_engine_.plan_cache()->Clear();
  return Status::OK();
}

Status FlockEngine::UpdateRolloutState(const wal::RolloutSnapshot& rollout) {
  if (replica_) {
    return Status::Redirect(
        "replica is read-only; manage rollouts on the primary");
  }
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  FLOCK_RETURN_NOT_OK(ApplyRolloutLocked(rollout));
  return Log(wal::WalRecord::RolloutChange(rollout));
}

std::vector<wal::RolloutSnapshot> FlockEngine::RolloutStates() const {
  std::shared_lock<std::shared_mutex> lock(engine_mu_);
  std::vector<wal::RolloutSnapshot> out;
  out.reserve(rollouts_.size());
  for (const auto& [key, rollout] : rollouts_) out.push_back(rollout);
  return out;
}

}  // namespace flock::flock
