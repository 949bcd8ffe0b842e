#include "flock/model_registry.h"

#include "common/string_util.h"

namespace flock::flock {

namespace {
std::string Key(const std::string& name) { return ToLower(name); }
}  // namespace

Status ModelRegistry::AnalyzeEntry(ModelEntry* entry) {
  // Compiled once, at deploy/specialize time. There is no second engine,
  // so a graph the kernel refuses (not finalized since its last change, or
  // an ensemble too large for int32 node indices) is refused here.
  auto kernel = std::make_shared<ml::DenseKernel>(entry->graph);
  FLOCK_RETURN_NOT_OK(kernel->status());
  entry->kernel = std::move(kernel);
  entry->training_profile.mean = entry->pipeline.scaler_means();
  entry->training_profile.std = entry->pipeline.scaler_stds();
  entry->tree_node_id = -1;
  for (const ml::GraphNode& node : entry->graph.nodes()) {
    if (node.op == ml::OpType::kTreeEnsemble) entry->tree_node_id = node.id;
  }
  return Status::OK();
}

Status ModelRegistry::Register(const std::string& name,
                               ml::Pipeline pipeline,
                               const std::string& created_by,
                               const std::string& lineage) {
  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->created_by = created_by;
  entry->lineage = lineage;
  FLOCK_ASSIGN_OR_RETURN(entry->graph, pipeline.Compile());
  entry->pipeline = std::move(pipeline);
  FLOCK_RETURN_NOT_OK(AnalyzeEntry(entry.get()));

  std::lock_guard<std::mutex> lock(mu_);
  auto& history = models_[Key(name)];
  entry->version = history.empty() ? 1 : history.back()->version + 1;
  if (!history.empty()) {
    // New versions inherit the access policy.
    entry->allowed_principals = history.back()->allowed_principals;
  }
  history.push_back(entry);
  // Invalidate cached specializations of this model.
  for (auto it = specializations_.begin(); it != specializations_.end();) {
    if (StartsWith(it->first, Key(name) + "#")) {
      it = specializations_.erase(it);
    } else {
      ++it;
    }
  }
  audit_log_.push_back(AuditEvent{AuditEvent::Kind::kRegister, name,
                                  created_by, entry->version, 0});
  return Status::OK();
}

Status ModelRegistry::RestoreModel(const std::string& name,
                                   ml::Pipeline pipeline, uint64_t version,
                                   const std::string& created_by,
                                   const std::string& lineage,
                                   std::set<std::string> allowed_principals) {
  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->version = version;
  entry->created_by = created_by;
  entry->lineage = lineage;
  entry->allowed_principals = std::move(allowed_principals);
  FLOCK_ASSIGN_OR_RETURN(entry->graph, pipeline.Compile());
  entry->pipeline = std::move(pipeline);
  FLOCK_RETURN_NOT_OK(AnalyzeEntry(entry.get()));

  std::lock_guard<std::mutex> lock(mu_);
  auto& history = models_[Key(name)];
  if (!history.empty() && history.back()->version >= version) {
    return Status::InvalidArgument(
        "restored version " + std::to_string(version) + " of model '" +
        name + "' is not newer than the registry's version " +
        std::to_string(history.back()->version));
  }
  history.push_back(std::move(entry));
  return Status::OK();
}

void ModelRegistry::RestoreAuditLog(std::vector<AuditEvent> events) {
  std::lock_guard<std::mutex> lock(mu_);
  audit_log_ = std::move(events);
}

std::vector<AuditEvent> ModelRegistry::audit_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_log_;
}

void ModelRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  models_.clear();
  specializations_.clear();
  audit_log_.clear();
}

Status ModelRegistry::Drop(const std::string& name,
                           const std::string& principal) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end()) {
    return Status::NotFound("model not found: " + name);
  }
  models_.erase(it);
  for (auto sit = specializations_.begin();
       sit != specializations_.end();) {
    if (StartsWith(sit->first, Key(name) + "#")) {
      sit = specializations_.erase(sit);
    } else {
      ++sit;
    }
  }
  audit_log_.push_back(
      AuditEvent{AuditEvent::Kind::kDrop, name, principal, 0, 0});
  return Status::OK();
}

StatusOr<const ModelEntry*> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end() || it->second.empty()) {
    return Status::NotFound("model not found: " + name);
  }
  return it->second.back().get();
}

StatusOr<const ModelEntry*> ModelRegistry::GetVersion(
    const std::string& name, uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end()) {
    return Status::NotFound("model not found: " + name);
  }
  for (const auto& entry : it->second) {
    if (entry->version == version) return entry.get();
  }
  return Status::NotFound("model " + name + " has no version " +
                          std::to_string(version));
}

StatusOr<ScoringGrant> ModelRegistry::GetForScoring(
    const std::string& name, const std::string& principal,
    size_t rows) const {
  std::lock_guard<std::mutex> lock(mu_);
  ScoringGrant grant;
  grant.model = name;
  if (name.find('#') != std::string::npos) {
    auto spec = specializations_.find(Key(name));
    if (spec == specializations_.end()) {
      return Status::NotFound("specialization not found: " + name);
    }
    grant.entry = spec->second;
    grant.model = spec->second->base_name;
    if (grant.model.empty()) return grant;
  }
  auto it = models_.find(Key(grant.model));
  if (it == models_.end() || it->second.empty()) {
    return Status::NotFound("model not found: " + grant.model);
  }
  const ModelEntry& policy = *it->second.back();
  if (grant.entry == nullptr) grant.entry = it->second.back();
  grant.version = policy.version;
  if (!policy.allowed_principals.empty() &&
      policy.allowed_principals.count(principal) == 0) {
    audit_log_.push_back(AuditEvent{AuditEvent::Kind::kDenied, grant.model,
                                    principal, grant.version, rows});
    return Status::PermissionDenied("principal '" + principal +
                                    "' may not score model " + grant.model);
  }
  return grant;
}

void ModelRegistry::RecordScore(const ScoringGrant& grant,
                                const std::string& principal,
                                size_t rows) const {
  if (grant.model.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  audit_log_.push_back(AuditEvent{AuditEvent::Kind::kScore, grant.model,
                                  principal, grant.version, rows});
}

Status ModelRegistry::SetAccessControl(const std::string& name,
                                       std::set<std::string> principals) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end() || it->second.empty()) {
    return Status::NotFound("model not found: " + name);
  }
  it->second.back()->allowed_principals = std::move(principals);
  return Status::OK();
}

bool ModelRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.count(Key(name)) > 0;
}

std::vector<std::string> ModelRegistry::ListModels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [key, history] : models_) {
    if (!history.empty()) out.push_back(history.back()->name);
  }
  return out;
}

uint64_t ModelRegistry::CurrentVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end() || it->second.empty()) return 0;
  return it->second.back()->version;
}

Status ModelRegistry::RegisterSpecialization(const std::string& key,
                                             ModelEntry entry) {
  auto shared = std::make_shared<ModelEntry>(std::move(entry));
  FLOCK_RETURN_NOT_OK(AnalyzeEntry(shared.get()));
  std::lock_guard<std::mutex> lock(mu_);
  specializations_[Key(key)] = std::move(shared);
  audit_log_.push_back(AuditEvent{AuditEvent::Kind::kSpecialize, key,
                                  "optimizer", 0, 0});
  return Status::OK();
}

StatusOr<const ModelEntry*> ModelRegistry::GetSpecialization(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = specializations_.find(Key(key));
  if (it == specializations_.end()) {
    return Status::NotFound("specialization not found: " + key);
  }
  return it->second.get();
}

bool ModelRegistry::HasSpecialization(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return specializations_.count(Key(key)) > 0;
}

void ModelRegistry::RemoveSpecialization(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  specializations_.erase(Key(key));
}

void ModelRegistry::ClearSpecializations() {
  std::lock_guard<std::mutex> lock(mu_);
  specializations_.clear();
}

size_t ModelRegistry::num_specializations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return specializations_.size();
}

}  // namespace flock::flock
