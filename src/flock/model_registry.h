#ifndef FLOCK_FLOCK_MODEL_REGISTRY_H_
#define FLOCK_FLOCK_MODEL_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "ml/dense_kernel.h"
#include "ml/graph.h"
#include "ml/pipeline.h"

namespace flock::flock {

/// Per-input training-time feature statistics, captured from the fitted
/// pipeline when the model is registered. The lifecycle drift monitor
/// compares live feature distributions against these; empty when the
/// pipeline has no scaler (nothing to compare against).
struct TrainingProfile {
  std::vector<double> mean;  // one per raw input
  std::vector<double> std;
  bool empty() const { return mean.empty(); }
};

/// A deployed model: the paper's "models as first-class data types in a
/// DBMS" (§4.1). Carries the inference pipeline, its compiled graph, and
/// the enterprise metadata (version, lineage pointer, access control) that
/// §4.2 argues models must have "on par with other high-value data".
struct ModelEntry {
  std::string name;
  uint64_t version = 1;
  ml::Pipeline pipeline;
  ml::ModelGraph graph;  // compiled & finalized

  // --- governance ---
  std::string created_by;
  /// Free-form lineage pointer (provenance catalog entity id, training
  /// data snapshot, script hash, ...).
  std::string lineage;
  /// Principals allowed to score; empty = public.
  std::set<std::string> allowed_principals;

  /// For optimizer specializations: the user-visible model this variant was
  /// derived from. Access control and audit are enforced against it.
  std::string base_name;

  /// For optimizer specializations: maps graph input column -> index of the
  /// original pipeline input it came from (empty = identity). Feature
  /// assembly uses this to pick the right encoding per argument.
  std::vector<size_t> input_mapping;

  // --- precomputed scoring metadata ---
  /// Index of the TreeEnsemble node, or -1.
  int tree_node_id = -1;
  /// Compiled dense-slot scoring kernel, the only scorer (built by
  /// AnalyzeEntry; shared and immutable, so entry copies stay cheap).
  /// Every registered entry has an ok kernel.
  std::shared_ptr<const ml::DenseKernel> kernel;
  /// Training-time feature statistics (from the pipeline's scaler) for
  /// drift monitoring.
  TrainingProfile training_profile;
};

/// One entry in the registry's audit trail.
struct AuditEvent {
  enum class Kind { kRegister, kDrop, kScore, kDenied, kSpecialize };
  Kind kind;
  std::string model;
  std::string principal;
  uint64_t version = 0;
  size_t rows = 0;
};

/// What a principal may score through: the pinned entry, and the model
/// (name, version) whose access list admitted it and that its scoring is
/// audited under — a specialization's base, or none (`model` empty) for a
/// specialization without one.
struct ScoringGrant {
  std::shared_ptr<const ModelEntry> entry;
  std::string model;
  uint64_t version = 0;
};

/// Thread-safe model catalog with versioning, access control, and an audit
/// log. Also stores the cross-optimizer's internal model specializations
/// (pruned/compressed variants), which are keyed by derived names and are
/// not user-visible.
class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers (or re-versions) `name`. The pipeline is compiled and
  /// validated here; an invalid pipeline, or a graph the scoring kernel
  /// cannot compile, never enters the catalog.
  Status Register(const std::string& name, ml::Pipeline pipeline,
                  const std::string& created_by = "system",
                  const std::string& lineage = "");

  Status Drop(const std::string& name,
              const std::string& principal = "system");

  /// Recovery: re-creates a model at its exact snapshotted version and
  /// access list, without emitting an audit event (restore reconstructs
  /// state, it does not re-deploy). The version must be newer than any
  /// already present so snapshot + WAL replay compose in order.
  Status RestoreModel(const std::string& name, ml::Pipeline pipeline,
                      uint64_t version, const std::string& created_by,
                      const std::string& lineage,
                      std::set<std::string> allowed_principals);

  /// Recovery: replaces the audit log with a snapshotted one.
  void RestoreAuditLog(std::vector<AuditEvent> events);

  /// Drops everything — models, specializations, audit trail. Replica
  /// re-bootstrap wipes the registry before installing a fresh snapshot
  /// (RestoreModel demands monotonic versions, so stale entries would
  /// poison the restore).
  void Reset();

  /// Latest version. NotFound if absent.
  StatusOr<const ModelEntry*> Get(const std::string& name) const;

  /// Specific version (versions are 1-based and monotonic).
  StatusOr<const ModelEntry*> GetVersion(const std::string& name,
                                         uint64_t version) const;

  /// Resolves `name` for scoring by `principal`: a plain name to its
  /// latest version, a key containing '#' to that specialization under
  /// its base model's access list (the optimizer must not become a
  /// permission bypass). PermissionDenied, audited as one DENIED event of
  /// `rows` rows, when the list excludes `principal`.
  StatusOr<ScoringGrant> GetForScoring(const std::string& name,
                                       const std::string& principal,
                                       size_t rows) const;

  /// Appends the SCORE event for `rows` rows scored through `grant`
  /// (nothing for a grant without an audit identity).
  void RecordScore(const ScoringGrant& grant, const std::string& principal,
                   size_t rows) const;

  /// Restricts scoring on `name` to `principals` (empty = public).
  /// FlockEngine::SetAccessControl is the durable, replicated entry point.
  Status SetAccessControl(const std::string& name,
                          std::set<std::string> principals);

  bool Contains(const std::string& name) const;
  std::vector<std::string> ListModels() const;
  uint64_t CurrentVersion(const std::string& name) const;

  /// Registers an optimizer-internal specialization under a derived key.
  /// InvalidArgument when the scoring kernel cannot compile its graph.
  Status RegisterSpecialization(const std::string& key, ModelEntry entry);
  StatusOr<const ModelEntry*> GetSpecialization(
      const std::string& key) const;
  bool HasSpecialization(const std::string& key) const;
  /// Removes one specialization (no-op if absent). Lifecycle rollouts
  /// install candidates as specializations and retire them here.
  void RemoveSpecialization(const std::string& key);
  void ClearSpecializations();
  size_t num_specializations() const;

  /// A copy of the audit trail, taken under the registry's lock, so it is
  /// safe while scorers append.
  std::vector<AuditEvent> audit_log() const;

  /// Fills `entry`'s precomputed scoring metadata (compiled kernel, tree
  /// node index, training profile). InvalidArgument when the graph is not
  /// a chain the kernel compiles; such an entry must not be deployed.
  /// Exposed for tests and benches that build entries by hand.
  static Status AnalyzeEntry(ModelEntry* entry);

 private:
  mutable std::mutex mu_;
  // name -> version history (back() is latest).
  std::map<std::string, std::vector<std::shared_ptr<ModelEntry>>> models_;
  std::map<std::string, std::shared_ptr<ModelEntry>> specializations_;
  mutable std::vector<AuditEvent> audit_log_;
};

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_MODEL_REGISTRY_H_
