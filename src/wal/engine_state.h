#ifndef FLOCK_WAL_ENGINE_STATE_H_
#define FLOCK_WAL_ENGINE_STATE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace flock::wal {

/// Serializable view of one deployed model. Only durable metadata is
/// captured; compiled graphs, optimizer specializations, and scoring
/// caches are derived state, rebuilt after restore.
struct ModelSnapshot {
  std::string name;
  uint64_t version = 0;
  std::string pipeline_text;  // ml::Pipeline::Serialize()
  std::string created_by;
  std::string lineage;
  std::vector<std::string> allowed_principals;  // empty = public
};

/// Serializable view of one registry audit event (mirrors
/// flock::AuditEvent without the enum dependency).
struct AuditEventSnapshot {
  uint8_t kind = 0;
  std::string model;
  std::string principal;
  uint64_t version = 0;
  uint64_t rows = 0;
};

/// Serializable view of one model rollout (mirrors
/// lifecycle::RolloutState without the enum dependency). Each WAL record
/// carries the *complete* rollout — candidate pipeline and guard config
/// included — so replaying any prefix of transitions lands on exactly the
/// state the last transition committed, with no cross-record lookups.
struct RolloutSnapshot {
  std::string model;
  /// 0 = staged, 1 = shadow, 2 = canary, 3 = live, 4 = rolled_back.
  uint8_t state = 0;
  /// Sessions routed to the candidate in canary, out of 1000.
  uint32_t canary_permille = 0;
  std::string candidate_pipeline_text;  // ml::Pipeline::Serialize()
  std::string initiated_by;
  /// Version that was live when the rollout began (rollback target).
  uint64_t live_version = 0;
  // Guard rules; <= 0 disables the corresponding guard.
  double max_divergence_rate = 0.0;
  double max_latency_regression = 0.0;
  double max_drift_score = 0.0;
  uint64_t min_observations = 0;
};

/// Callbacks bridging the durability subsystem to the model registry.
///
/// The WAL library sits below flock_core (which owns FlockEngine and
/// ModelRegistry and links against flock_wal), so it cannot name those
/// types; the engine hands Open() this adapter instead. Each callback
/// must be safe to invoke during recovery (single-threaded, before the
/// engine serves traffic) and during checkpoints (under the engine's
/// exclusive statement lock).
struct EngineStateAdapter {
  /// All current model versions plus the registry audit log.
  std::function<std::vector<ModelSnapshot>()> snapshot_models;
  std::function<std::vector<AuditEventSnapshot>()> snapshot_audit;

  /// Restores one model at its exact recorded version (no audit event,
  /// no re-validation side effects beyond compilation).
  std::function<Status(const ModelSnapshot&)> restore_model;
  std::function<void(std::vector<AuditEventSnapshot>)> restore_audit;

  /// WAL replay of a committed deploy: registers the pipeline exactly as
  /// the original CREATE MODEL / deploy did (audit event included, so the
  /// audit trail regenerates deterministically).
  std::function<Status(const std::string& name,
                       const std::string& pipeline_text,
                       const std::string& created_by,
                       const std::string& lineage)>
      replay_deploy;

  /// WAL replay of a committed drop.
  std::function<Status(const std::string& name,
                       const std::string& principal)>
      replay_drop;

  /// WAL replay of a committed access-list change (empty = public).
  std::function<Status(const std::string& name,
                       const std::vector<std::string>& principals)>
      replay_access_control;

  /// All rollouts (active and terminal) for checkpointing.
  std::function<std::vector<RolloutSnapshot>()> snapshot_rollouts;

  /// Installs one rollout, from a snapshot image or a WAL transition
  /// record alike: each carries the complete post-transition state, so
  /// applying the latest one overwrites the stored state for the model
  /// (and installs the candidate specialization while it is active).
  std::function<Status(const RolloutSnapshot&)> apply_rollout;
};

}  // namespace flock::wal

#endif  // FLOCK_WAL_ENGINE_STATE_H_
