#ifndef FLOCK_LIFECYCLE_ROLLOUT_H_
#define FLOCK_LIFECYCLE_ROLLOUT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "flock/flock_engine.h"
#include "lifecycle/monitor.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "sql/engine.h"

namespace flock::lifecycle {

/// Stage of a model rollout. The byte values are the wire/WAL encoding
/// (wal::RolloutSnapshot::state) — do not renumber.
enum class RolloutStage : uint8_t {
  kStaged = 0,      // candidate deployed as a specialization, no traffic
  kShadow = 1,      // every scoring query also scores the candidate
  kCanary = 2,      // a deterministic fraction of sessions gets the candidate
  kLive = 3,        // candidate promoted to the live version
  kRolledBack = 4,  // candidate retired (guard breach or manual abort)
};

const char* StageName(RolloutStage stage);

/// Guard rules evaluated after every shadow/canary request. A breached
/// guard triggers automatic rollback; a limit of 0 disables that guard.
struct GuardConfig {
  /// Max fraction of compared rows whose predictions diverge (candidate
  /// errors count as fully diverged rows).
  double max_divergence_rate = 0.05;
  /// Max candidate-p99 / live-p99 latency ratio.
  double max_latency_regression = 3.0;
  /// Max feature drift (ModelMonitor::DriftScore) in training std-devs.
  double max_drift_score = 6.0;
  /// Guards stay silent until this many observations accumulate.
  uint64_t min_observations = 200;
};

struct RolloutConfig {
  /// Sessions-per-thousand routed to the candidate in canary stage.
  uint32_t canary_permille = 100;
  GuardConfig guard;
};

/// Point-in-time view of one rollout: durable identity plus the
/// process-local serving statistics the guards evaluate.
struct RolloutStatusView {
  std::string model;
  RolloutStage stage = RolloutStage::kStaged;
  uint32_t canary_permille = 0;
  std::string initiated_by;
  uint64_t live_version = 0;
  uint64_t shadow_scored = 0;
  uint64_t canary_routed = 0;
  uint64_t canary_fallbacks = 0;
  uint64_t compared_rows = 0;
  uint64_t diverged_rows = 0;
  uint64_t candidate_errors = 0;
  double max_divergence = 0.0;
  double live_p99_ms = 0.0;
  double candidate_p99_ms = 0.0;
  double drift_score = 0.0;
  std::string guard_breach;  // empty while healthy
};

/// Rewrites the model-name argument of every PREDICT / PREDICT_{GT,GE,
/// LT,LE} call naming `model` to `replacement`. Routing reads tokens: a
/// call is a PREDICT-family token, then `(`, then an identifier or
/// string token equal to `model` ignoring case (`churn`, `'churn'`,
/// `"churn"`), and the replacement is spliced over exactly that token's
/// source bytes. Comments, string literals and every other token are
/// untouched. Returns the input unchanged when no call references the
/// model or the text does not lex. Exposed for tests.
std::string RewritePredictCalls(const std::string& sql,
                                const std::string& model,
                                const std::string& replacement);

/// Drives a model version through staged → shadow → canary → live, with
/// `rolled_back` as the failure exit (paper §4.2: deployment is a
/// first-class, governed lifecycle step, not a file copy).
///
/// The durable truth (stage, candidate pipeline, guard limits) lives in
/// the engine's rollout store — every transition goes through
/// FlockEngine::UpdateRolloutState, which WAL-logs it, so rollouts survive
/// crash recovery and replicate to read replicas. This class adds the
/// process-local serving machinery on top: the interceptor that shadow-
/// scores / canary-routes traffic, the drift monitor, and the guard loop
/// that rolls back automatically through DeployTransaction.
///
/// Thread safety: Intercept runs concurrently on serve worker threads;
/// transitions (Begin/Promote/Abort and automatic rollback) serialize on
/// an internal mutex and never run under an engine lock.
class RolloutManager {
 public:
  explicit RolloutManager(flock::FlockEngine* engine);
  ~RolloutManager();

  RolloutManager(const RolloutManager&) = delete;
  RolloutManager& operator=(const RolloutManager&) = delete;

  /// Adopts the rollouts recovered into the engine (crash recovery or
  /// replica bootstrap) and attaches the drift monitor to the PREDICT
  /// kernels. Call once after FlockEngine::Open, before serving.
  Status Resume();

  /// Starts a rollout of `source_model`'s latest pipeline as the
  /// candidate for `model` (begins in kStaged; Promote advances it).
  Status Begin(const std::string& model, const std::string& source_model,
               const RolloutConfig& config, const std::string& initiated_by);

  /// Same, with the candidate pipeline supplied directly.
  Status BeginWithPipeline(const std::string& model, ml::Pipeline candidate,
                           const RolloutConfig& config,
                           const std::string& initiated_by);

  /// Advances one stage: staged→shadow, shadow→canary, canary→live. The
  /// final promotion registers the candidate as the model's new version
  /// through DeployTransaction (atomic cutover under the engine lock).
  Status Promote(const std::string& model);

  /// Manually retires the candidate (→ rolled_back). The live version is
  /// untouched, so no redeploy is needed — retiring the specialization
  /// under the engine's exclusive lock is the whole cutover.
  Status Abort(const std::string& model);

  StatusOr<RolloutStatusView> Describe(const std::string& model) const;
  std::vector<RolloutStatusView> ListRollouts() const;

  /// {"rollouts": [{...status..., "monitor": {...}}, ...]}
  std::string StatusJson() const;

  /// The serving hook: returns live results while shadow-scoring or
  /// canary-routing the candidate. Falls back to the live model on any
  /// candidate failure, so no request ever fails because of a rollout.
  /// Matches serve::ServerOptions::interceptor.
  StatusOr<sql::QueryResult> Intercept(
      const std::string& principal, const std::string& sql,
      const std::function<StatusOr<sql::QueryResult>(const std::string&)>&
          execute);

  std::function<StatusOr<sql::QueryResult>(
      const std::string&, const std::string&,
      const std::function<StatusOr<sql::QueryResult>(const std::string&)>&)>
  MakeInterceptor();

  /// Publishes lifecycle.* counters/gauges/histograms.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  ModelMonitor* monitor() { return &monitor_; }

  uint64_t auto_rollbacks() const {
    return auto_rollbacks_.load(std::memory_order_relaxed);
  }
  uint64_t promotions() const {
    return promotions_.load(std::memory_order_relaxed);
  }

 private:
  /// One tracked rollout. Identity and guard limits are immutable after
  /// construction; `stage`/`finalizing` and the counters are atomics so
  /// serve workers never take the manager mutex on the scoring path.
  struct ActiveRollout {
    std::string model;  // as stored in the durable snapshot
    uint32_t canary_permille = 0;
    GuardConfig guard;
    std::string initiated_by;
    uint64_t live_version = 0;
    std::string candidate_pipeline_text;

    std::atomic<uint8_t> stage{0};
    /// Claimed (exactly once) by whichever terminal transition fires
    /// first — automatic rollback, Abort, or the final Promote.
    std::atomic<bool> finalizing{false};

    std::atomic<uint64_t> shadow_scored{0};
    std::atomic<uint64_t> canary_routed{0};
    std::atomic<uint64_t> canary_fallbacks{0};
    std::atomic<uint64_t> compared_rows{0};
    std::atomic<uint64_t> diverged_rows{0};
    std::atomic<uint64_t> candidate_errors{0};
    std::atomic<double> max_divergence{0.0};
    obs::Histogram live_latency;       // µs
    obs::Histogram candidate_latency;  // µs

    mutable std::mutex breach_mu;
    std::string guard_breach;
  };

  static std::shared_ptr<ActiveRollout> FromSnapshot(
      const wal::RolloutSnapshot& snapshot);
  static wal::RolloutSnapshot ToSnapshot(const ActiveRollout& rollout,
                                         uint8_t state);

  std::shared_ptr<ActiveRollout> Find(const std::string& model) const;
  void RecountActive();
  RolloutStatusView BuildView(const ActiveRollout& rollout) const;

  StatusOr<sql::QueryResult> ShadowExecute(
      const std::shared_ptr<ActiveRollout>& rollout,
      const std::string& sql, const std::string& rewritten,
      const std::function<StatusOr<sql::QueryResult>(const std::string&)>&
          execute);
  StatusOr<sql::QueryResult> CanaryExecute(
      const std::shared_ptr<ActiveRollout>& rollout,
      const std::string& principal, const std::string& sql,
      const std::string& rewritten,
      const std::function<StatusOr<sql::QueryResult>(const std::string&)>&
          execute);

  /// Counts divergence between the live and candidate result batches.
  void CompareResults(const storage::RecordBatch& live,
                      const storage::RecordBatch& candidate,
                      ActiveRollout* rollout);

  /// Evaluates the guard rules; on the first breach, claims the rollout
  /// and rolls back automatically.
  void CheckGuards(const std::shared_ptr<ActiveRollout>& rollout);

  /// Re-registers the pinned live version through DeployTransaction
  /// (Register's specialization prefix-erase retires the candidate
  /// atomically under the engine's exclusive lock), then records the
  /// terminal rolled_back state. Caller has claimed `finalizing`.
  Status RollBack(const std::shared_ptr<ActiveRollout>& rollout,
                  const std::string& reason);

  uint64_t Sum(
      const std::function<uint64_t(const ActiveRollout&)>& fn) const;

  flock::FlockEngine* engine_;
  ModelMonitor monitor_;
  mutable std::mutex mu_;
  /// All rollouts this process knows, keyed by lowercased model name —
  /// active and terminal (terminal ones keep their stats inspectable).
  std::map<std::string, std::shared_ptr<ActiveRollout>> rollouts_;
  /// Rollouts in shadow/canary; the interceptor's fast path checks this
  /// single atomic and stays out of the way when it is zero.
  std::atomic<size_t> active_count_{0};
  std::atomic<uint64_t> auto_rollbacks_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> guard_breaches_{0};
};

}  // namespace flock::lifecycle

#endif  // FLOCK_LIFECYCLE_ROLLOUT_H_
