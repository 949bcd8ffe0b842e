#include "lifecycle/rollout.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/json.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace flock::lifecycle {

namespace {

constexpr double kDivergenceEps = 1e-9;

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void UpdateMax(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

std::string FormatDouble(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

const char* StageName(RolloutStage stage) {
  switch (stage) {
    case RolloutStage::kStaged: return "staged";
    case RolloutStage::kShadow: return "shadow";
    case RolloutStage::kCanary: return "canary";
    case RolloutStage::kLive: return "live";
    case RolloutStage::kRolledBack: return "rolled_back";
  }
  return "unknown";
}

std::string RewritePredictCalls(const std::string& sql,
                                const std::string& model,
                                const std::string& replacement) {
  // Text that does not lex is no scoring query; the engine rejects it.
  StatusOr<std::vector<sql::Token>> lexed = sql::Tokenize(sql);
  if (!lexed.ok()) return sql;
  const std::vector<sql::Token>& tokens = *lexed;
  const std::string model_lower = ToLower(model);
  std::string out;
  size_t copied = 0;  // sql[0, copied) is already in `out`
  // A model argument is the token after `PREDICT*(`; the last token is
  // kEof, so tokens[t + 2] exists whenever tokens[t + 1] is not it.
  for (size_t t = 0; t + 2 < tokens.size(); ++t) {
    const sql::Token& call = tokens[t];
    const sql::Token& arg = tokens[t + 2];
    if ((call.type != sql::TokenType::kKeyword &&
         call.type != sql::TokenType::kIdentifier) ||
        !sql::IsPredictFunction(ToUpper(call.text)) ||
        tokens[t + 1].type != sql::TokenType::kLParen ||
        (arg.type != sql::TokenType::kIdentifier &&
         arg.type != sql::TokenType::kString) ||
        ToLower(arg.text) != model_lower) {
      continue;
    }
    out.append(sql, copied, arg.offset - copied);
    out += replacement;
    copied = arg.end;
    // A string literal touching the spliced one would fuse with it
    // ('x''y' lexes as one string); keep them apart.
    if (tokens[t + 3].type == sql::TokenType::kString &&
        tokens[t + 3].offset == arg.end) {
      out += ' ';
    }
  }
  if (copied == 0) return sql;
  out.append(sql, copied, std::string::npos);
  return out;
}

RolloutManager::RolloutManager(flock::FlockEngine* engine)
    : engine_(engine) {}

RolloutManager::~RolloutManager() { engine_->SetFeatureObserver(nullptr); }

std::shared_ptr<RolloutManager::ActiveRollout> RolloutManager::FromSnapshot(
    const wal::RolloutSnapshot& snapshot) {
  auto rollout = std::make_shared<ActiveRollout>();
  rollout->model = snapshot.model;
  rollout->canary_permille = snapshot.canary_permille;
  rollout->guard.max_divergence_rate = snapshot.max_divergence_rate;
  rollout->guard.max_latency_regression = snapshot.max_latency_regression;
  rollout->guard.max_drift_score = snapshot.max_drift_score;
  rollout->guard.min_observations = snapshot.min_observations;
  rollout->initiated_by = snapshot.initiated_by;
  rollout->live_version = snapshot.live_version;
  rollout->candidate_pipeline_text = snapshot.candidate_pipeline_text;
  rollout->stage.store(snapshot.state, std::memory_order_relaxed);
  if (snapshot.state >= static_cast<uint8_t>(RolloutStage::kLive)) {
    rollout->finalizing.store(true, std::memory_order_relaxed);
  }
  return rollout;
}

wal::RolloutSnapshot RolloutManager::ToSnapshot(
    const ActiveRollout& rollout, uint8_t state) {
  wal::RolloutSnapshot snapshot;
  snapshot.model = rollout.model;
  snapshot.state = state;
  snapshot.canary_permille = rollout.canary_permille;
  snapshot.candidate_pipeline_text = rollout.candidate_pipeline_text;
  snapshot.initiated_by = rollout.initiated_by;
  snapshot.live_version = rollout.live_version;
  snapshot.max_divergence_rate = rollout.guard.max_divergence_rate;
  snapshot.max_latency_regression = rollout.guard.max_latency_regression;
  snapshot.max_drift_score = rollout.guard.max_drift_score;
  snapshot.min_observations = rollout.guard.min_observations;
  return snapshot;
}

Status RolloutManager::Resume() {
  engine_->SetFeatureObserver(&monitor_);
  std::lock_guard<std::mutex> lock(mu_);
  for (const wal::RolloutSnapshot& snapshot : engine_->RolloutStates()) {
    rollouts_[ToLower(snapshot.model)] = FromSnapshot(snapshot);
  }
  size_t active = 0;
  for (const auto& [key, rollout] : rollouts_) {
    uint8_t stage = rollout->stage.load(std::memory_order_relaxed);
    if (stage == static_cast<uint8_t>(RolloutStage::kShadow) ||
        stage == static_cast<uint8_t>(RolloutStage::kCanary)) {
      ++active;
    }
  }
  active_count_.store(active, std::memory_order_release);
  return Status::OK();
}

Status RolloutManager::Begin(const std::string& model,
                             const std::string& source_model,
                             const RolloutConfig& config,
                             const std::string& initiated_by) {
  FLOCK_ASSIGN_OR_RETURN(const flock::ModelEntry* source,
                         engine_->models()->Get(source_model));
  return BeginWithPipeline(model, source->pipeline, config, initiated_by);
}

Status RolloutManager::BeginWithPipeline(const std::string& model,
                                         ml::Pipeline candidate,
                                         const RolloutConfig& config,
                                         const std::string& initiated_by) {
  if (config.canary_permille > 1000) {
    return Status::InvalidArgument("canary fraction must be <= 1000 permille");
  }
  if (!engine_->models()->Contains(model)) {
    return Status::NotFound("cannot roll out against unknown model '" +
                            model + "'");
  }
  const std::string key = ToLower(model);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rollouts_.find(key);
    if (it != rollouts_.end() &&
        it->second->stage.load(std::memory_order_relaxed) <
            static_cast<uint8_t>(RolloutStage::kLive)) {
      return Status::AlreadyExists("model '" + model +
                                   "' already has an active rollout");
    }
  }
  wal::RolloutSnapshot snapshot;
  snapshot.model = model;
  snapshot.state = static_cast<uint8_t>(RolloutStage::kStaged);
  snapshot.canary_permille = config.canary_permille;
  snapshot.candidate_pipeline_text = candidate.Serialize();
  snapshot.initiated_by = initiated_by;
  snapshot.live_version = engine_->models()->CurrentVersion(model);
  snapshot.max_divergence_rate = config.guard.max_divergence_rate;
  snapshot.max_latency_regression = config.guard.max_latency_regression;
  snapshot.max_drift_score = config.guard.max_drift_score;
  snapshot.min_observations = config.guard.min_observations;
  FLOCK_RETURN_NOT_OK(engine_->UpdateRolloutState(snapshot));
  std::lock_guard<std::mutex> lock(mu_);
  rollouts_[key] = FromSnapshot(snapshot);
  return Status::OK();
}

std::shared_ptr<RolloutManager::ActiveRollout> RolloutManager::Find(
    const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rollouts_.find(ToLower(model));
  return it == rollouts_.end() ? nullptr : it->second;
}

void RolloutManager::RecountActive() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t active = 0;
  for (const auto& [key, rollout] : rollouts_) {
    uint8_t stage = rollout->stage.load(std::memory_order_relaxed);
    if (stage == static_cast<uint8_t>(RolloutStage::kShadow) ||
        stage == static_cast<uint8_t>(RolloutStage::kCanary)) {
      ++active;
    }
  }
  active_count_.store(active, std::memory_order_release);
}

Status RolloutManager::Promote(const std::string& model) {
  std::shared_ptr<ActiveRollout> rollout = Find(model);
  if (rollout == nullptr) {
    return Status::NotFound("no rollout for model '" + model + "'");
  }
  const uint8_t stage = rollout->stage.load(std::memory_order_acquire);
  switch (static_cast<RolloutStage>(stage)) {
    case RolloutStage::kStaged:
    case RolloutStage::kShadow: {
      if (rollout->finalizing.load(std::memory_order_acquire)) {
        return Status::Aborted("rollout is rolling back");
      }
      const uint8_t next = stage + 1;
      FLOCK_RETURN_NOT_OK(
          engine_->UpdateRolloutState(ToSnapshot(*rollout, next)));
      rollout->stage.store(next, std::memory_order_release);
      RecountActive();
      return Status::OK();
    }
    case RolloutStage::kCanary: {
      if (rollout->finalizing.exchange(true, std::memory_order_acq_rel)) {
        return Status::Aborted("rollout is rolling back");
      }
      FLOCK_ASSIGN_OR_RETURN(
          ml::Pipeline pipeline,
          ml::Pipeline::Deserialize(rollout->candidate_pipeline_text));
      auto txn = engine_->BeginDeployment();
      txn.StageRegister(rollout->model, std::move(pipeline),
                        rollout->initiated_by, "rollout-promote");
      Status committed = txn.Commit();
      if (!committed.ok()) {
        rollout->finalizing.store(false, std::memory_order_release);
        return committed;
      }
      FLOCK_RETURN_NOT_OK(engine_->UpdateRolloutState(ToSnapshot(
          *rollout, static_cast<uint8_t>(RolloutStage::kLive))));
      rollout->stage.store(static_cast<uint8_t>(RolloutStage::kLive),
                           std::memory_order_release);
      promotions_.fetch_add(1, std::memory_order_relaxed);
      RecountActive();
      return Status::OK();
    }
    case RolloutStage::kLive:
    case RolloutStage::kRolledBack:
      return Status::Aborted(
          std::string("rollout already finished (") +
          StageName(static_cast<RolloutStage>(stage)) + ")");
  }
  return Status::Internal("corrupt rollout stage");
}

Status RolloutManager::Abort(const std::string& model) {
  std::shared_ptr<ActiveRollout> rollout = Find(model);
  if (rollout == nullptr) {
    return Status::NotFound("no rollout for model '" + model + "'");
  }
  if (rollout->stage.load(std::memory_order_acquire) >=
      static_cast<uint8_t>(RolloutStage::kLive)) {
    return Status::Aborted("rollout already finished");
  }
  if (rollout->finalizing.exchange(true, std::memory_order_acq_rel)) {
    return Status::Aborted("rollback already in progress");
  }
  // The live version never changed, so retiring the candidate
  // specialization (UpdateRolloutState with a terminal state) is the
  // whole cutover — atomic under the engine's exclusive lock.
  FLOCK_RETURN_NOT_OK(engine_->UpdateRolloutState(ToSnapshot(
      *rollout, static_cast<uint8_t>(RolloutStage::kRolledBack))));
  rollout->stage.store(static_cast<uint8_t>(RolloutStage::kRolledBack),
                       std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(rollout->breach_mu);
    rollout->guard_breach = "aborted by operator";
  }
  RecountActive();
  return Status::OK();
}

RolloutStatusView RolloutManager::BuildView(
    const ActiveRollout& rollout) const {
  RolloutStatusView view;
  view.model = rollout.model;
  view.stage = static_cast<RolloutStage>(
      rollout.stage.load(std::memory_order_acquire));
  view.canary_permille = rollout.canary_permille;
  view.initiated_by = rollout.initiated_by;
  view.live_version = rollout.live_version;
  view.shadow_scored = rollout.shadow_scored.load(std::memory_order_relaxed);
  view.canary_routed = rollout.canary_routed.load(std::memory_order_relaxed);
  view.canary_fallbacks =
      rollout.canary_fallbacks.load(std::memory_order_relaxed);
  view.compared_rows = rollout.compared_rows.load(std::memory_order_relaxed);
  view.diverged_rows = rollout.diverged_rows.load(std::memory_order_relaxed);
  view.candidate_errors =
      rollout.candidate_errors.load(std::memory_order_relaxed);
  view.max_divergence =
      rollout.max_divergence.load(std::memory_order_relaxed);
  view.live_p99_ms = rollout.live_latency.Percentile(0.99) / 1e3;
  view.candidate_p99_ms = rollout.candidate_latency.Percentile(0.99) / 1e3;
  view.drift_score = monitor_.DriftScore(rollout.model);
  {
    std::lock_guard<std::mutex> lock(rollout.breach_mu);
    view.guard_breach = rollout.guard_breach;
  }
  return view;
}

StatusOr<RolloutStatusView> RolloutManager::Describe(
    const std::string& model) const {
  std::shared_ptr<ActiveRollout> rollout = Find(model);
  if (rollout == nullptr) {
    return Status::NotFound("no rollout for model '" + model + "'");
  }
  return BuildView(*rollout);
}

std::vector<RolloutStatusView> RolloutManager::ListRollouts() const {
  std::vector<std::shared_ptr<ActiveRollout>> rollouts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rollouts.reserve(rollouts_.size());
    for (const auto& [key, rollout] : rollouts_) rollouts.push_back(rollout);
  }
  std::vector<RolloutStatusView> out;
  out.reserve(rollouts.size());
  for (const auto& rollout : rollouts) out.push_back(BuildView(*rollout));
  return out;
}

std::string RolloutManager::StatusJson() const {
  using obs::JsonEscape;
  using obs::JsonNumber;
  using std::to_string;
  std::vector<RolloutStatusView> views = ListRollouts();
  std::string out = "{\"rollouts\":[";
  for (size_t i = 0; i < views.size(); ++i) {
    const RolloutStatusView& v = views[i];
    if (i > 0) out += ",";
    out += "{\"model\":\"" + JsonEscape(v.model) + "\",\"stage\":\"" +
           StageName(v.stage) +
           "\",\"canary_permille\":" + to_string(v.canary_permille) +
           ",\"initiated_by\":\"" + JsonEscape(v.initiated_by) +
           "\",\"live_version\":" + to_string(v.live_version) +
           ",\"shadow_scored\":" + to_string(v.shadow_scored) +
           ",\"canary_routed\":" + to_string(v.canary_routed) +
           ",\"canary_fallbacks\":" + to_string(v.canary_fallbacks) +
           ",\"compared_rows\":" + to_string(v.compared_rows) +
           ",\"diverged_rows\":" + to_string(v.diverged_rows) +
           ",\"candidate_errors\":" + to_string(v.candidate_errors) +
           ",\"max_divergence\":" + JsonNumber(v.max_divergence) +
           ",\"live_p99_ms\":" + JsonNumber(v.live_p99_ms) +
           ",\"candidate_p99_ms\":" + JsonNumber(v.candidate_p99_ms) +
           ",\"drift_score\":" + JsonNumber(v.drift_score) +
           ",\"guard_breach\":\"" + JsonEscape(v.guard_breach) +
           "\",\"monitor\":" + monitor_.StatusJson(v.model) + "}";
  }
  out += "]}";
  return out;
}

StatusOr<sql::QueryResult> RolloutManager::Intercept(
    const std::string& principal, const std::string& sql,
    const std::function<StatusOr<sql::QueryResult>(const std::string&)>&
        execute) {
  if (active_count_.load(std::memory_order_acquire) == 0) {
    return execute(sql);
  }
  std::shared_ptr<ActiveRollout> rollout;
  std::string rewritten;
  uint8_t stage = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, candidate] : rollouts_) {
      const uint8_t s = candidate->stage.load(std::memory_order_acquire);
      if (s != static_cast<uint8_t>(RolloutStage::kShadow) &&
          s != static_cast<uint8_t>(RolloutStage::kCanary)) {
        continue;
      }
      std::string rw = RewritePredictCalls(
          sql, candidate->model,
          StrCat("'", flock::RolloutCandidateKey(candidate->model)) + "'");
      if (rw != sql) {
        rollout = candidate;
        rewritten = std::move(rw);
        stage = s;
        break;
      }
    }
  }
  if (rollout == nullptr) return execute(sql);  // not a scoring query
  if (stage == static_cast<uint8_t>(RolloutStage::kShadow)) {
    return ShadowExecute(rollout, sql, rewritten, execute);
  }
  return CanaryExecute(rollout, principal, sql, rewritten, execute);
}

std::function<StatusOr<sql::QueryResult>(
    const std::string&, const std::string&,
    const std::function<StatusOr<sql::QueryResult>(const std::string&)>&)>
RolloutManager::MakeInterceptor() {
  return [this](const std::string& principal, const std::string& sql,
                const std::function<StatusOr<sql::QueryResult>(
                    const std::string&)>& execute) {
    return Intercept(principal, sql, execute);
  };
}

StatusOr<sql::QueryResult> RolloutManager::ShadowExecute(
    const std::shared_ptr<ActiveRollout>& rollout, const std::string& sql,
    const std::string& rewritten,
    const std::function<StatusOr<sql::QueryResult>(const std::string&)>&
        execute) {
  const double live_start = NowMicros();
  StatusOr<sql::QueryResult> live = execute(sql);
  if (!live.ok()) return live;  // live failures are not the rollout's doing
  rollout->live_latency.Record(NowMicros() - live_start);

  const double cand_start = NowMicros();
  StatusOr<sql::QueryResult> candidate = execute(rewritten);
  rollout->shadow_scored.fetch_add(1, std::memory_order_relaxed);
  if (!candidate.ok()) {
    rollout->candidate_errors.fetch_add(1, std::memory_order_relaxed);
  } else {
    rollout->candidate_latency.Record(NowMicros() - cand_start);
    CompareResults(live->batch, candidate->batch, rollout.get());
    monitor_.RecordScores(rollout->model, "live", live->batch);
    monitor_.RecordScores(rollout->model, "candidate", candidate->batch);
  }
  CheckGuards(rollout);
  return live;  // shadow mode never surfaces the candidate
}

StatusOr<sql::QueryResult> RolloutManager::CanaryExecute(
    const std::shared_ptr<ActiveRollout>& rollout,
    const std::string& principal, const std::string& sql,
    const std::string& rewritten,
    const std::function<StatusOr<sql::QueryResult>(const std::string&)>&
        execute) {
  // Deterministic per-principal routing: the same session sees the same
  // variant for the rollout's whole lifetime.
  const bool to_candidate =
      HashString(principal) % 1000 < rollout->canary_permille;
  if (!to_candidate) {
    const double start = NowMicros();
    StatusOr<sql::QueryResult> live = execute(sql);
    if (live.ok()) {
      rollout->live_latency.Record(NowMicros() - start);
      monitor_.RecordScores(rollout->model, "live", live->batch);
    }
    CheckGuards(rollout);
    return live;
  }
  rollout->canary_routed.fetch_add(1, std::memory_order_relaxed);
  const double start = NowMicros();
  StatusOr<sql::QueryResult> candidate = execute(rewritten);
  if (!candidate.ok()) {
    // Candidate failure must never fail the request: fall back to live.
    rollout->canary_fallbacks.fetch_add(1, std::memory_order_relaxed);
    rollout->candidate_errors.fetch_add(1, std::memory_order_relaxed);
    CheckGuards(rollout);
    return execute(sql);
  }
  rollout->candidate_latency.Record(NowMicros() - start);
  monitor_.RecordScores(rollout->model, "candidate", candidate->batch);
  CheckGuards(rollout);
  return candidate;
}

void RolloutManager::CompareResults(const storage::RecordBatch& live,
                                    const storage::RecordBatch& candidate,
                                    ActiveRollout* rollout) {
  const size_t rows = live.num_rows();
  if (candidate.num_rows() != rows ||
      candidate.num_columns() != live.num_columns()) {
    // Shape mismatch: every row counts as diverged.
    rollout->compared_rows.fetch_add(rows, std::memory_order_relaxed);
    rollout->diverged_rows.fetch_add(rows, std::memory_order_relaxed);
    UpdateMax(rollout->max_divergence, 1.0);
    return;
  }
  uint64_t diverged = 0;
  double worst = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<storage::Value> lrow = live.GetRow(r);
    std::vector<storage::Value> crow = candidate.GetRow(r);
    bool row_diverged = false;
    for (size_t c = 0; c < lrow.size(); ++c) {
      const storage::Value& lv = lrow[c];
      const storage::Value& cv = crow[c];
      if (lv.is_null() != cv.is_null()) {
        row_diverged = true;
        continue;
      }
      if (lv.is_null()) continue;
      if (lv.type() == storage::DataType::kDouble &&
          cv.type() == storage::DataType::kDouble) {
        const double diff = std::abs(lv.double_value() - cv.double_value());
        if (diff > kDivergenceEps) {
          row_diverged = true;
          worst = std::max(worst, diff);
        }
      } else if (lv.ToString() != cv.ToString()) {
        row_diverged = true;
      }
    }
    if (row_diverged) ++diverged;
  }
  rollout->compared_rows.fetch_add(rows, std::memory_order_relaxed);
  if (diverged > 0) {
    rollout->diverged_rows.fetch_add(diverged, std::memory_order_relaxed);
  }
  if (worst > 0.0) UpdateMax(rollout->max_divergence, worst);
}

void RolloutManager::CheckGuards(
    const std::shared_ptr<ActiveRollout>& rollout) {
  if (rollout->finalizing.load(std::memory_order_acquire)) return;
  const GuardConfig& guard = rollout->guard;
  const uint64_t compared =
      rollout->compared_rows.load(std::memory_order_relaxed);
  const uint64_t errors =
      rollout->candidate_errors.load(std::memory_order_relaxed);
  const uint64_t routed =
      rollout->canary_routed.load(std::memory_order_relaxed);
  if (compared + routed + errors < guard.min_observations) return;

  std::string breach;
  const uint64_t denominator = compared + errors;
  if (guard.max_divergence_rate > 0.0 && denominator > 0) {
    const uint64_t diverged =
        rollout->diverged_rows.load(std::memory_order_relaxed) + errors;
    const double rate =
        static_cast<double>(diverged) / static_cast<double>(denominator);
    if (rate > guard.max_divergence_rate) {
      breach = "divergence rate " + FormatDouble(rate) + " exceeds " +
               FormatDouble(guard.max_divergence_rate);
    }
  }
  if (breach.empty() && guard.max_latency_regression > 0.0 &&
      rollout->live_latency.count() >= guard.min_observations &&
      rollout->candidate_latency.count() >= guard.min_observations) {
    const double live_p99 = rollout->live_latency.Percentile(0.99) / 1e3;
    const double cand_p99 =
        rollout->candidate_latency.Percentile(0.99) / 1e3;
    if (live_p99 > 0.0 && cand_p99 / live_p99 > guard.max_latency_regression) {
      breach = "candidate p99 " + FormatDouble(cand_p99) + "ms is " +
               FormatDouble(cand_p99 / live_p99) + "x live p99 " +
               FormatDouble(live_p99) + "ms (limit " +
               FormatDouble(guard.max_latency_regression) + "x)";
    }
  }
  if (breach.empty() && guard.max_drift_score > 0.0) {
    const double drift = monitor_.DriftScore(rollout->model);
    if (drift > guard.max_drift_score) {
      breach = "feature drift " + FormatDouble(drift) +
               " std-devs exceeds " + FormatDouble(guard.max_drift_score);
    }
  }
  if (breach.empty()) return;
  if (rollout->finalizing.exchange(true, std::memory_order_acq_rel)) {
    return;  // another thread's breach won the race
  }
  guard_breaches_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(rollout->breach_mu);
    rollout->guard_breach = breach;
  }
  Status rolled = RollBack(rollout, breach);
  if (!rolled.ok()) {
    std::lock_guard<std::mutex> lock(rollout->breach_mu);
    rollout->guard_breach += "; rollback failed: " + rolled.message();
  }
}

Status RolloutManager::RollBack(
    const std::shared_ptr<ActiveRollout>& rollout,
    const std::string& reason) {
  // Re-register the pinned live version through DeployTransaction:
  // Register's specialization prefix-erase retires the candidate in the
  // same critical section, so concurrent scorers see either the old
  // candidate or the restored model — never a gap.
  StatusOr<const flock::ModelEntry*> live =
      engine_->models()->GetVersion(rollout->model, rollout->live_version);
  if (!live.ok()) live = engine_->models()->Get(rollout->model);
  FLOCK_RETURN_NOT_OK(live.status());
  auto txn = engine_->BeginDeployment();
  txn.StageRegister(rollout->model, (*live)->pipeline, "lifecycle",
                    "auto-rollback: " + reason);
  FLOCK_RETURN_NOT_OK(txn.Commit());
  rollout->stage.store(static_cast<uint8_t>(RolloutStage::kRolledBack),
                       std::memory_order_release);
  auto_rollbacks_.fetch_add(1, std::memory_order_relaxed);
  RecountActive();
  return engine_->UpdateRolloutState(ToSnapshot(
      *rollout, static_cast<uint8_t>(RolloutStage::kRolledBack)));
}

uint64_t RolloutManager::Sum(
    const std::function<uint64_t(const ActiveRollout&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, rollout] : rollouts_) total += fn(*rollout);
  return total;
}

void RolloutManager::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterGauge("lifecycle.active_rollouts", [this] {
    return static_cast<uint64_t>(
        active_count_.load(std::memory_order_acquire));
  });
  registry->RegisterCounter("lifecycle.shadow_scored", [this] {
    return Sum([](const ActiveRollout& r) {
      return r.shadow_scored.load(std::memory_order_relaxed);
    });
  });
  registry->RegisterCounter("lifecycle.canary_routed", [this] {
    return Sum([](const ActiveRollout& r) {
      return r.canary_routed.load(std::memory_order_relaxed);
    });
  });
  registry->RegisterCounter("lifecycle.canary_fallbacks", [this] {
    return Sum([](const ActiveRollout& r) {
      return r.canary_fallbacks.load(std::memory_order_relaxed);
    });
  });
  registry->RegisterCounter("lifecycle.compared_rows", [this] {
    return Sum([](const ActiveRollout& r) {
      return r.compared_rows.load(std::memory_order_relaxed);
    });
  });
  registry->RegisterCounter("lifecycle.diverged_rows", [this] {
    return Sum([](const ActiveRollout& r) {
      return r.diverged_rows.load(std::memory_order_relaxed);
    });
  });
  registry->RegisterCounter("lifecycle.candidate_errors", [this] {
    return Sum([](const ActiveRollout& r) {
      return r.candidate_errors.load(std::memory_order_relaxed);
    });
  });
  registry->RegisterCounter("lifecycle.guard_breaches", [this] {
    return guard_breaches_.load(std::memory_order_relaxed);
  });
  registry->RegisterCounter("lifecycle.auto_rollbacks", [this] {
    return auto_rollbacks_.load(std::memory_order_relaxed);
  });
  registry->RegisterCounter("lifecycle.promotions", [this] {
    return promotions_.load(std::memory_order_relaxed);
  });
  registry->RegisterGaugeF("lifecycle.max_drift", [this] {
    std::vector<std::string> models;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [key, rollout] : rollouts_) {
        models.push_back(rollout->model);
      }
    }
    double worst = 0.0;
    for (const std::string& model : models) {
      worst = std::max(worst, monitor_.DriftScore(model));
    }
    return worst;
  });
  // Worst-case view across rollouts: counts are summed, percentiles take
  // the slowest rollout (per-rollout detail lives in .rollout status).
  auto merged = [this](bool candidate) {
    obs::HistogramSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, rollout] : rollouts_) {
      const obs::HistogramSnapshot h =
          (candidate ? rollout->candidate_latency : rollout->live_latency)
              .Snapshot(1e-3);
      snap.count += h.count;
      snap.mean = std::max(snap.mean, h.mean);
      snap.p50 = std::max(snap.p50, h.p50);
      snap.p95 = std::max(snap.p95, h.p95);
      snap.p99 = std::max(snap.p99, h.p99);
    }
    return snap;
  };
  registry->RegisterHistogram("lifecycle.live_latency_ms",
                              [merged] { return merged(false); });
  registry->RegisterHistogram("lifecycle.candidate_latency_ms",
                              [merged] { return merged(true); });
}

}  // namespace flock::lifecycle
