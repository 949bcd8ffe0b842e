#ifndef FLOCK_SERVE_SERVER_H_
#define FLOCK_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "common/cancel.h"
#include "common/status_or.h"
#include "flock/flock_engine.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "policy/policy_engine.h"
#include "serve/admission.h"
#include "serve/coalescer.h"
#include "serve/retry.h"
#include "serve/session.h"

namespace flock::serve {

struct ServerOptions {
  AdmissionOptions admission;
  size_t max_sessions = 1024;
  /// Default per-statement deadline in ms (flock_server
  /// --default-deadline-ms). 0 = no deadline. Sessions can override with
  /// `.deadline <ms>|off|default`; every statement still gets a
  /// cancellable token so `.kill <session>` works regardless.
  double default_deadline_ms = 0.0;
  /// Cross-request micro-batching of single-row PREDICT calls. When
  /// enabled the server owns a MicroBatcher, installs it into the
  /// engine's scoring context for its lifetime, and exports
  /// serve.batch_size / serve.coalesce_* metrics. Scoring results are
  /// identical with or without coalescing; only latency/throughput
  /// change.
  MicroBatchOptions microbatch;
  /// Policy engine whose decision counters should appear in the unified
  /// metrics (optional; must outlive the server).
  policy::PolicyEngine* policy = nullptr;
  /// Pre-execution gate checked on every Submit (optional). Replication
  /// wires bounded-staleness admission in here without the serving layer
  /// depending on repl: a replica whose lag exceeds the configured bound
  /// returns Unavailable from the gate, and the request fails fast
  /// instead of serving arbitrarily stale rows.
  std::function<Status()> read_gate;
  /// Statement executor the worker threads delegate to (optional). Like
  /// read_gate, this keeps higher layers out of serve's dependency set:
  /// lifecycle wires shadow double-scoring and canary routing in here.
  /// The interceptor receives the session principal, the submitted SQL,
  /// and `execute` — the server's own engine dispatch — and may call it
  /// any number of times (zero, once, or twice for shadow) with any SQL
  /// before returning the result the client sees.
  std::function<StatusOr<sql::QueryResult>(
      const std::string& principal, const std::string& sql,
      const std::function<StatusOr<sql::QueryResult>(const std::string&)>&
          execute)>
      interceptor;
};

/// The concurrent prediction-serving layer (paper §2/§4.1: scoring lives
/// inside the DBMS precisely so applications can hit it as a service).
/// Wraps one shared, thread-safe FlockEngine with:
///
///   * a SessionManager (per-client identity + counters, capped),
///   * an AdmissionController (bounded queue, worker pool, load
///     shedding, graceful drain),
///   * the SQL plan cache (hit = skip parse/plan/optimize; see
///     sql::PlanCache for the invalidation contract),
///   * a metrics registry (latency percentiles, shed count, queue
///     depth, cache hit rate) exported as JSON and Prometheus text.
///
/// Transports sit on top: examples/flock_server.cc speaks a
/// line-delimited text protocol over TCP, and LoopbackClient (below)
/// calls straight in — tests and the serving bench use the loopback so
/// they measure the serving tier, not the socket stack.
class PredictionServer {
 public:
  explicit PredictionServer(flock::FlockEngine* engine,
                            ServerOptions options = {});
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Opens a session; Unavailable at the session cap, or once Shutdown
  /// has begun. A session opened without a principal runs as "system".
  /// Every session's statements carry its principal in
  /// sql::ExecOptions, so reads share the engine's lock whoever runs
  /// them.
  StatusOr<uint64_t> OpenSession(const std::string& principal = "");
  Status CloseSession(uint64_t session_id);

  /// Admission-controlled asynchronous execution. The future resolves
  /// when a worker finishes the statement — or immediately with
  /// Unavailable (shed) / NotFound (bad session).
  std::future<StatusOr<sql::QueryResult>> Submit(uint64_t session_id,
                                                 std::string sql);

  /// Synchronous convenience wrapper around Submit.
  StatusOr<sql::QueryResult> Execute(uint64_t session_id,
                                     const std::string& sql);

  /// Aborts the statement currently queued or executing on behalf of
  /// `session_id` (the `.kill <session>` wire command): flips the
  /// session's active cancel token, which the engine notices at its next
  /// poll point and surfaces as kCancelled. NotFound for unknown
  /// sessions or when the session has no statement in flight.
  Status KillSession(uint64_t session_id);

  /// Graceful drain: stop admitting new requests and new sessions, wait
  /// for in-flight requests to finish. Idempotent.
  void Shutdown();
  bool accepting() const;

  /// Unified metrics (every registered subsystem: serve, plan_cache,
  /// slowlog, wal, policy) as JSON — the `.metrics` wire response.
  std::string MetricsJson() const { return registry_.ToJson(); }
  /// Same metrics, Prometheus text exposition (`.metrics prom`).
  std::string MetricsPrometheus() const { return registry_.ToPrometheus(); }
  /// The slow-query log dump (`.slowlog` wire response).
  std::string SlowLogJson() const {
    return engine_->sql()->slow_log()->ToJson();
  }

  flock::FlockEngine* engine() { return engine_; }
  SessionManager* sessions() { return &sessions_; }
  AdmissionController* admission() { return &admission_; }
  obs::MetricsRegistry* metrics_registry() { return &registry_; }
  /// The micro-batching stage, or nullptr when coalescing is disabled.
  MicroBatcher* microbatcher() { return batcher_.get(); }

 private:
  /// Registers every subsystem's counters with the unified registry
  /// (pull callbacks; called once from the constructor).
  void RegisterMetrics();

  /// Builds the per-request cancel token (session deadline override or
  /// server default) and registers it on the session for `.kill`.
  CancelToken MakeRequestToken(const SessionPtr& session) const;
  /// Folds a finished request's cancellation outcome into the exec.*
  /// counters and the cancel-latency histogram.
  void RecordCancellation(const Status& status, const CancelToken& token);

  flock::FlockEngine* engine_;
  ServerOptions options_;
  SessionManager sessions_;
  AdmissionController admission_;
  std::atomic<uint64_t> requests_ok_{0};
  std::atomic<uint64_t> requests_error_{0};
  /// Worker start to response, in µs: the time a request spends inside
  /// the engine (and the coalescer), not its admission-queue wait.
  obs::Histogram latency_;
  std::atomic<uint64_t> cancelled_total_{0};
  std::atomic<uint64_t> deadline_total_{0};
  /// Time from the stop signal (kill instant / deadline) to the request
  /// actually completing with a cancel status — the responsiveness of
  /// the cooperative polling, exported as exec.cancel_latency_ms.
  obs::Histogram cancel_latency_;  // µs
  obs::MetricsRegistry registry_;
  /// Owned micro-batcher, installed into the engine while the server is
  /// alive (detached in Shutdown, after the admission drain).
  std::unique_ptr<MicroBatcher> batcher_;
  std::atomic<bool> shutdown_{false};
};

/// In-process client: one session on a PredictionServer, synchronous
/// Execute. The differential tests drive 8 of these from 8 threads; the
/// serving bench's closed-loop clients are loopback clients too.
class LoopbackClient {
 public:
  /// `retry` governs Execute's handling of Unavailable results (shed,
  /// draining, staleness-gated). The default policy makes one attempt —
  /// identical to the historical fail-fast behavior.
  explicit LoopbackClient(PredictionServer* server,
                          const std::string& principal = "",
                          RetryPolicy retry = {});
  ~LoopbackClient();

  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  /// Session-open outcome; Execute fails fast when not OK.
  const Status& status() const { return open_status_; }
  uint64_t session_id() const { return session_id_; }

  StatusOr<sql::QueryResult> Execute(const std::string& sql);

 private:
  PredictionServer* server_;
  RetryPolicy retry_;
  Status open_status_;
  uint64_t session_id_ = 0;
};

}  // namespace flock::serve

#endif  // FLOCK_SERVE_SERVER_H_
