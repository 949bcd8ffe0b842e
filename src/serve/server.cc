#include "serve/server.h"

#include "common/stopwatch.h"

namespace flock::serve {

namespace {

// The latency histograms record µs; their metrics report ms.
constexpr double kMicrosToMs = 1e-3;

}  // namespace

PredictionServer::PredictionServer(flock::FlockEngine* engine,
                                   ServerOptions options)
    : engine_(engine),
      options_(options),
      sessions_(options.max_sessions),
      admission_(options.admission) {
  if (options_.microbatch.enabled) {
    batcher_ = std::make_unique<MicroBatcher>(options_.microbatch);
    engine_->SetScoreCoalescer(batcher_.get());
  }
  RegisterMetrics();
}

void PredictionServer::RegisterMetrics() {
  // serve.* — request counters, sessions, queue, latency.
  registry_.RegisterCounter("serve.requests_ok", [this] {
    return requests_ok_.load(std::memory_order_relaxed);
  });
  registry_.RegisterCounter("serve.requests_error", [this] {
    return requests_error_.load(std::memory_order_relaxed);
  });
  registry_.RegisterCounter("serve.requests_shed",
                            [this] { return admission_.shed_count(); });
  registry_.RegisterGauge("serve.sessions_open", [this] {
    return static_cast<uint64_t>(sessions_.num_open());
  });
  registry_.RegisterCounter("serve.sessions_opened_total",
                            [this] { return sessions_.total_opened(); });
  registry_.RegisterGauge("serve.queue_depth", [this] {
    return static_cast<uint64_t>(admission_.queue_depth());
  });
  registry_.RegisterHistogram("serve.latency_ms", [this] {
    return latency_.Snapshot(kMicrosToMs);
  });

  // exec.* — the cancellation layer: how many statements ended by
  // explicit kill vs deadline expiry (including queue sheds), and how
  // quickly the cooperative polling noticed the stop signal.
  registry_.RegisterCounter("exec.cancelled", [this] {
    return cancelled_total_.load(std::memory_order_relaxed);
  });
  registry_.RegisterCounter("exec.deadline_exceeded", [this] {
    return deadline_total_.load(std::memory_order_relaxed);
  });
  registry_.RegisterCounter("exec.deadline_queue_shed", [this] {
    return admission_.deadline_shed_count();
  });
  registry_.RegisterHistogram("exec.cancel_latency_ms", [this] {
    return cancel_latency_.Snapshot(kMicrosToMs);
  });

  // serve.batch_size / serve.coalesce_* — the micro-batching stage.
  if (batcher_ != nullptr) {
    MicroBatcher* batcher = batcher_.get();
    registry_.RegisterHistogram("serve.batch_size", [batcher] {
      return batcher->batch_sizes().Snapshot();
    });
    registry_.RegisterHistogram("serve.coalesce_wait_ms", [batcher] {
      return batcher->leader_waits().Snapshot(kMicrosToMs);
    });
    registry_.RegisterCounter("serve.coalesce_batches", [batcher] {
      return batcher->batches_executed();
    });
    registry_.RegisterCounter("serve.coalesce_rows", [batcher] {
      return batcher->rows_coalesced();
    });
    registry_.RegisterCounter("serve.coalesce_bypass", [batcher] {
      return batcher->bypassed();
    });
  }

  // plan_cache.* — the SQL engine's prepared-statement cache.
  sql::SqlEngine* sql_engine = engine_->sql();
  registry_.RegisterCounter("plan_cache.hits", [sql_engine] {
    return sql_engine->plan_cache()->stats().hits;
  });
  registry_.RegisterCounter("plan_cache.misses", [sql_engine] {
    return sql_engine->plan_cache()->stats().misses;
  });
  registry_.RegisterCounter("plan_cache.insertions", [sql_engine] {
    return sql_engine->plan_cache()->stats().insertions;
  });
  registry_.RegisterCounter("plan_cache.invalidations", [sql_engine] {
    return sql_engine->plan_cache()->stats().invalidations;
  });
  registry_.RegisterGaugeF("plan_cache.hit_rate", [sql_engine] {
    return sql_engine->plan_cache()->stats().hit_rate();
  });
  registry_.RegisterGauge("plan_cache.entries", [sql_engine] {
    return static_cast<uint64_t>(sql_engine->plan_cache()->size());
  });

  // storage.* — segmented-scan counters: segments read vs skipped by
  // zone-map pruning, and blocks read vs skipped inside the read
  // segments, engine-lifetime totals across all table scans.
  registry_.RegisterCounter("storage.segments_scanned", [sql_engine] {
    return sql_engine->segments_scanned_total();
  });
  registry_.RegisterCounter("storage.segments_pruned", [sql_engine] {
    return sql_engine->segments_pruned_total();
  });
  registry_.RegisterCounter("storage.blocks_scanned", [sql_engine] {
    return sql_engine->blocks_scanned_total();
  });
  registry_.RegisterCounter("storage.blocks_pruned", [sql_engine] {
    return sql_engine->blocks_pruned_total();
  });

  // slowlog.* — the slow-query ring buffer.
  registry_.RegisterCounter("slowlog.total_recorded", [sql_engine] {
    return sql_engine->slow_log()->total_recorded();
  });
  registry_.RegisterGauge("slowlog.entries", [sql_engine] {
    return static_cast<uint64_t>(sql_engine->slow_log()->size());
  });
  registry_.RegisterGaugeF("slowlog.threshold_ms", [sql_engine] {
    return sql_engine->slow_log()->threshold_ms();
  });

  // wal.* — durability counters. Registered unconditionally and read
  // through durable() so a server constructed before Open() still
  // exposes them (as zeros until the engine turns durable).
  flock::FlockEngine* engine = engine_;
  registry_.RegisterCounter("wal.records_appended", [engine] {
    return engine->durable() ? engine->durability()->records_logged() : 0;
  });
  registry_.RegisterCounter("wal.syncs", [engine] {
    return engine->durable() ? engine->durability()->syncs() : 0;
  });
  registry_.RegisterCounter("wal.bytes_written", [engine] {
    return engine->durable() ? engine->durability()->bytes_written() : 0;
  });
  registry_.RegisterGauge("wal.epoch", [engine] {
    return engine->durable() ? engine->durability()->epoch() : 0;
  });

  // policy.* — decision counters, when a policy engine is attached.
  if (options_.policy != nullptr) {
    policy::PolicyEngine* policy = options_.policy;
    registry_.RegisterCounter("policy.decisions", [policy] {
      return policy->decisions_made();
    });
    registry_.RegisterCounter("policy.rejections",
                              [policy] { return policy->rejections(); });
  }
}

PredictionServer::~PredictionServer() { Shutdown(); }

StatusOr<uint64_t> PredictionServer::OpenSession(
    const std::string& principal) {
  if (!accepting()) {
    return Status::Unavailable("server is shutting down");
  }
  FLOCK_ASSIGN_OR_RETURN(
      SessionPtr session,
      sessions_.Open(principal.empty() ? "system" : principal));
  return session->id();
}

Status PredictionServer::CloseSession(uint64_t session_id) {
  return sessions_.Close(session_id);
}

std::future<StatusOr<sql::QueryResult>> PredictionServer::Submit(
    uint64_t session_id, std::string sql) {
  auto promise =
      std::make_shared<std::promise<StatusOr<sql::QueryResult>>>();
  std::future<StatusOr<sql::QueryResult>> future = promise->get_future();

  auto session_or = sessions_.Get(session_id);
  if (!session_or.ok()) {
    promise->set_value(session_or.status());
    return future;
  }
  SessionPtr session = std::move(session_or).value();

  if (options_.read_gate) {
    Status gated = options_.read_gate();
    if (!gated.ok()) {
      // Gated before admission: no worker slot is consumed and the
      // client sees the gate's code (e.g. Unavailable on a stale
      // replica) immediately.
      promise->set_value(std::move(gated));
      return future;
    }
  }

  sql::ExecOptions exec_opts;
  exec_opts.trace = session->trace();
  exec_opts.principal = session->principal();
  // The request token is created before admission and registered on the
  // session immediately, so `.kill <session>` reaches a statement that
  // is still waiting in the queue, not just one a worker has started.
  CancelToken token = MakeRequestToken(session);
  exec_opts.cancel = token;
  session->SetActiveCancel(token);
  Status admitted = admission_.Admit(
      [this, session, sql = std::move(sql), exec_opts, promise,
       token]() mutable {
        Stopwatch timer;
        auto execute =
            [this, &exec_opts](const std::string& s) {
          return engine_->Execute(s, exec_opts);
        };
        StatusOr<sql::QueryResult> result =
            options_.interceptor
                ? options_.interceptor(session->principal(), sql, execute)
                : execute(sql);
        latency_.Record(timer.ElapsedMicros());
        (result.ok() ? requests_ok_ : requests_error_)
            .fetch_add(1, std::memory_order_relaxed);
        session->RecordRequest(result.ok());
        RecordCancellation(result.status(), token);
        session->ClearActiveCancel(token);
        promise->set_value(std::move(result));
      },
      token,
      // Queued past its deadline (or killed while waiting): the worker
      // sheds it without parsing a byte of SQL. It counts as an error
      // but adds no latency sample: a 0 ms sample per shed would drag
      // serve.latency_ms's p50 down exactly when the server overloads.
      [this, session, promise, token](Status fired) {
        requests_error_.fetch_add(1, std::memory_order_relaxed);
        session->RecordRequest(false);
        RecordCancellation(fired, token);
        session->ClearActiveCancel(token);
        promise->set_value(std::move(fired));
      });
  if (!admitted.ok()) {
    RecordCancellation(admitted, token);
    session->ClearActiveCancel(token);
    promise->set_value(admitted);  // fast shed, not queued
  }
  return future;
}

CancelToken PredictionServer::MakeRequestToken(
    const SessionPtr& session) const {
  double deadline_ms = session->deadline_ms();
  if (deadline_ms < 0.0) deadline_ms = options_.default_deadline_ms;
  return deadline_ms > 0.0 ? CancelToken::WithDeadline(deadline_ms)
                           : CancelToken::Cancellable();
}

void PredictionServer::RecordCancellation(const Status& status,
                                          const CancelToken& token) {
  if (status.code() == StatusCode::kCancelled) {
    cancelled_total_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    deadline_total_.fetch_add(1, std::memory_order_relaxed);
  } else {
    return;
  }
  // Record takes micros; CancelLatencyMs is elapsed time since the stop
  // signal fired, i.e. how long the polling took to notice.
  cancel_latency_.Record(token.CancelLatencyMs() * 1000.0);
}

Status PredictionServer::KillSession(uint64_t session_id) {
  FLOCK_ASSIGN_OR_RETURN(SessionPtr session, sessions_.Get(session_id));
  CancelToken token = session->active_cancel();
  if (!token.valid()) {
    return Status::NotFound("session " + std::to_string(session_id) +
                            " has no statement in flight");
  }
  token.Cancel();
  return Status::OK();
}

StatusOr<sql::QueryResult> PredictionServer::Execute(
    uint64_t session_id, const std::string& sql) {
  return Submit(session_id, sql).get();
}

void PredictionServer::Shutdown() {
  bool expected = false;
  const bool first = shutdown_.compare_exchange_strong(
      expected, true, std::memory_order_acq_rel);
  // Flush the micro-batcher first: waiting leaders wake and score their
  // partial batches immediately, so the admission drain below never
  // waits out a coalescing window (and no queued row is dropped).
  if (batcher_ != nullptr) batcher_->Drain();
  admission_.Drain();
  // With no request in flight the engine can safely forget the
  // coalescer before the server (its owner) goes away.
  if (first && batcher_ != nullptr) engine_->SetScoreCoalescer(nullptr);
  // Graceful drain doubles as a durability barrier: once no request is
  // in flight, fold the WAL tail into a fresh snapshot so the next
  // Open() replays nothing. Only the first Shutdown (the destructor
  // calls it again) checkpoints, and a wedged log is not fatal here —
  // recovery replays the WAL instead.
  if (first && engine_ != nullptr && engine_->durable()) {
    (void)engine_->Checkpoint();
  }
}

bool PredictionServer::accepting() const {
  return !shutdown_.load(std::memory_order_acquire) &&
         !admission_.draining();
}

LoopbackClient::LoopbackClient(PredictionServer* server,
                               const std::string& principal,
                               RetryPolicy retry)
    : server_(server), retry_(retry) {
  auto id_or = server_->OpenSession(principal);
  if (id_or.ok()) {
    session_id_ = *id_or;
  } else {
    open_status_ = id_or.status();
  }
}

LoopbackClient::~LoopbackClient() {
  if (open_status_.ok()) {
    (void)server_->CloseSession(session_id_);
  }
}

StatusOr<sql::QueryResult> LoopbackClient::Execute(const std::string& sql) {
  FLOCK_RETURN_NOT_OK(open_status_);
  StatusOr<sql::QueryResult> result =
      Status::Unavailable("loopback execute never ran");
  Status last = RetryUnavailable(retry_, [&]() -> Status {
    result = server_->Execute(session_id_, sql);
    return result.status();
  });
  if (!last.ok()) return last;
  return result;
}

}  // namespace flock::serve
