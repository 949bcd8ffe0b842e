// Tests for the engine-wide deadline + cooperative cancellation layer
// (ctest label `cancel`; check.sh runs these under ASan and TSan so a
// kill that leaks a worker or races the token shows up in CI):
//
//   * CancelToken/CancelScope semantics (null token, deadline expiry,
//     explicit kill precedence, latency accounting, thread-local scope),
//   * mid-scan kill of a large cross join through the executor's morsel
//     poll,
//   * queued-request timeout shed in the admission controller,
//   * micro-batch waiter deadline (a follower leaves an open batch),
//   * replica catch-up abort (a fired token stops the retry loop without
//     wedging sticky health).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "flock/model_registry.h"
#include "flock/scoring.h"
#include "ml/dataset.h"
#include "ml/pipeline.h"
#include "ml/tree.h"
#include "repl/applier.h"
#include "repl/replication.h"
#include "serve/coalescer.h"
#include "serve/server.h"
#include "sql/engine.h"
#include "storage/database.h"

namespace flock {
namespace {

// ---------------------------------------------------------------------
// CancelToken / CancelScope semantics.
// ---------------------------------------------------------------------

TEST(CancelTokenTest, NullTokenNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_TRUE(token.Check("test").ok());
  EXPECT_DOUBLE_EQ(token.CancelLatencyMs(), 0.0);
  token.Cancel();  // no-op on a null token
  EXPECT_TRUE(token.Check("test").ok());
}

TEST(CancelTokenTest, ExplicitCancelIsSharedAcrossCopies) {
  CancelToken token = CancelToken::Cancellable();
  CancelToken copy = token;
  EXPECT_TRUE(copy.Check("test").ok());
  token.Cancel();
  Status fired = copy.Check("join.morsel");
  EXPECT_EQ(fired.code(), StatusCode::kCancelled);
  // The poll site is named in the message for traceability.
  EXPECT_NE(fired.message().find("join.morsel"), std::string::npos);
  EXPECT_TRUE(token.SameStateAs(copy));
  EXPECT_FALSE(token.SameStateAs(CancelToken::Cancellable()));
}

TEST(CancelTokenTest, DeadlineExpires) {
  CancelToken token = CancelToken::WithDeadline(20.0);
  EXPECT_TRUE(token.Check("test").ok());
  EXPECT_GT(token.RemainingMs(), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.Check("test").code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(token.RemainingMs(), 0.0);
}

TEST(CancelTokenTest, ExplicitKillWinsOverExpiredDeadline) {
  CancelToken token = CancelToken::WithDeadline(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  token.Cancel();
  // Both signals have fired; the explicit kill is the more specific
  // cause and must be the one reported.
  EXPECT_EQ(token.Check("test").code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, CancelLatencyMeasuresFromTheStopSignal) {
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double latency = token.CancelLatencyMs();
  EXPECT_GE(latency, 15.0);
  EXPECT_LT(latency, 5000.0);
}

TEST(CancelScopeTest, InstallsAndRestoresThreadLocalToken) {
  EXPECT_FALSE(CancelToken::Current().valid());
  CancelToken outer = CancelToken::Cancellable();
  {
    CancelScope outer_scope(outer);
    EXPECT_TRUE(CancelToken::Current().SameStateAs(outer));
    {
      // A null inner scope shields deeper code from the outer token —
      // the micro-batch leader uses exactly this to protect a shared
      // kernel invocation from its own kill.
      CancelScope shield{CancelToken()};
      EXPECT_FALSE(CancelToken::Current().valid());
    }
    EXPECT_TRUE(CancelToken::Current().SameStateAs(outer));
  }
  EXPECT_FALSE(CancelToken::Current().valid());
}

TEST(CancelScopeTest, ScopeIsPerThread) {
  CancelToken token = CancelToken::Cancellable();
  CancelScope scope(token);
  std::thread other([&] {
    // A fresh thread sees no scope; workers must re-install it per task.
    EXPECT_FALSE(CancelToken::Current().valid());
  });
  other.join();
  EXPECT_TRUE(CancelToken::Current().SameStateAs(token));
}

// ---------------------------------------------------------------------
// Mid-scan kill through the executor.
// ---------------------------------------------------------------------

void BuildCrossJoinTables(sql::SqlEngine* engine, int rows) {
  for (const char* name : {"lhs", "rhs"}) {
    ASSERT_TRUE(
        engine->Execute(std::string("CREATE TABLE ") + name + " (x INT)")
            .ok());
    std::string insert = std::string("INSERT INTO ") + name + " VALUES ";
    for (int i = 0; i < rows; ++i) {
      if (i > 0) insert += ", ";
      insert += StrCat("(", std::to_string(i)) + ")";
    }
    ASSERT_TRUE(engine->Execute(insert).ok());
  }
}

TEST(ExecutorCancelTest, MidScanKillReturnsWithinBudget) {
  storage::Database db;
  sql::EngineOptions options;
  options.num_threads = 2;  // exercise the parallel morsel path
  sql::SqlEngine engine(&db, options);
  BuildCrossJoinTables(&engine, 1200);

  CancelToken token = CancelToken::Cancellable();
  sql::ExecOptions exec;
  exec.cancel = token;
  std::thread killer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  auto result = engine.Execute(
      "SELECT COUNT(*) FROM lhs CROSS JOIN rhs CROSS JOIN lhs", exec);
  killer.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_LT(token.CancelLatencyMs(), 100.0);

  // The engine is healthy afterwards — no wedged worker, no poisoned
  // plan cache.
  auto after = engine.Execute("SELECT COUNT(*) FROM lhs");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

TEST(ExecutorCancelTest, DeadlineExceededCarriesDeadlineCode) {
  storage::Database db;
  sql::SqlEngine engine(&db, {});
  BuildCrossJoinTables(&engine, 1200);
  sql::ExecOptions exec;
  exec.cancel = CancelToken::WithDeadline(40.0);
  Stopwatch timer;
  auto result = engine.Execute(
      "SELECT COUNT(*) FROM lhs CROSS JOIN rhs CROSS JOIN lhs", exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_LT(timer.ElapsedMillis(), 1000.0);
}

// ---------------------------------------------------------------------
// Queued-request timeout shed (admission controller).
// ---------------------------------------------------------------------

TEST(AdmissionCancelTest, ExpiredQueuedRequestIsShedBeforeWork) {
  serve::AdmissionOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 8;
  serve::AdmissionController admission(options);

  // Park the only worker.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> blocker_started{false};
  ASSERT_TRUE(admission
                  .Admit([&] {
                    blocker_started.store(true);
                    gate.wait();
                  })
                  .ok());
  while (!blocker_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Queue a request with an already-tight deadline; it expires waiting.
  std::atomic<bool> work_ran{false};
  std::promise<Status> expired_status;
  CancelToken token = CancelToken::WithDeadline(20.0);
  ASSERT_TRUE(admission
                  .Admit([&] { work_ran.store(true); }, token,
                         [&](Status fired) {
                           expired_status.set_value(std::move(fired));
                         })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  release.set_value();  // worker frees up after the deadline passed

  Status fired = expired_status.get_future().get();
  EXPECT_EQ(fired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(work_ran.load());
  EXPECT_EQ(admission.deadline_shed_count(), 1u);

  // A token that is already dead at admit time is shed synchronously.
  CancelToken killed = CancelToken::Cancellable();
  killed.Cancel();
  Status at_admit = admission.Admit([] {}, killed, [](Status) {
    FAIL() << "synchronous shed must not invoke the expired callback";
  });
  EXPECT_EQ(at_admit.code(), StatusCode::kCancelled);
  EXPECT_EQ(admission.deadline_shed_count(), 2u);
  admission.Drain();
}

// ---------------------------------------------------------------------
// Micro-batch waiter deadline (coalescer, driven directly).
// ---------------------------------------------------------------------

flock::ModelEntry MakeScoringEntry() {
  ml::Pipeline pipeline;
  pipeline.SetInputs({{"a", ml::FeatureKind::kNumeric, {}},
                      {"b", ml::FeatureKind::kNumeric, {}}});
  pipeline.set_task(ml::ModelTask::kRegression);
  ml::Dataset data;
  data.x = ml::Matrix(64, 2);
  data.y.resize(64);
  for (size_t r = 0; r < 64; ++r) {
    data.x.at(r, 0) = static_cast<double>(r % 8);
    data.x.at(r, 1) = static_cast<double>(r % 5);
    data.y[r] = data.x.at(r, 0) - data.x.at(r, 1);
  }
  ml::GbtOptions gbt;
  gbt.num_trees = 3;
  gbt.max_depth = 2;
  pipeline.SetTreeModel(ml::TrainGradientBoosting(data, gbt));

  flock::ModelEntry entry;
  entry.name = "m";
  entry.pipeline = std::move(pipeline);
  auto graph = entry.pipeline.Compile();
  EXPECT_TRUE(graph.ok());
  entry.graph = *std::move(graph);
  // Compile the scoring kernel the way deploy does; scoring has no other
  // engine.
  EXPECT_TRUE(flock::ModelRegistry::AnalyzeEntry(&entry).ok());
  return entry;
}

TEST(MicroBatchCancelTest, WaiterDeadlineLeavesOpenBatch) {
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 32;       // never fills
  options.max_wait_ms = 800.0;  // leader parks for most of a second
  options.bypass_solo = false;
  serve::MicroBatcher batcher(options);
  flock::ModelEntry entry = MakeScoringEntry();
  const double row[2] = {1.0, 2.0};

  // Leader (no token): opens the window and waits. The sleep gives it
  // time to take the leader slot before the follower arrives.
  std::thread leader_thread([&] {
    auto score = batcher.ScoreOne(entry, row, 2);
    EXPECT_TRUE(score.ok()) << score.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Follower with a 50 ms deadline: must leave the batch with
  // kDeadlineExceeded long before the leader's window closes.
  Stopwatch timer;
  CancelToken token = CancelToken::WithDeadline(50.0);
  CancelScope scope(token);
  auto waited = batcher.ScoreOne(entry, row, 2);
  const double waited_ms = timer.ElapsedMillis();
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded)
      << waited.status().ToString();
  EXPECT_LT(waited_ms, 500.0) << "waiter slept out the leader's window";

  leader_thread.join();
  // The leader scored the abandoned row along with its own (batch of 2).
  EXPECT_EQ(batcher.batch_sizes().sum(), 2.0);
}

TEST(MicroBatchCancelTest, DeadRequestNeverJoinsABatch) {
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 8;
  serve::MicroBatcher batcher(options);
  flock::ModelEntry entry = MakeScoringEntry();
  const double row[2] = {1.0, 2.0};

  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  CancelScope scope(token);
  auto score = batcher.ScoreOne(entry, row, 2);
  ASSERT_FALSE(score.ok());
  EXPECT_EQ(score.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(batcher.batch_sizes().sum(), 0.0);
}

// ---------------------------------------------------------------------
// Replica catch-up abort.
// ---------------------------------------------------------------------

/// A source that is never reachable: every call is Unavailable, so the
/// applier's retry-with-backoff loop spins until its budget (or the
/// caller's token) runs out.
class UnreachableSource : public repl::ReplicationSource {
 public:
  StatusOr<repl::BootstrapResult> Bootstrap() override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("primary unreachable");
  }
  StatusOr<repl::FetchResult> Fetch(repl::ReplicationPosition,
                                    size_t) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("primary unreachable");
  }
  StatusOr<repl::ReplicationPosition> DurableEnd() override {
    return Status::Unavailable("primary unreachable");
  }
  std::atomic<uint64_t> calls{0};
};

TEST(ReplicaCancelTest, DeadlineAbortsCatchUpWithoutWedgingHealth) {
  flock::FlockEngineOptions engine_options;
  engine_options.sql.num_threads = 1;
  flock::FlockEngine engine(engine_options);
  ASSERT_TRUE(engine.OpenAsReplica().ok());
  UnreachableSource source;

  repl::ReplicaApplierOptions options;
  // Without the token this retry budget spins for many seconds.
  options.retry.max_attempts = 1000;
  options.retry.base_backoff_ms = 10;
  options.retry.max_backoff_ms = 50;
  options.cancel = CancelToken::WithDeadline(80.0);
  repl::ReplicaApplier applier(&engine, &source, options);

  Stopwatch timer;
  Status aborted = applier.CatchUp();
  EXPECT_EQ(aborted.code(), StatusCode::kDeadlineExceeded)
      << aborted.ToString();
  EXPECT_LT(timer.ElapsedMillis(), 2000.0);
  // The abort is the caller's choice, not stream damage: health stays
  // OK and the applier can be driven again later.
  EXPECT_TRUE(applier.health().ok());
}

TEST(ReplicaCancelTest, ExplicitKillAbortsCatchUpBetweenRetries) {
  flock::FlockEngineOptions engine_options;
  engine_options.sql.num_threads = 1;
  flock::FlockEngine engine(engine_options);
  ASSERT_TRUE(engine.OpenAsReplica().ok());
  UnreachableSource source;

  repl::ReplicaApplierOptions options;
  options.retry.max_attempts = 1000;
  options.retry.base_backoff_ms = 10;
  options.retry.max_backoff_ms = 50;
  options.cancel = CancelToken::Cancellable();
  repl::ReplicaApplier applier(&engine, &source, options);

  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    options.cancel.Cancel();
  });
  Status aborted = applier.CatchUp();
  killer.join();
  EXPECT_EQ(aborted.code(), StatusCode::kCancelled) << aborted.ToString();
  EXPECT_TRUE(applier.health().ok());
  EXPECT_GE(source.calls.load(), 1u);
}

// ---------------------------------------------------------------------
// End-to-end: kill through the serving layer, zero worker leaks.
// ---------------------------------------------------------------------

TEST(ServerCancelTest, KillDuringExecutionThenCleanDrain) {
  flock::FlockEngineOptions engine_options;
  engine_options.sql.num_threads = 1;
  flock::FlockEngine engine(engine_options);
  for (const char* name : {"lhs", "rhs"}) {
    ASSERT_TRUE(
        engine.Execute(std::string("CREATE TABLE ") + name + " (x INT)")
            .ok());
    std::string insert = std::string("INSERT INTO ") + name + " VALUES ";
    for (int i = 0; i < 1500; ++i) {
      if (i > 0) insert += ", ";
      insert += StrCat("(", std::to_string(i)) + ")";
    }
    ASSERT_TRUE(engine.Execute(insert).ok());
  }

  serve::ServerOptions options;
  options.admission.num_workers = 2;
  serve::PredictionServer server(&engine, options);
  auto id_or = server.OpenSession();
  ASSERT_TRUE(id_or.ok());
  auto pending = server.Submit(
      *id_or, "SELECT COUNT(*) FROM lhs CROSS JOIN rhs CROSS JOIN lhs");
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(server.KillSession(*id_or).ok());
  auto result = pending.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  // Shutdown drains workers; TSan/ASan runs of this test are the
  // "zero worker leaks" acceptance check.
  server.Shutdown();
}

}  // namespace
}  // namespace flock
