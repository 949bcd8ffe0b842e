#ifndef FLOCK_SQL_ENGINE_H_
#define FLOCK_SQL_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status_or.h"
#include "common/thread_pool.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "sql/function_registry.h"
#include "sql/lexer.h"
#include "sql/logical_plan.h"
#include "sql/optimizer.h"
#include "sql/physical_plan.h"
#include "sql/plan_cache.h"
#include "sql/planner.h"
#include "storage/database.h"

namespace flock::sql {

/// Result of one statement.
struct QueryResult {
  storage::RecordBatch batch;   // rows for SELECT / EXPLAIN text rendered
  size_t rows_affected = 0;     // for DML
  std::string plan_text;        // filled for EXPLAIN
  double elapsed_ms = 0.0;
  /// True when this execution reused an optimized plan from the plan
  /// cache (parse/plan/optimize skipped).
  bool from_plan_cache = false;
  /// Per-operator execution counters for the physical plan (pre-order;
  /// filled for SELECT and EXPLAIN ANALYZE). Empty for DML/DDL.
  std::vector<OperatorMetricsSnapshot> operator_metrics;
  /// Request span tree (pre-order), filled when the statement ran with
  /// tracing on (ExecOptions::trace or EXPLAIN ANALYZE). Empty otherwise.
  std::vector<obs::SpanSnapshot> trace;
  /// Stable 16-hex-digit digest of the executed physical plan shape
  /// (PhysicalPlan::digest). Empty for DML/DDL.
  std::string plan_digest;
};

/// Per-call execution options (as opposed to the engine-wide
/// EngineOptions). Threaded from the serving layer down through
/// FlockEngine::Execute.
struct ExecOptions {
  /// Record a span tree for this statement into QueryResult::trace.
  bool trace = false;
  /// Cooperative deadline/kill token for this statement. Polled at
  /// executor morsel boundaries, inside scoring-kernel block loops and
  /// the micro-batch coalescer's waits; a fired token surfaces as
  /// Cancelled or DeadlineExceeded. Null (the default) = uncancellable.
  CancelToken cancel;
  /// Who runs the statement: PREDICT checks access and audits for it, and
  /// CREATE/DROP MODEL record it. Reaches scoring the way `cancel` does.
  std::string principal = "system";
};

struct EngineOptions {
  /// Intra-query parallelism. 0 = hardware concurrency.
  size_t num_threads = 0;
  size_t morsel_size = storage::RecordBatch::kDefaultBatchSize;
  /// Built-in relational optimizations (folding, pushdown, pruning).
  bool enable_optimizer = true;
  /// Prepared-statement plan cache keyed on the statement's shape (the
  /// lexed key, literals as slots): SELECT executions run the lowered plan
  /// cached for it with their own parameters, skipping
  /// parse/plan/optimize/lower. Invalidated on any DDL. Bypassed while a
  /// statement observer is set (observers must see every parsed
  /// statement). Holds kPlanCacheCapacity shapes.
  bool enable_plan_cache = true;
  /// Skip table segments whose zone maps disprove a scan's pushed-down
  /// filter conjuncts. An execution-time decision (plans are identical
  /// either way), so cached plans stay valid across DML; off only for
  /// differential testing and ablation benchmarks.
  bool enable_zone_map_pruning = true;
  /// Statements slower than this are captured in the slow-query log
  /// (normalized SQL + plan digest + span tree), a ring of the last
  /// kSlowLogCapacity. Negative disables.
  double slow_query_threshold_ms = 100.0;
};

/// Statement shapes the plan cache holds (LRU).
inline constexpr size_t kPlanCacheCapacity = 256;
/// Entries the slow-query log keeps.
inline constexpr size_t kSlowLogCapacity = 64;

/// The SQL engine facade: parse -> plan -> optimize -> execute.
///
/// Extension points used by the Flock layer (all optional):
///  * `functions()` — register PREDICT and other ML UDFs;
///  * `set_plan_rewriter` — the SQLxML cross-optimizer hook, invoked after
///    built-in optimization and before execution;
///  * `set_model_ddl_handler` — CREATE/DROP MODEL delegation;
///  * `set_view_resolver` — read-only views (the model catalog) that
///    FROM/JOIN resolve to per-statement snapshots;
///  * `set_statement_observer` — eager provenance capture taps each
///    successfully executed statement.
class SqlEngine {
 public:
  using PlanRewriter = std::function<Status(PlanPtr*)>;
  using CreateModelHandler = std::function<Status(
      const CreateModelStatement&, const std::string& principal)>;
  using DropModelHandler = std::function<Status(
      const DropModelStatement&, const std::string& principal)>;
  using StatementObserver =
      std::function<void(const std::string& sql, const Statement& stmt)>;

  explicit SqlEngine(storage::Database* db, EngineOptions options = {});

  SqlEngine(const SqlEngine&) = delete;
  SqlEngine& operator=(const SqlEngine&) = delete;

  /// Lexes, parses and executes one statement.
  StatusOr<QueryResult> Execute(const std::string& sql,
                                const ExecOptions& exec_opts = {});

  /// Executes one already-lexed statement: its key is the plan-cache
  /// key and the slow-log text, its params bind into a cached plan,
  /// `explain_analyze` turns tracing on, and on a cache miss the parser
  /// consumes its tokens.
  StatusOr<QueryResult> Execute(const LexedStatement& lexed,
                                const ExecOptions& exec_opts = {});

  /// Plans (and binds) a SELECT without executing it. `reads_view`, when
  /// given, is set to whether the plan scans a view snapshot.
  StatusOr<PlanPtr> PlanQuery(const SelectStatement& stmt,
                              bool* reads_view = nullptr);

  /// Runs the built-in optimizer, then the plan rewriter if set.
  Status OptimizePlan(PlanPtr* plan);

  /// Executes a physical plan its caller lowered (PhysicalPlanner::Lower)
  /// and owns, with its literals as planned; the run's per-operator
  /// counters are then read with plan->CollectMetrics.
  StatusOr<storage::RecordBatch> ExecutePhysical(
      PhysicalPlan* plan, const ExecOptions& exec_opts = {});

  storage::Database* database() { return db_; }
  FunctionRegistry* functions() { return &registry_; }
  const FunctionRegistry* functions() const { return &registry_; }
  PlanCache* plan_cache() { return &plan_cache_; }
  const PlanCache* plan_cache() const { return &plan_cache_; }
  obs::SlowQueryLog* slow_log() { return &slow_log_; }
  const obs::SlowQueryLog* slow_log() const { return &slow_log_; }
  ThreadPool* thread_pool() { return pool_.get(); }
  const EngineOptions& options() const { return options_; }
  void set_num_threads(size_t n) { options_.num_threads = n; }
  void set_enable_optimizer(bool on) { options_.enable_optimizer = on; }

  /// Engine-lifetime totals of segments read/skipped by table scans, and
  /// of blocks read/skipped inside the read segments, accumulated after
  /// each SELECT / EXPLAIN ANALYZE; exported through the obs metrics
  /// registry as storage.segments_{scanned,pruned} and
  /// storage.blocks_{scanned,pruned}.
  uint64_t segments_scanned_total() const {
    return segments_scanned_total_.load(std::memory_order_relaxed);
  }
  uint64_t segments_pruned_total() const {
    return segments_pruned_total_.load(std::memory_order_relaxed);
  }
  uint64_t blocks_scanned_total() const {
    return blocks_scanned_total_.load(std::memory_order_relaxed);
  }
  uint64_t blocks_pruned_total() const {
    return blocks_pruned_total_.load(std::memory_order_relaxed);
  }

  void set_plan_rewriter(PlanRewriter rewriter) {
    plan_rewriter_ = std::move(rewriter);
  }
  void set_model_ddl_handler(CreateModelHandler create,
                             DropModelHandler drop) {
    create_model_handler_ = std::move(create);
    drop_model_handler_ = std::move(drop);
  }
  void set_statement_observer(StatementObserver observer) {
    statement_observer_ = std::move(observer);
  }
  /// Views resolve to snapshots each statement builds for itself: a plan
  /// that scans one is never cached, and no table may take a view's name.
  void set_view_resolver(ViewResolver resolver) {
    view_resolver_ = std::move(resolver);
  }

 private:
  /// `cache_as` is the lexed statement whose key and parameters an
  /// optimized SELECT plan is cached under, or nullptr to skip caching
  /// (INSERT ... SELECT).
  StatusOr<QueryResult> ExecuteStatement(const Statement& stmt,
                                         const LexedStatement* cache_as,
                                         const ExecOptions& exec_opts);
  StatusOr<QueryResult> ExecuteSelect(const SelectStatement& stmt,
                                      const LexedStatement* cache_as,
                                      const ExecOptions& exec_opts);
  StatusOr<QueryResult> ExecuteInsert(const InsertStatement& stmt,
                                      const ExecOptions& exec_opts);
  StatusOr<QueryResult> ExecuteUpdate(const UpdateStatement& stmt);
  StatusOr<QueryResult> ExecuteDelete(const DeleteStatement& stmt);

  /// Lowers `plan` under the "lower" span.
  StatusOr<PhysicalPlanPtr> LowerPlan(const LogicalPlan& plan);
  /// One execution of `plan` with the statement parameters `params`
  /// (null: literals as planned); `metrics` receives its counters. The
  /// execution's state, and the scoring bindings it holds, are released
  /// before this returns.
  StatusOr<storage::RecordBatch> RunExecutor(
      const PhysicalPlan& plan, const std::vector<storage::Value>* params,
      const ExecOptions& exec_opts,
      std::vector<OperatorMetricsSnapshot>* metrics);
  /// Runs `plan` under the "execute" span into `result`: rows, operator
  /// metrics (folded into the scan totals and grafted into the trace) and
  /// the plan digest.
  Status Run(const PhysicalPlan& plan,
             const std::vector<storage::Value>* params,
             const ExecOptions& exec_opts, QueryResult* result);
  /// Folds scan segment counters from one statement's operator metrics
  /// into the engine-lifetime totals.
  void AccumulateScanMetrics(
      const std::vector<OperatorMetricsSnapshot>& snapshots);
  /// Captures `result` in the slow-query log, under the statement's
  /// lexed key, when it crossed the threshold.
  void MaybeRecordSlowQuery(const QueryResult& result,
                            const std::string& key);

  storage::Database* db_;
  EngineOptions options_;
  FunctionRegistry registry_;
  std::unique_ptr<ThreadPool> pool_;
  PlanCache plan_cache_;
  obs::SlowQueryLog slow_log_;
  std::atomic<uint64_t> segments_scanned_total_{0};
  std::atomic<uint64_t> segments_pruned_total_{0};
  std::atomic<uint64_t> blocks_scanned_total_{0};
  std::atomic<uint64_t> blocks_pruned_total_{0};

  PlanRewriter plan_rewriter_;
  CreateModelHandler create_model_handler_;
  DropModelHandler drop_model_handler_;
  StatementObserver statement_observer_;
  ViewResolver view_resolver_;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_ENGINE_H_
