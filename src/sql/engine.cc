#include "sql/engine.h"

#include <cstdio>
#include <optional>
#include <thread>

#include "common/stopwatch.h"
#include "sql/evaluator.h"
#include "sql/parser.h"
#include "sql/physical_planner.h"
#include "sql/planner.h"

namespace flock::sql {

namespace {

/// Converts the executor's per-operator wall_ms into nanoseconds for
/// span grafting.
uint64_t WallNanos(double wall_ms) {
  return wall_ms <= 0.0 ? 0
                        : static_cast<uint64_t>(wall_ms * 1e6);
}

/// Grafts the executed physical plan's per-operator counters under the
/// (already closed) `execute` span, plus a synthesized sibling `score`
/// span summing the PredictScore operators — so a trace shows where
/// model scoring sits inside execution without a separate timer on the
/// scoring hot path.
void GraftExecutionSpans(
    obs::TraceRecorder* recorder, size_t execute_span,
    const std::vector<OperatorMetricsSnapshot>& operator_metrics) {
  if (recorder == nullptr) return;
  double score_ms = 0.0;
  for (const auto& op : operator_metrics) {
    recorder->AddUnder(execute_span, op.name, op.depth,
                       WallNanos(op.wall_ms));
    if (op.name.rfind("PredictScore", 0) == 0) score_ms += op.wall_ms;
  }
  if (score_ms > 0.0) {
    // Sibling of execute (extra_depth -1 lifts it back to the stage
    // level): the model-scoring share of the run.
    recorder->AddUnder(execute_span, "score", -1, WallNanos(score_ms));
  }
}

}  // namespace

using storage::DataType;
using storage::RecordBatch;
using storage::Schema;
using storage::TablePtr;
using storage::Value;

SqlEngine::SqlEngine(storage::Database* db, EngineOptions options)
    : db_(db), options_(options),
      plan_cache_(kPlanCacheCapacity, &registry_),
      slow_log_(kSlowLogCapacity, options.slow_query_threshold_ms) {
  if (options_.num_threads == 0) {
    options_.num_threads =
        std::max(1u, std::thread::hardware_concurrency());
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  FunctionRegistry::RegisterBuiltins(&registry_);
}

StatusOr<QueryResult> SqlEngine::Execute(const std::string& sql,
                                         const ExecOptions& exec_opts) {
  FLOCK_ASSIGN_OR_RETURN(LexedStatement lexed, LexStatement(sql));
  return Execute(lexed, exec_opts);
}

StatusOr<QueryResult> SqlEngine::Execute(const LexedStatement& lexed,
                                         const ExecOptions& exec_opts) {
  Stopwatch timer;
  // A request that spent its whole deadline in the admission queue (or
  // was killed before a worker picked it up) stops here, before parsing.
  FLOCK_RETURN_NOT_OK(exec_opts.cancel.Check("sql.execute"));
  // Install the token and principal thread-locally for the parse/plan/DML
  // phases; the executor re-installs them on its workers.
  RequestScope request_scope(exec_opts.cancel, exec_opts.principal);
  // Tracing is per-call (the serving layer's `.trace on`) and implied by
  // EXPLAIN ANALYZE. The recorder is installed thread-locally so layers
  // without an explicit parameter path — the optimizer's rules, the WAL
  // observer firing behind the storage API — can attach spans; untraced
  // requests never allocate a recorder.
  const bool tracing = exec_opts.trace || lexed.explain_analyze;
  std::optional<obs::TraceRecorder> recorder;
  std::optional<obs::TraceScope> trace_scope;
  if (tracing) {
    recorder.emplace();
    trace_scope.emplace(&*recorder);
  }
  // Prepared-statement fast path: a hit on the statement's shape returns
  // the lowered plan cached for it, which runs with this statement's
  // parameters: parse, plan, optimize and lowering are skipped. Bypassed
  // while an observer is set — observers must see every parsed statement
  // (eager provenance capture).
  const bool use_cache =
      options_.enable_plan_cache && statement_observer_ == nullptr;
  std::shared_ptr<const PhysicalPlan> cached;
  if (use_cache) {
    obs::ScopedSpan span("plan_cache.lookup");
    cached = plan_cache_.Find(lexed.key, lexed.params);
  }
  QueryResult result;
  StatementPtr stmt;  // parsed on a cache miss only
  if (cached != nullptr) {
    FLOCK_RETURN_NOT_OK(Run(*cached, &lexed.params, exec_opts, &result));
    result.from_plan_cache = true;
  } else {
    {
      obs::ScopedSpan span("parse");
      FLOCK_ASSIGN_OR_RETURN(stmt, Parser::Parse(lexed.tokens));
    }
    FLOCK_ASSIGN_OR_RETURN(
        result,
        ExecuteStatement(*stmt, use_cache ? &lexed : nullptr, exec_opts));
  }
  result.elapsed_ms = timer.ElapsedMillis();
  if (recorder.has_value()) result.trace = recorder->Snapshot();
  MaybeRecordSlowQuery(result, lexed.key);
  if (stmt != nullptr && statement_observer_) {
    statement_observer_(lexed.sql, *stmt);
  }
  return result;
}

StatusOr<PhysicalPlanPtr> SqlEngine::LowerPlan(const LogicalPlan& plan) {
  obs::ScopedSpan span("lower");
  return PhysicalPlanner(&registry_).Lower(plan);
}

StatusOr<RecordBatch> SqlEngine::RunExecutor(
    const PhysicalPlan& plan, const std::vector<Value>* params,
    const ExecOptions& exec_opts,
    std::vector<OperatorMetricsSnapshot>* metrics) {
  ExecContext ctx;
  ctx.registry = &registry_;
  ctx.pool = pool_.get();
  ctx.num_threads = pool_ ? std::max<size_t>(1, options_.num_threads) : 1;
  ctx.morsel_size = options_.morsel_size;
  ctx.enable_zone_map_pruning = options_.enable_zone_map_pruning;
  ctx.cancel = exec_opts.cancel;
  ctx.principal = exec_opts.principal;
  ctx.params = params;
  return Executor(std::move(ctx)).Execute(plan, metrics);
}

Status SqlEngine::Run(const PhysicalPlan& plan,
                      const std::vector<Value>* params,
                      const ExecOptions& exec_opts, QueryResult* result) {
  size_t execute_span = 0;
  {
    obs::ScopedSpan span("execute");
    execute_span = span.index();
    FLOCK_ASSIGN_OR_RETURN(
        result->batch,
        RunExecutor(plan, params, exec_opts, &result->operator_metrics));
  }
  AccumulateScanMetrics(result->operator_metrics);
  if (auto* rec = obs::TraceRecorder::Current()) {
    GraftExecutionSpans(rec, execute_span, result->operator_metrics);
  }
  result->plan_digest = plan.digest();
  return Status::OK();
}

void SqlEngine::AccumulateScanMetrics(
    const std::vector<OperatorMetricsSnapshot>& snapshots) {
  uint64_t scanned = 0, pruned = 0, blocks_scanned = 0, blocks_pruned = 0;
  for (const auto& snap : snapshots) {
    scanned += snap.segments_scanned;
    pruned += snap.segments_pruned;
    blocks_scanned += snap.blocks_scanned;
    blocks_pruned += snap.blocks_pruned;
  }
  if (scanned > 0) {
    segments_scanned_total_.fetch_add(scanned, std::memory_order_relaxed);
  }
  if (pruned > 0) {
    segments_pruned_total_.fetch_add(pruned, std::memory_order_relaxed);
  }
  if (blocks_scanned > 0) {
    blocks_scanned_total_.fetch_add(blocks_scanned,
                                    std::memory_order_relaxed);
  }
  if (blocks_pruned > 0) {
    blocks_pruned_total_.fetch_add(blocks_pruned, std::memory_order_relaxed);
  }
}

void SqlEngine::MaybeRecordSlowQuery(const QueryResult& result,
                                     const std::string& key) {
  if (!slow_log_.ShouldRecord(result.elapsed_ms)) return;
  obs::SlowQueryEntry entry;
  entry.sql = key;
  entry.plan_digest = result.plan_digest;
  entry.elapsed_ms = result.elapsed_ms;
  entry.from_plan_cache = result.from_plan_cache;
  entry.trace = result.trace;
  slow_log_.Record(std::move(entry));
}

StatusOr<QueryResult> SqlEngine::ExecuteStatement(
    const Statement& stmt, const LexedStatement* cache_as,
    const ExecOptions& exec_opts) {
  // DML/DDL mutate in place and are not interruptible mid-statement
  // (see DESIGN.md "Cancellation contract"); the check here covers the
  // window between parse and the first mutation.
  FLOCK_RETURN_NOT_OK(exec_opts.cancel.Check("sql.statement"));
  switch (stmt.kind()) {
    case StatementKind::kSelect:
      return ExecuteSelect(static_cast<const SelectStatement&>(stmt),
                           cache_as, exec_opts);
    case StatementKind::kInsert:
      return ExecuteInsert(static_cast<const InsertStatement&>(stmt),
                           exec_opts);
    case StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const UpdateStatement&>(stmt));
    case StatementKind::kDelete:
      return ExecuteDelete(static_cast<const DeleteStatement&>(stmt));
    case StatementKind::kCreateTable: {
      const auto& create = static_cast<const CreateTableStatement&>(stmt);
      if (view_resolver_) {
        // No table may take a view's name.
        FLOCK_ASSIGN_OR_RETURN(TablePtr view,
                               view_resolver_(create.table_name));
        if (view != nullptr) {
          return Status::AlreadyExists(create.table_name + " is a view");
        }
      }
      FLOCK_RETURN_NOT_OK(db_->CreateTable(create.table_name,
                                           create.schema));
      plan_cache_.Clear();  // cached plans hold resolved table handles
      return QueryResult{};
    }
    case StatementKind::kDropTable: {
      const auto& drop = static_cast<const DropTableStatement&>(stmt);
      FLOCK_RETURN_NOT_OK(db_->DropTable(drop.table_name));
      plan_cache_.Clear();
      return QueryResult{};
    }
    case StatementKind::kCreateModel: {
      if (!create_model_handler_) {
        return Status::NotSupported(
            "CREATE MODEL requires the Flock layer (use flock::FlockEngine)");
      }
      FLOCK_RETURN_NOT_OK(create_model_handler_(
          static_cast<const CreateModelStatement&>(stmt),
          exec_opts.principal));
      // Cached plans may reference specializations of the old version.
      plan_cache_.Clear();
      return QueryResult{};
    }
    case StatementKind::kDropModel: {
      if (!drop_model_handler_) {
        return Status::NotSupported(
            "DROP MODEL requires the Flock layer (use flock::FlockEngine)");
      }
      FLOCK_RETURN_NOT_OK(drop_model_handler_(
          static_cast<const DropModelStatement&>(stmt),
          exec_opts.principal));
      plan_cache_.Clear();
      return QueryResult{};
    }
    case StatementKind::kExplain: {
      const auto& explain = static_cast<const ExplainStatement&>(stmt);
      if (explain.inner->kind() != StatementKind::kSelect) {
        return Status::NotSupported("EXPLAIN supports SELECT only");
      }
      const auto& select =
          static_cast<const SelectStatement&>(*explain.inner);
      PlanPtr plan;
      {
        obs::ScopedSpan span("plan");
        FLOCK_ASSIGN_OR_RETURN(plan, PlanQuery(select));
      }
      FLOCK_RETURN_NOT_OK(OptimizePlan(&plan));
      FLOCK_ASSIGN_OR_RETURN(PhysicalPlanPtr physical, LowerPlan(*plan));
      QueryResult result;
      if (explain.analyze) {
        // EXPLAIN ANALYZE: execute, then render the plan with the
        // per-operator counters the run recorded (the rows are replaced
        // by the rendered plan below).
        FLOCK_RETURN_NOT_OK(Run(*physical, nullptr, exec_opts, &result));
      }
      result.plan_text =
          "== Logical Plan ==\n" + plan->ToString() +
          "== Physical Plan ==\n" +
          physical->ToString(explain.analyze ? &result.operator_metrics
                                             : nullptr);
      if (explain.analyze) {
        // Surface plan-cache effectiveness next to the operator counters.
        PlanCacheStats cache = plan_cache_.stats();
        char line[160];
        std::snprintf(line, sizeof(line),
                      "== Plan Cache ==\nhits=%llu misses=%llu "
                      "hit_rate=%.1f%% entries=%zu\n",
                      static_cast<unsigned long long>(cache.hits),
                      static_cast<unsigned long long>(cache.misses),
                      100.0 * cache.hit_rate(), plan_cache_.size());
        result.plan_text += line;
        // EXPLAIN ANALYZE always runs traced (Execute installs the
        // recorder when the lexed statement starts EXPLAIN ANALYZE);
        // render the span tree too.
        if (auto* rec = obs::TraceRecorder::Current()) {
          result.plan_text +=
              "== Trace ==\n" + obs::RenderSpanTree(rec->Snapshot());
        }
      }
      Schema schema({storage::ColumnDef{"plan", DataType::kString, false}});
      result.batch = RecordBatch(schema);
      FLOCK_RETURN_NOT_OK(
          result.batch.AppendRow({Value::String(result.plan_text)}));
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

StatusOr<PlanPtr> SqlEngine::PlanQuery(const SelectStatement& stmt,
                                       bool* reads_view) {
  Planner planner(db_, &registry_, &view_resolver_);
  FLOCK_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(stmt));
  if (reads_view != nullptr) *reads_view = planner.reads_view();
  return plan;
}

Status SqlEngine::OptimizePlan(PlanPtr* plan) {
  obs::ScopedSpan span("optimize");
  if (options_.enable_optimizer) {
    FLOCK_RETURN_NOT_OK(Optimize(plan, &registry_));
  }
  if (plan_rewriter_) {
    {
      obs::ScopedSpan rewrite_span("optimize.cross_optimizer");
      FLOCK_RETURN_NOT_OK(plan_rewriter_(plan));
    }
    // The rewriter may have changed column usage (e.g. pruned PREDICT
    // arguments); re-run pruning so scans narrow accordingly.
    if (options_.enable_optimizer) {
      obs::ScopedSpan prune_span("optimize.post_rewrite_prune");
      OptimizerOptions prune_only;
      prune_only.constant_folding = false;
      prune_only.predicate_pushdown = false;
      FLOCK_RETURN_NOT_OK(Optimize(plan, &registry_, prune_only));
    }
  }
  return Status::OK();
}

StatusOr<RecordBatch> SqlEngine::ExecutePhysical(
    PhysicalPlan* plan, const ExecOptions& exec_opts) {
  plan->last_run_.clear();
  return RunExecutor(*plan, nullptr, exec_opts, &plan->last_run_);
}

StatusOr<QueryResult> SqlEngine::ExecuteSelect(
    const SelectStatement& stmt, const LexedStatement* cache_as,
    const ExecOptions& exec_opts) {
  PlanPtr plan;
  bool reads_view = false;
  std::vector<bool> pinned;
  std::shared_ptr<const PhysicalPlan> physical;
  {
    // Planning and lowering record which literals' values they read; the
    // cached plan holds only for those values.
    PinScope pins(cache_as != nullptr ? cache_as->params.size() : 0);
    {
      obs::ScopedSpan span("plan");
      FLOCK_ASSIGN_OR_RETURN(plan, PlanQuery(stmt, &reads_view));
    }
    FLOCK_RETURN_NOT_OK(OptimizePlan(&plan));
    FLOCK_ASSIGN_OR_RETURN(physical, LowerPlan(*plan));
    pinned = pins.pinned();
  }
  const std::vector<Value>* params =
      cache_as != nullptr ? &cache_as->params : nullptr;
  // A view's plan scans the snapshot taken for this statement; reusing it
  // would serve that moment again.
  if (cache_as != nullptr && !reads_view) {
    plan_cache_.Insert(cache_as->key, std::move(plan), physical,
                       cache_as->params, std::move(pinned));
  }
  QueryResult result;
  FLOCK_RETURN_NOT_OK(Run(*physical, params, exec_opts, &result));
  return result;
}

StatusOr<QueryResult> SqlEngine::ExecuteInsert(const InsertStatement& stmt,
                                               const ExecOptions& exec_opts) {
  obs::ScopedSpan span("execute");
  FLOCK_ASSIGN_OR_RETURN(TablePtr table, db_->GetTable(stmt.table_name));
  const Schema& schema = table->schema();

  // Resolve the target column order.
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) targets.push_back(i);
  } else {
    for (const auto& name : stmt.columns) {
      auto idx = schema.FindColumn(name);
      if (!idx.has_value()) {
        return Status::NotFound("column not found: " + name + " in " +
                                stmt.table_name);
      }
      targets.push_back(*idx);
    }
  }

  RecordBatch staged(schema);
  if (stmt.select != nullptr) {
    FLOCK_ASSIGN_OR_RETURN(QueryResult sub,
                           ExecuteSelect(*stmt.select, nullptr, exec_opts));
    if (sub.batch.num_columns() != targets.size()) {
      return Status::InvalidArgument(
          "INSERT SELECT column count mismatch");
    }
    for (size_t r = 0; r < sub.batch.num_rows(); ++r) {
      std::vector<Value> row(schema.num_columns(), Value::Null());
      std::vector<Value> src = sub.batch.GetRow(r);
      for (size_t c = 0; c < targets.size(); ++c) {
        row[targets[c]] = src[c];
      }
      FLOCK_RETURN_NOT_OK(staged.AppendRow(row));
    }
  } else {
    for (const auto& value_row : stmt.rows) {
      if (value_row.size() != targets.size()) {
        return Status::InvalidArgument("INSERT VALUES arity mismatch");
      }
      std::vector<Value> row(schema.num_columns(), Value::Null());
      for (size_t c = 0; c < targets.size(); ++c) {
        FLOCK_ASSIGN_OR_RETURN(Value v, EvaluateConstant(*value_row[c],
                                                         &registry_));
        row[targets[c]] = std::move(v);
      }
      FLOCK_RETURN_NOT_OK(staged.AppendRow(row));
    }
  }
  FLOCK_RETURN_NOT_OK(table->AppendBatch(staged));
  QueryResult result;
  result.rows_affected = staged.num_rows();
  return result;
}

StatusOr<QueryResult> SqlEngine::ExecuteUpdate(const UpdateStatement& stmt) {
  obs::ScopedSpan span("execute");
  FLOCK_ASSIGN_OR_RETURN(TablePtr table, db_->GetTable(stmt.table_name));
  const Schema& schema = table->schema();
  RecordBatch snapshot = table->ScanAll();

  // Bind every expression before the first mutation, so a statement that
  // names a missing column changes nothing.
  Planner binder(db_, &registry_);
  ExprPtr predicate;
  if (stmt.where != nullptr) {
    predicate = stmt.where->Clone();
    FLOCK_RETURN_NOT_OK(
        binder.BindTableExpr(predicate.get(), stmt.table_name, schema));
  }
  std::vector<std::pair<size_t, ExprPtr>> assignments;
  for (const auto& [col_name, expr] : stmt.assignments) {
    auto idx = schema.FindColumn(col_name);
    if (!idx.has_value()) {
      return Status::NotFound("column not found: " + col_name);
    }
    ExprPtr bound = expr->Clone();
    FLOCK_RETURN_NOT_OK(
        binder.BindTableExpr(bound.get(), stmt.table_name, schema));
    assignments.emplace_back(*idx, std::move(bound));
  }

  // Select target rows.
  std::vector<uint32_t> rows;
  if (predicate != nullptr) {
    FLOCK_ASSIGN_OR_RETURN(
        rows, EvaluatePredicate(PredicateProgram(*predicate, schema),
                                snapshot, &registry_));
  } else {
    rows.resize(snapshot.num_rows());
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<uint32_t>(i);
    }
  }

  // Evaluate assignments over the selected rows.
  RecordBatch selected = snapshot.Select(rows);
  size_t affected = rows.size();
  for (const auto& [idx, bound] : assignments) {
    FLOCK_ASSIGN_OR_RETURN(storage::ColumnVectorPtr values,
                           EvaluateExpr(*bound, selected, &registry_));
    std::vector<Value> boxed;
    boxed.reserve(values->size());
    for (size_t i = 0; i < values->size(); ++i) {
      boxed.push_back(values->GetValue(i));
    }
    FLOCK_RETURN_NOT_OK(table->UpdateColumn(idx, rows, boxed));
  }
  QueryResult result;
  result.rows_affected = affected;
  return result;
}

StatusOr<QueryResult> SqlEngine::ExecuteDelete(const DeleteStatement& stmt) {
  obs::ScopedSpan span("execute");
  FLOCK_ASSIGN_OR_RETURN(TablePtr table, db_->GetTable(stmt.table_name));
  const Schema& schema = table->schema();
  std::vector<bool> keep(table->num_rows(), true);
  if (stmt.where != nullptr) {
    RecordBatch snapshot = table->ScanAll();
    ExprPtr predicate = stmt.where->Clone();
    FLOCK_RETURN_NOT_OK(Planner(db_, &registry_)
                            .BindTableExpr(predicate.get(), stmt.table_name,
                                           schema));
    FLOCK_ASSIGN_OR_RETURN(
        std::vector<uint32_t> doomed,
        EvaluatePredicate(PredicateProgram(*predicate, schema), snapshot,
                          &registry_));
    for (uint32_t r : doomed) keep[r] = false;
  } else {
    std::fill(keep.begin(), keep.end(), false);
  }
  size_t removed = table->FilterInPlace(keep);
  QueryResult result;
  result.rows_affected = removed;
  return result;
}

}  // namespace flock::sql
