#ifndef FLOCK_SQL_EXECUTOR_H_
#define FLOCK_SQL_EXECUTOR_H_

#include <memory>
#include <string>

#include "common/cancel.h"
#include "common/status_or.h"
#include "common/thread_pool.h"
#include "sql/function_registry.h"
#include "sql/logical_plan.h"
#include "sql/physical_plan.h"
#include "sql/physical_planner.h"
#include "storage/record_batch.h"

namespace flock::sql {

/// Drives physical plans as morsel-driven push pipelines.
///
/// Each maximal chain of streaming operators (scan / filter / project /
/// predict-score / join-probe) forms one pipeline: the source row range is
/// partitioned across the thread pool and every worker pushes morsels
/// through the chain into a pipeline sink. Joins parallelize on the probe
/// side (all workers share the read-only hash table); aggregation runs
/// with thread-local hash states merged deterministically at pipeline end.
/// Remaining pipeline breakers (sort, distinct, limit) materialize. This
/// morsel parallelism is what gives in-DBMS inference its "automatic
/// parallelization" advantage over standalone scoring (paper Figure 4).
///
/// The executor runs physical plans only; PhysicalPlanner lowers a
/// LogicalPlan first. The plan is never written: an executor holds one
/// execution's ExecContext and releases its operator state before Execute
/// returns, so one plan may run on many executors at once.
class Executor {
 public:
  /// `ctx` describes the execution: registry, pool, degree of
  /// parallelism, morsel size, pruning switch, cancel token, principal and
  /// parameters. Execute adds the counters and operator state.
  explicit Executor(ExecContext ctx) : ctx_(std::move(ctx)) {}

  /// Runs `plan` once. `metrics`, when given, receives the execution's
  /// per-operator counters in plan order.
  StatusOr<storage::RecordBatch> Execute(
      const PhysicalPlan& plan,
      std::vector<OperatorMetricsSnapshot>* metrics = nullptr);

 private:
  class PipelineSink;
  class CollectSink;
  class AggregateSink;

  /// Recursively executes `op`, materializing its full result.
  StatusOr<storage::RecordBatch> Run(const PhysicalOperator& op);

  /// Runs the streaming chain rooted at `top` (ending at a TableScan or a
  /// materialized blocking child), pushing every morsel into `sink`.
  Status RunPipeline(const PhysicalOperator& top, PipelineSink* sink);

  /// Materializes the build side of each join in a pipeline chain before
  /// the pipeline itself starts (so ParallelFor never nests).
  Status PrepareHashJoin(const HashJoinProbeOp& probe);
  Status PrepareNestedLoop(const NestedLoopJoinOp& join);

  StatusOr<storage::RecordBatch> RunSort(const SortOp& op);
  StatusOr<storage::RecordBatch> RunDistinct(const DistinctOp& op);
  StatusOr<storage::RecordBatch> RunLimit(const LimitOp& op);

  ExecContext ctx_;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_EXECUTOR_H_
