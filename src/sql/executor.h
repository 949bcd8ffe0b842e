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

struct ExecutorOptions {
  /// Degree of intra-query parallelism. 1 = serial.
  size_t num_threads = 1;
  /// Rows per morsel flowing through a pipeline.
  size_t morsel_size = storage::RecordBatch::kDefaultBatchSize;
  /// Skip segments whose zone maps disprove the scan's pushed-down
  /// conjuncts. Off switches the decision only — plans are identical, so
  /// differential tests can compare pruned vs unpruned execution.
  bool enable_zone_map_pruning = true;
  /// Cooperative cancellation: polled at every morsel boundary (serial
  /// and parallel paths), before each pipeline breaker, and inside
  /// operators with unbounded per-morsel fan-out. A null token (the
  /// default) never fires.
  CancelToken cancel;
  std::string principal = "system";  // who scoring binds for
};

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
/// LogicalPlan first.
class Executor {
 public:
  Executor(const FunctionRegistry* registry, ThreadPool* pool,
           ExecutorOptions options)
      : registry_(registry), pool_(pool), options_(options) {}

  /// Executes an already-lowered plan. Operator metrics accumulate into
  /// the tree (call root->ResetMetrics() to re-run fresh).
  StatusOr<storage::RecordBatch> Execute(PhysicalOperator* root);

 private:
  class PipelineSink;
  class CollectSink;
  class AggregateSink;

  /// Recursively executes `op`, materializing its full result.
  StatusOr<storage::RecordBatch> Run(PhysicalOperator* op);

  /// Runs the streaming chain rooted at `top` (ending at a TableScan or a
  /// materialized blocking child), pushing every morsel into `sink`.
  Status RunPipeline(PhysicalOperator* top, PipelineSink* sink);

  /// Materializes the build side of each join in a pipeline chain before
  /// the pipeline itself starts (so ParallelFor never nests).
  Status PrepareHashJoin(HashJoinProbeOp* probe);
  Status PrepareNestedLoop(NestedLoopJoinOp* join);

  StatusOr<storage::RecordBatch> RunSort(SortOp* op);
  StatusOr<storage::RecordBatch> RunDistinct(DistinctOp* op);
  StatusOr<storage::RecordBatch> RunLimit(LimitOp* op);

  ExecContext MakeContext() const;

  const FunctionRegistry* registry_;
  ThreadPool* pool_;  // may be null when num_threads == 1
  ExecutorOptions options_;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_EXECUTOR_H_
