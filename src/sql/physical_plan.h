#ifndef FLOCK_SQL_PHYSICAL_PLAN_H_
#define FLOCK_SQL_PHYSICAL_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status_or.h"
#include "common/thread_pool.h"
#include "sql/ast.h"
#include "sql/function_registry.h"
#include "sql/key_index.h"
#include "sql/logical_plan.h"
#include "sql/predicate_program.h"
#include "storage/record_batch.h"
#include "storage/table.h"

namespace flock::sql {

/// Shared read-only state for one physical-plan execution.
struct ExecContext {
  const FunctionRegistry* registry = nullptr;
  ThreadPool* pool = nullptr;  // may be null (serial execution)
  size_t num_threads = 1;
  size_t morsel_size = storage::RecordBatch::kDefaultBatchSize;
  /// The request's cancellation token. Operators whose per-morsel work is
  /// unbounded in the morsel size (nested-loop join: morsel x entire
  /// right side) must poll it inside their row loops; everything else is
  /// covered by the executor's per-morsel check.
  CancelToken cancel;
  std::string principal = "system";  // who PredictScore binds for
};

/// Per-operator execution counters, accumulated across all worker threads
/// (wall time is therefore cumulative thread time, like EXPLAIN ANALYZE's
/// "actual time" summed over parallel workers).
struct OperatorMetrics {
  std::atomic<uint64_t> rows_in{0};
  std::atomic<uint64_t> rows_out{0};
  std::atomic<uint64_t> nanos{0};
  // Scan-only: segments read vs skipped by zone-map pruning, and blocks
  // of the read segments whose rows were read vs skipped by block maps.
  std::atomic<uint64_t> segments_scanned{0};
  std::atomic<uint64_t> segments_pruned{0};
  std::atomic<uint64_t> blocks_scanned{0};
  std::atomic<uint64_t> blocks_pruned{0};

  void Record(uint64_t in, uint64_t out, uint64_t ns) {
    rows_in.fetch_add(in, std::memory_order_relaxed);
    rows_out.fetch_add(out, std::memory_order_relaxed);
    nanos.fetch_add(ns, std::memory_order_relaxed);
  }
  void RecordSegments(uint64_t scanned, uint64_t pruned) {
    segments_scanned.fetch_add(scanned, std::memory_order_relaxed);
    segments_pruned.fetch_add(pruned, std::memory_order_relaxed);
  }
  void RecordBlocks(uint64_t scanned, uint64_t pruned) {
    blocks_scanned.fetch_add(scanned, std::memory_order_relaxed);
    blocks_pruned.fetch_add(pruned, std::memory_order_relaxed);
  }
  void Reset() {
    rows_in.store(0, std::memory_order_relaxed);
    rows_out.store(0, std::memory_order_relaxed);
    nanos.store(0, std::memory_order_relaxed);
    segments_scanned.store(0, std::memory_order_relaxed);
    segments_pruned.store(0, std::memory_order_relaxed);
    blocks_scanned.store(0, std::memory_order_relaxed);
    blocks_pruned.store(0, std::memory_order_relaxed);
  }
  double millis() const {
    return static_cast<double>(nanos.load(std::memory_order_relaxed)) / 1e6;
  }
};

/// A flattened, copyable view of one operator's metrics, in plan order
/// (pre-order; `depth` reconstructs the tree shape). Surfaced through
/// QueryResult for EXPLAIN ANALYZE and per-operator bench breakdowns.
struct OperatorMetricsSnapshot {
  std::string name;  // operator label, e.g. "HashJoinProbe(keys=1)"
  int depth = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  double wall_ms = 0.0;
  uint64_t segments_scanned = 0;  // scans only
  uint64_t segments_pruned = 0;   // scans only
  uint64_t blocks_scanned = 0;    // scans only
  uint64_t blocks_pruned = 0;     // scans only
};

class PhysicalOperator;
using PhysicalOperatorPtr = std::unique_ptr<PhysicalOperator>;

/// One node of the executable plan. The PhysicalPlanner lowers every
/// LogicalPlan into a tree of these; the Executor drives them as
/// morsel-parallel push pipelines.
///
/// Streaming operators (Filter, Project, PredictScore, HashJoinProbe,
/// NestedLoopJoin) transform one morsel at a time via ProcessMorsel and
/// carry no cross-morsel state, so the pipeline driver can run them on any
/// worker. Pipeline breakers (HashJoinBuild, HashAggregate, Sort, Distinct,
/// Limit) are materialized by the Executor.
class PhysicalOperator {
 public:
  enum class Kind {
    kTableScan,
    kFilter,
    kProject,
    kPredictScore,
    kHashJoinBuild,
    kHashJoinProbe,
    kNestedLoopJoin,
    kHashAggregate,
    kSort,
    kDistinct,
    kLimit,
  };

  PhysicalOperator(Kind kind, storage::Schema schema)
      : kind_(kind), output_schema_(std::move(schema)) {}
  virtual ~PhysicalOperator() = default;

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  Kind kind() const { return kind_; }
  const storage::Schema& output_schema() const { return output_schema_; }

  /// Operator name + salient parameters, e.g. "Filter(salary > 100)".
  virtual std::string label() const = 0;

  /// Extra fields for the EXPLAIN ANALYZE bracket, each with a leading
  /// space (e.g. " kernels=2 residual=0"); empty by default.
  virtual std::string AnalyzeDetail() const { return {}; }

  /// True for operators that transform morsels without cross-morsel state.
  virtual bool IsStreaming() const { return false; }

  /// Streaming operators that read raw columns (rather than evaluating
  /// expressions) need their input selection resolved first.
  virtual bool NeedsDenseInput() const { return false; }

  /// Transforms one morsel. Only called when IsStreaming().
  virtual StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input);

  /// Indented rendering; with `analyze`, appends per-operator metrics.
  std::string ToString(int indent = 0, bool analyze = false) const;

  /// Pre-order flatten of the subtree's metrics.
  void CollectMetrics(std::vector<OperatorMetricsSnapshot>* out,
                      int depth = 0) const;

  void ResetMetrics();

  std::vector<PhysicalOperatorPtr> children;
  mutable OperatorMetrics metrics;

 private:
  Kind kind_;
  storage::Schema output_schema_;
};

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// One conjunct of a scan's pushed-down predicate, pre-resolved against
/// *table* column indexes so zone-map checks are just numeric compares at
/// execution time. Pruning is conservative: a conjunct that cannot rule a
/// segment out leaves it scanned, and the Filter operator above still
/// evaluates the full predicate — so attaching conjuncts is strictly an
/// optimization and cached plans stay correct across DML. Built from the
/// same ClassifyConjunct shapes the Filter's PredicateProgram runs.
struct ScanPruneConjunct {
  enum class Kind { kCompare, kIsNull, kIsNotNull };
  Kind kind = Kind::kCompare;
  size_t table_column = 0;
  BinaryOp op = BinaryOp::kEq;  // kCompare only: col OP literal
  double literal = 0.0;         // kCompare only
  int param_slot = -1;          // kCompare only: the literal's slot
};

/// Maps a column index of a scan's output through the scan's `projection`
/// (empty = all columns) to the column index in `table`; -1 when out of
/// range.
int ScanOutputToTableColumn(const storage::Table& table,
                            const std::vector<size_t>& projection,
                            int output_index);

/// Appends to `out` the prune conjuncts of `predicate`, a predicate bound
/// against the output (`scan_schema`) of a scan of `table` narrowed by
/// `projection` (empty = all columns), resolved to `table` column indexes.
/// The conjuncts are read through ClassifyConjunct, the classifier the
/// Filter's compiled program uses; only shapes whose zone-map rejection is
/// exact are kept (numeric column CMP literal for = < <= > >=, the two
/// bounds of a non-negated numeric BETWEEN, IS [NOT] NULL). This is the one
/// reader of predicate values against zone maps: scan pruning and the
/// cross-optimizer's model compression both go through it.
void AppendPruneConjuncts(const Expr& predicate,
                          const storage::Schema& scan_schema,
                          const storage::Table& table,
                          const std::vector<size_t>& projection,
                          std::vector<ScanPruneConjunct>* out);

/// True when some conjunct is false for every row the zone maps summarize.
/// `zone_map(c)` returns the map of table column `c` at the level being
/// checked (a segment or a block), so every level shares one proof.
template <typename ZoneMapFn>
bool ZoneMapsDisprove(const std::vector<ScanPruneConjunct>& conjuncts,
                      ZoneMapFn zone_map) {
  for (const ScanPruneConjunct& conjunct : conjuncts) {
    const storage::ColumnStats& zm = zone_map(conjunct.table_column);
    switch (conjunct.kind) {
      case ScanPruneConjunct::Kind::kIsNull:
        if (zm.null_count == 0) return true;
        break;
      case ScanPruneConjunct::Kind::kIsNotNull:
        if (zm.null_count == zm.row_count) return true;
        break;
      case ScanPruneConjunct::Kind::kCompare:
        // A comparison never passes NULL, so an all-NULL segment cannot
        // satisfy it regardless of the range.
        if (zm.null_count == zm.row_count) return true;
        if (!zm.numeric || !zm.has_range) break;  // cannot rule out
        switch (conjunct.op) {
          case BinaryOp::kLt:
            if (!(zm.min < conjunct.literal)) return true;
            break;
          case BinaryOp::kLtEq:
            if (!(zm.min <= conjunct.literal)) return true;
            break;
          case BinaryOp::kGt:
            if (!(zm.max > conjunct.literal)) return true;
            break;
          case BinaryOp::kGtEq:
            if (!(zm.max >= conjunct.literal)) return true;
            break;
          case BinaryOp::kEq:
            if (conjunct.literal < zm.min || conjunct.literal > zm.max) {
              return true;
            }
            break;
          default:
            break;
        }
        break;
    }
  }
  return false;
}

/// What the chain of Filter nodes from `top` down to the table scan it
/// ends in proves about the scan's segments, read as scan pruning reads
/// it: the chain's prune conjuncts and the non-empty segments none of them
/// disproves, ascending. `scan` is null when `top` is no such chain (a
/// Filter-only path to a scan of a resolved table). Model compression
/// folds the standing segments' zone maps, and the plan cache re-derives
/// the set from a cached plan's newly bound literals with this one proof.
struct ScanProof {
  const LogicalPlan* scan = nullptr;
  std::vector<ScanPruneConjunct> conjuncts;
  std::vector<size_t> standing;
};
ScanProof ProveScan(const LogicalPlan& top);

class TableScanOp : public PhysicalOperator {
 public:
  TableScanOp(std::string table_name, storage::TablePtr table,
              std::vector<size_t> projection, storage::Schema schema)
      : PhysicalOperator(Kind::kTableScan, std::move(schema)),
        table_name(std::move(table_name)),
        table(std::move(table)),
        projection(std::move(projection)) {}

  std::string label() const override;

  /// Zero-copy view of rows [begin, end) of segment `segment`, narrowed to
  /// `projection`. The batch shares the segment's column vectors and must
  /// not outlive the statement (see storage::Table).
  storage::RecordBatch ScanMorsel(size_t segment, size_t begin,
                                  size_t end) const;

  /// True when the segment's zone maps prove no row can satisfy the
  /// pushed-down conjuncts. Evaluated per execution against live stats.
  bool CanSkipSegment(size_t segment) const;

  /// The same proof against the zone maps of one block of the segment
  /// (rows [block * kBlockRows, (block + 1) * kBlockRows)).
  bool CanSkipBlock(size_t segment, size_t block) const;

  std::string table_name;
  storage::TablePtr table;
  std::vector<size_t> projection;  // empty = all columns
  /// Filled by the planner from the parent Filter's predicate; consulted
  /// by the executor when zone-map pruning is enabled.
  std::vector<ScanPruneConjunct> prune_conjuncts;
};

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

/// Narrows each morsel's selection to the rows where `predicate` is TRUE,
/// through the PredicateProgram compiled from it at construction (shared
/// read-only by every morsel worker).
class FilterOp : public PhysicalOperator {
 public:
  FilterOp(PhysicalOperatorPtr child, ExprPtr predicate);

  std::string label() const override;
  std::string AnalyzeDetail() const override;
  bool IsStreaming() const override { return true; }
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) override;

  const ExprPtr predicate;
  const PredicateProgram program;
};

class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(PhysicalOperatorPtr child, std::vector<ExprPtr> exprs,
            storage::Schema schema);

  std::string label() const override;
  bool IsStreaming() const override { return true; }
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) override;

  std::vector<ExprPtr> exprs;

 private:
  /// Set when every expression is a bound column reference of matching
  /// type: the projection is then a zero-copy column shuffle that
  /// preserves selection vectors.
  std::vector<size_t> passthrough_;
  bool is_passthrough_ = false;
};

/// In-DBMS inference as a first-class operator (paper §4.1): evaluates one
/// or more PREDICT-family calls once per morsel and appends their scores as
/// extra columns, which the parent Filter/Project/Aggregate references.
/// Hoisting scoring out of scalar-expression evaluation gives it its own
/// EXPLAIN line and OperatorMetrics, and keeps threshold push-up intact
/// (PREDICT_GT & friends are just calls with a bool output column).
/// Each call evaluates its constant arguments and binds
/// (ScalarFunction::bind) once, on its first morsel with rows, for
/// ExecContext::principal; every worker scores through that binding until
/// the operator, lowered per execution, is destroyed.
class PredictScoreOp : public PhysicalOperator {
 public:
  PredictScoreOp(PhysicalOperatorPtr child, std::vector<ExprPtr> calls,
                 storage::Schema schema);

  std::string label() const override;
  bool IsStreaming() const override { return true; }
  bool NeedsDenseInput() const override { return true; }
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) override;

  std::vector<ExprPtr> calls;  // PREDICT-family function calls

 private:
  std::mutex bind_mu_;
  // Per call, set together under bind_mu_: its constant argument columns
  // (one row each) and the kernel they bound.
  std::vector<std::vector<storage::ColumnVectorPtr>> constants_;
  std::vector<std::optional<StatusOr<ScalarKernel>>> bound_;
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// The hash table shared (read-only) by all probe workers.
struct JoinHashTable {
  storage::RecordBatch rows;  // dense materialized build side
  KeyIndex index;             // the build keys, evaluated over `rows`
};

/// Build side of a hash join: a pipeline breaker that materializes its
/// child and indexes it by the join keys. Executed once by the Executor
/// before the probe pipeline starts.
class HashJoinBuildOp : public PhysicalOperator {
 public:
  HashJoinBuildOp(PhysicalOperatorPtr child, std::vector<ExprPtr> keys);

  std::string label() const override;

  std::vector<ExprPtr> keys;  // bound against the build child's schema
  std::shared_ptr<const JoinHashTable> table;  // set by the Executor
};

/// Probe side of a hash join: a streaming operator, so probes run
/// morsel-parallel against the shared read-only hash table — this is what
/// extends "automatic parallelization" past scan pipelines to joins.
/// children[0] = probe input, children[1] = HashJoinBuildOp.
class HashJoinProbeOp : public PhysicalOperator {
 public:
  HashJoinProbeOp(PhysicalOperatorPtr probe, PhysicalOperatorPtr build,
                  std::vector<ExprPtr> keys, std::vector<ExprPtr> residual,
                  JoinType join_type, storage::Schema schema);

  std::string label() const override;
  bool IsStreaming() const override { return true; }
  bool NeedsDenseInput() const override { return true; }
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) override;

  HashJoinBuildOp* build() {
    return static_cast<HashJoinBuildOp*>(children[1].get());
  }

  std::vector<ExprPtr> keys;  // bound against the probe child's schema
  /// Bound against probe ++ build schema; compiled into residual_program_.
  const std::vector<ExprPtr> residual;
  JoinType join_type = JoinType::kInner;

 private:
  std::optional<PredicateProgram> residual_program_;  // AND of `residual`
};

/// Cross join / non-equi join: streams probe-side morsels against the
/// materialized right side. children[0] = left input, children[1] = right
/// input (materialized by the Executor into `right_rows`).
class NestedLoopJoinOp : public PhysicalOperator {
 public:
  NestedLoopJoinOp(PhysicalOperatorPtr left, PhysicalOperatorPtr right,
                   ExprPtr condition, JoinType join_type,
                   storage::Schema schema);

  std::string label() const override;
  bool IsStreaming() const override { return true; }
  bool NeedsDenseInput() const override { return true; }
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) override;

  const ExprPtr condition;  // may be null (cross join)
  JoinType join_type = JoinType::kCross;
  std::shared_ptr<const storage::RecordBatch> right_rows;  // set by Executor

 private:
  std::optional<PredicateProgram> condition_program_;  // set iff condition
};

// ---------------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------------

/// Grouped aggregation. The Executor runs the child pipeline with
/// thread-local hash states merged at pipeline end (deterministically, in
/// task order), so aggregation scales with the thread pool.
class HashAggregateOp : public PhysicalOperator {
 public:
  HashAggregateOp(PhysicalOperatorPtr child, std::vector<ExprPtr> group_by,
                  std::vector<ExprPtr> aggregates, storage::Schema schema);

  std::string label() const override;

  std::vector<ExprPtr> group_by;
  std::vector<ExprPtr> aggregates;  // COUNT/SUM/AVG/MIN/MAX calls
};

class SortOp : public PhysicalOperator {
 public:
  SortOp(PhysicalOperatorPtr child, std::vector<SortKey> keys);

  std::string label() const override;

  std::vector<SortKey> keys;
};

class DistinctOp : public PhysicalOperator {
 public:
  explicit DistinctOp(PhysicalOperatorPtr child);

  std::string label() const override;
};

class LimitOp : public PhysicalOperator {
 public:
  LimitOp(PhysicalOperatorPtr child, int64_t limit, int64_t offset);

  std::string label() const override;

  int64_t limit = -1;  // -1 = unbounded
  int64_t offset = 0;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_PHYSICAL_PLAN_H_
