#ifndef FLOCK_SQL_PHYSICAL_PLAN_H_
#define FLOCK_SQL_PHYSICAL_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
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

/// The runtime state one operator keeps for one execution: a join's hash
/// table, PREDICT's bound kernels, a predicate re-read for the execution's
/// parameters. Each kind that keeps one derives its own.
struct OperatorState {
  virtual ~OperatorState() = default;
};

/// One execution of a physical plan: what it runs with (options, the
/// principal, the statement's parameters) and everything it changes while
/// it runs (each operator's counters and state). Operators are immutable
/// once lowered, so any number of executions may run one plan at once,
/// each with its own context. The Executor builds one per execution and
/// releases it, and the scoring bindings it holds, before it returns.
struct ExecContext {
  const FunctionRegistry* registry = nullptr;
  ThreadPool* pool = nullptr;  // may be null (serial execution)
  size_t num_threads = 1;
  size_t morsel_size = storage::RecordBatch::kDefaultBatchSize;
  bool enable_zone_map_pruning = true;
  /// The request's cancellation token. Operators whose per-morsel work is
  /// unbounded in the morsel size (nested-loop join: morsel x entire
  /// right side) must poll it inside their row loops; everything else is
  /// covered by the executor's per-morsel check.
  CancelToken cancel;
  std::string principal = "system";  // who PredictScore binds for
  /// The statement's parameter values (LexedStatement::params). Every
  /// literal with a slot reads its value here (LiteralValue); null reads
  /// every literal as planned.
  const std::vector<storage::Value>* params = nullptr;
  /// Per operator, indexed by PhysicalOperator::id().
  std::unique_ptr<OperatorMetrics[]> metrics;
  std::vector<std::unique_ptr<OperatorState>> states;  // null: none kept

  OperatorMetrics& metrics_of(const PhysicalOperator& op) const;
  /// `op`'s state for this execution, as the kind it made (MakeState).
  template <typename State>
  State* state_of(const PhysicalOperator& op) const;
};

using PhysicalOperatorPtr = std::unique_ptr<PhysicalOperator>;

/// One node of the executable plan. The PhysicalPlanner lowers every
/// LogicalPlan into a tree of these; the Executor drives them as
/// morsel-parallel push pipelines.
///
/// Operators are immutable once lowered: everything an execution changes
/// lives in its ExecContext (counters, and the state MakeState returns),
/// so one tree can run many executions at once.
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
  /// Pre-order position in its PhysicalPlan, which an execution's
  /// counters and state are indexed by.
  size_t id() const { return id_; }

  /// Operator name + salient parameters, e.g. "Filter((salary > 100))".
  /// With `shape`, the statement's literals render as their slots
  /// ("Filter((salary > ?i))", see Expr::ToString), so the label holds
  /// for every statement a cached plan serves.
  virtual std::string label(bool shape) const = 0;

  /// Extra fields for the EXPLAIN ANALYZE bracket, each with a leading
  /// space (e.g. " kernels=2 residual=0"); empty by default.
  virtual std::string AnalyzeDetail() const { return {}; }

  /// True for operators that transform morsels without cross-morsel state.
  virtual bool IsStreaming() const { return false; }

  /// Streaming operators that read raw columns (rather than evaluating
  /// expressions) need their input selection resolved first.
  virtual bool NeedsDenseInput() const { return false; }

  /// The state this operator keeps for the execution `ctx` describes,
  /// made once before the execution starts; null when it keeps none.
  virtual std::unique_ptr<OperatorState> MakeState(
      const ExecContext& ctx) const;

  /// Transforms one morsel. Only called when IsStreaming().
  virtual StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) const;

  std::vector<PhysicalOperatorPtr> children;

 private:
  friend class PhysicalPlan;

  Kind kind_;
  storage::Schema output_schema_;
  size_t id_ = 0;
};

inline OperatorMetrics& ExecContext::metrics_of(
    const PhysicalOperator& op) const {
  return metrics[op.id()];
}

template <typename State>
State* ExecContext::state_of(const PhysicalOperator& op) const {
  return static_cast<State*>(states[op.id()].get());
}

/// A lowered plan: the operator tree PhysicalPlanner::Lower built, with
/// each operator's id, shape label and depth, and the plan's digest,
/// computed once. Immutable, so the plan cache shares one per statement
/// shape and every execution of that shape runs it, each with its own
/// ExecContext.
class PhysicalPlan {
 public:
  explicit PhysicalPlan(PhysicalOperatorPtr root);

  const PhysicalOperator& root() const { return *root_; }
  /// Every operator, in pre-order (index = id()).
  const std::vector<const PhysicalOperator*>& operators() const {
    return operators_;
  }
  /// Stable 16-hex-digit digest of the plan's shape: a hash over the
  /// pre-order shape labels and depths, so every statement of one shape
  /// shares it, hit or miss, and the slow-query log can group outliers
  /// by plan.
  const std::string& digest() const { return digest_; }

  /// One execution's counters (`metrics`, indexed by operator id) as
  /// snapshots in plan order, named by the shape labels.
  std::vector<OperatorMetricsSnapshot> Snapshot(
      const OperatorMetrics* metrics) const;

  /// Indented rendering with the literals the plan was lowered with
  /// (EXPLAIN); with `metrics` (one execution's Snapshot), every
  /// operator's counters too (EXPLAIN ANALYZE).
  std::string ToString(
      const std::vector<OperatorMetricsSnapshot>* metrics = nullptr) const;

  /// Appends the counters of this plan's last SqlEngine::ExecutePhysical
  /// run (a plan its caller lowered and owns; shared plans report each
  /// execution's counters in its QueryResult instead).
  void CollectMetrics(std::vector<OperatorMetricsSnapshot>* out) const;

 private:
  friend class SqlEngine;

  PhysicalOperatorPtr root_;
  std::vector<const PhysicalOperator*> operators_;
  std::vector<std::string> labels_;  // label(/*shape=*/true)
  std::vector<int> depths_;
  std::string digest_;
  std::vector<OperatorMetricsSnapshot> last_run_;  // ExecutePhysical's
};
using PhysicalPlanPtr = std::unique_ptr<PhysicalPlan>;

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
  /// kCompare only. A BIGINT column compares to a BIGINT literal exactly,
  /// while zone maps hold doubles. Rounding is monotone, so `x < L` still
  /// implies double(x) <= double(L); it implies double(x) < double(L) only
  /// while |L| < 2^53, where no two integers share a double. False for a
  /// BIGINT literal past that: a strict comparison is checked non-strict.
  bool strict_exact = true;
  int param_slot = -1;  // kCompare only: the literal's slot

  /// Sets the kCompare literal to `value`, a non-NULL number.
  void SetLiteral(const storage::Value& value);
};

/// `conjuncts` as an execution with the statement parameters `params`
/// reads them: every comparison whose literal has a slot takes that
/// parameter's value. Null `params`: as planned.
std::vector<ScanPruneConjunct> BindPruneConjuncts(
    const std::vector<ScanPruneConjunct>& conjuncts,
    const std::vector<storage::Value>* params);

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
      case ScanPruneConjunct::Kind::kCompare: {
        // A comparison never passes NULL, so an all-NULL segment cannot
        // satisfy it regardless of the range.
        if (zm.null_count == zm.row_count) return true;
        if (!zm.numeric || !zm.has_range) break;  // cannot rule out
        const double lit = conjunct.literal;
        const bool strict = conjunct.strict_exact;
        switch (conjunct.op) {
          case BinaryOp::kLt:
            if (strict ? !(zm.min < lit) : !(zm.min <= lit)) return true;
            break;
          case BinaryOp::kLtEq:
            if (!(zm.min <= lit)) return true;
            break;
          case BinaryOp::kGt:
            if (strict ? !(zm.max > lit) : !(zm.max >= lit)) return true;
            break;
          case BinaryOp::kGtEq:
            if (!(zm.max >= lit)) return true;
            break;
          case BinaryOp::kEq:
            if (lit < zm.min || lit > zm.max) return true;
            break;
          default:
            break;
        }
        break;
      }
    }
  }
  return false;
}

/// The non-empty segments of `table` that none of `conjuncts` disproves,
/// ascending.
std::vector<size_t> StandingSegments(
    const storage::Table& table,
    const std::vector<ScanPruneConjunct>& conjuncts);

/// What the chain of Filter nodes from `top` down to the table scan it
/// ends in proves about the scan's segments, read as scan pruning reads
/// it: the chain's prune conjuncts and the non-empty segments none of them
/// disproves, ascending. `scan` is null when `top` is no such chain (a
/// Filter-only path to a scan of a resolved table). Model compression
/// folds the standing segments' zone maps, and the plan cache re-derives
/// the set from the conjuncts with a hit's parameters bound.
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

  std::string label(bool shape) const override;

  /// Zero-copy view of rows [begin, end) of segment `segment`, built over
  /// the `projection` columns only, with the output schema. The batch
  /// shares the segment's column vectors and must not outlive the
  /// statement (see storage::Table).
  storage::RecordBatch ScanMorsel(size_t segment, size_t begin,
                                  size_t end) const;

  const std::string table_name;
  const storage::TablePtr table;
  const std::vector<size_t> projection;  // empty = all columns
  /// Filled by the planner from the parent Filter's predicate; the
  /// executor binds them for each execution and, when zone-map pruning is
  /// enabled, skips the segments and blocks they disprove.
  std::vector<ScanPruneConjunct> prune_conjuncts;
};

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

/// Narrows each morsel's selection to the rows where `predicate` is TRUE,
/// through the PredicateProgram compiled from it at construction (shared
/// read-only by every morsel worker; an execution whose parameters the
/// kernels read keeps its bound copy as its state).
class FilterOp : public PhysicalOperator {
 public:
  FilterOp(PhysicalOperatorPtr child, ExprPtr predicate);

  std::string label(bool shape) const override;
  std::string AnalyzeDetail() const override;
  bool IsStreaming() const override { return true; }
  std::unique_ptr<OperatorState> MakeState(
      const ExecContext& ctx) const override;
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) const override;

  const ExprPtr predicate;
  const PredicateProgram program;
};

class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(PhysicalOperatorPtr child, std::vector<ExprPtr> exprs,
            storage::Schema schema);

  std::string label(bool shape) const override;
  bool IsStreaming() const override { return true; }
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) const override;

  const std::vector<ExprPtr> exprs;

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
/// (ScalarFunction::bind) once per execution, on its first morsel with
/// rows, for ExecContext::principal; every worker scores through that
/// binding, which the execution's state holds until the execution ends.
class PredictScoreOp : public PhysicalOperator {
 public:
  PredictScoreOp(PhysicalOperatorPtr child, std::vector<ExprPtr> calls,
                 storage::Schema schema);

  std::string label(bool shape) const override;
  bool IsStreaming() const override { return true; }
  bool NeedsDenseInput() const override { return true; }
  std::unique_ptr<OperatorState> MakeState(
      const ExecContext& ctx) const override;
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) const override;

  const std::vector<ExprPtr> calls;  // PREDICT-family function calls
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
/// child and indexes it by the join keys. Executed once per execution by
/// the Executor, before the probe pipeline starts, into its State.
class HashJoinBuildOp : public PhysicalOperator {
 public:
  struct State : OperatorState {
    std::shared_ptr<const JoinHashTable> table;  // set by the Executor
  };

  HashJoinBuildOp(PhysicalOperatorPtr child, std::vector<ExprPtr> keys);

  std::string label(bool shape) const override;
  std::unique_ptr<OperatorState> MakeState(
      const ExecContext& ctx) const override;

  const std::vector<ExprPtr> keys;  // bound against the build child's schema
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

  std::string label(bool shape) const override;
  bool IsStreaming() const override { return true; }
  bool NeedsDenseInput() const override { return true; }
  std::unique_ptr<OperatorState> MakeState(
      const ExecContext& ctx) const override;
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) const override;

  const HashJoinBuildOp& build() const {
    return static_cast<const HashJoinBuildOp&>(*children[1]);
  }

  const std::vector<ExprPtr> keys;  // bound against the probe child's schema
  /// Bound against probe ++ build schema; compiled into residual_program_.
  const std::vector<ExprPtr> residual;
  const JoinType join_type = JoinType::kInner;

 private:
  std::optional<PredicateProgram> residual_program_;  // AND of `residual`
};

/// Cross join / non-equi join: streams probe-side morsels against the
/// materialized right side. children[0] = left input, children[1] = right
/// input (materialized by the Executor into the execution's State).
class NestedLoopJoinOp : public PhysicalOperator {
 public:
  struct State : OperatorState {
    std::shared_ptr<const storage::RecordBatch> right_rows;  // by Executor
    std::optional<PredicateProgram> condition;  // bound; else the op's own
  };

  NestedLoopJoinOp(PhysicalOperatorPtr left, PhysicalOperatorPtr right,
                   ExprPtr condition, JoinType join_type,
                   storage::Schema schema);

  std::string label(bool shape) const override;
  bool IsStreaming() const override { return true; }
  bool NeedsDenseInput() const override { return true; }
  std::unique_ptr<OperatorState> MakeState(
      const ExecContext& ctx) const override;
  StatusOr<storage::RecordBatch> ProcessMorsel(
      const ExecContext& ctx, storage::RecordBatch input) const override;

  const ExprPtr condition;  // may be null (cross join)
  const JoinType join_type = JoinType::kCross;

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

  std::string label(bool shape) const override;

  const std::vector<ExprPtr> group_by;
  const std::vector<ExprPtr> aggregates;  // COUNT/SUM/AVG/MIN/MAX calls
};

class SortOp : public PhysicalOperator {
 public:
  SortOp(PhysicalOperatorPtr child, std::vector<SortKey> keys);

  std::string label(bool shape) const override;

  const std::vector<SortKey> keys;
};

class DistinctOp : public PhysicalOperator {
 public:
  explicit DistinctOp(PhysicalOperatorPtr child);

  std::string label(bool shape) const override;
};

/// LIMIT/OFFSET. Planning pins both slots (PinScope), so a cached plan
/// runs only with the values it was lowered with.
class LimitOp : public PhysicalOperator {
 public:
  LimitOp(PhysicalOperatorPtr child, int64_t limit, int64_t offset);

  std::string label(bool shape) const override;

  const int64_t limit = -1;  // -1 = unbounded
  const int64_t offset = 0;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_PHYSICAL_PLAN_H_
