#include "sql/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>

#include "common/logging.h"
#include "obs/trace.h"
#include "sql/evaluator.h"
#include "sql/key_index.h"

namespace flock::sql {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;
using storage::RecordBatch;
using storage::Schema;
using storage::Value;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Polls `token` and, when it fires, annotates the active trace (if this
/// thread carries a recorder) with the cancel cause — so a traced request
/// that was killed shows `exec.cancelled` / `exec.deadline_exceeded`
/// where execution stopped.
Status CheckCancel(const CancelToken& token, const char* where) {
  Status st = token.Check(where);
  if (!st.ok() && obs::TraceRecorder::Current() != nullptr) {
    obs::ScopedSpan cause(st.code() == StatusCode::kCancelled
                              ? "exec.cancelled"
                              : "exec.deadline_exceeded");
  }
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pipeline sinks
// ---------------------------------------------------------------------------

/// Receives the morsels a pipeline produces. Each parallel task owns one
/// local state (no locking on the hot path); Finish merges local states in
/// task order, which keeps results deterministic for a fixed thread count.
class Executor::PipelineSink {
 public:
  virtual ~PipelineSink() = default;
  virtual void MakeLocals(size_t n) = 0;
  virtual Status Consume(size_t local, RecordBatch morsel) = 0;
};

/// Concatenates morsels in task order into one dense batch.
class Executor::CollectSink : public Executor::PipelineSink {
 public:
  explicit CollectSink(Schema schema) : schema_(std::move(schema)) {}

  void MakeLocals(size_t n) override {
    locals_.clear();
    for (size_t i = 0; i < n; ++i) locals_.emplace_back(schema_);
  }

  Status Consume(size_t local, RecordBatch morsel) override {
    locals_[local].Append(morsel);
    return Status::OK();
  }

  StatusOr<RecordBatch> Finish() {
    RecordBatch result(schema_);
    for (const auto& local : locals_) result.Append(local);
    return result;
  }

 private:
  Schema schema_;
  std::vector<RecordBatch> locals_;
};

/// Thread-local hash aggregation: every task folds its morsels into a
/// private group table keyed by a KeyIndex; Finish merges the partial
/// states in task order and emits one row per group, in first-seen order.
class Executor::AggregateSink : public Executor::PipelineSink {
 public:
  AggregateSink(const HashAggregateOp& op, const ExecContext& ctx)
      : op_(op), ctx_(ctx) {}

  Status Init() {
    const Schema& out = op_.output_schema();
    for (size_t g = 0; g < op_.group_by.size(); ++g) {
      key_types_.push_back(out.column(g).type);
    }
    for (const auto& agg : op_.aggregates) {
      const std::string& fn = agg->function_name;
      AggSpec spec;
      if (fn == "COUNT") {
        spec.fn = agg->distinct ? Fn::kCountDistinct : Fn::kCount;
      } else if (agg->distinct) {
        return Status::NotSupported(
            "DISTINCT is only supported for COUNT aggregates");
      } else if (fn == "SUM") {
        spec.fn = out.column(key_types_.size() + specs_.size()).type ==
                          DataType::kInt64
                      ? Fn::kIntSum
                      : Fn::kSum;
      } else if (fn == "AVG") {
        spec.fn = Fn::kAvg;
      } else if (fn == "MIN") {
        spec.fn = Fn::kMin;
      } else if (fn == "MAX") {
        spec.fn = Fn::kMax;
      } else {
        return Status::Internal("unknown aggregate: " + fn);
      }
      if (!agg->children.empty() &&
          agg->children[0]->kind != ExprKind::kStar) {
        spec.arg = agg->children[0].get();
      } else if (spec.fn != Fn::kCount) {
        return Status::NotSupported(fn + " needs an argument other than *");
      }
      specs_.push_back(spec);
    }
    return Status::OK();
  }

  void MakeLocals(size_t n) override {
    locals_.clear();
    for (size_t i = 0; i < n; ++i) {
      locals_.push_back(std::make_unique<GroupTable>(key_types_, specs_));
    }
  }

  Status Consume(size_t local, RecordBatch morsel) override {
    const size_t n = morsel.num_rows();
    const auto start = Clock::now();
    GroupTable& table = *locals_[local];

    KeyColumns keys;
    keys.reserve(key_types_.size());
    for (size_t g = 0; g < key_types_.size(); ++g) {
      FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                             EvaluateExpr(*op_.group_by[g], morsel,
                                          ctx_.registry, ctx_.params));
      FLOCK_ASSIGN_OR_RETURN(col, NormalizeType(std::move(col), key_types_[g]));
      keys.push_back(std::move(col));
    }
    std::vector<uint64_t> hashes;
    HashKeys(keys, n, &hashes);
    std::vector<uint32_t> group(n);
    bool inserted;
    for (size_t r = 0; r < n; ++r) {
      group[r] = table.groups.FindOrInsert(keys, r, hashes[r], &inserted);
    }
    table.Resize(table.groups.size());

    ColumnVectorPtr group_col;  // `group` as a column, for COUNT(DISTINCT)
    for (size_t a = 0; a < specs_.size(); ++a) {
      const AggSpec& spec = specs_[a];
      AggState& s = table.aggs[a];
      if (spec.arg == nullptr) {  // COUNT(*)
        for (size_t r = 0; r < n; ++r) ++s.count[group[r]];
        continue;
      }
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr arg,
          EvaluateExpr(*spec.arg, morsel, ctx_.registry, ctx_.params));
      if (spec.fn == Fn::kCountDistinct) {
        if (group_col == nullptr) {
          group_col = std::make_shared<ColumnVector>(DataType::kInt64);
          group_col->Reserve(n);
          for (uint32_t g : group) group_col->AppendInt(g);
        }
        FLOCK_RETURN_NOT_OK(InsertDistinct(group_col, std::move(arg), &s));
        continue;
      }
      if (spec.fn == Fn::kIntSum) {
        FLOCK_ASSIGN_OR_RETURN(arg,
                               NormalizeType(std::move(arg), DataType::kInt64));
      }
      Accumulate(*arg, group, &s);
    }
    ctx_.metrics_of(op_).Record(n, 0, NanosSince(start));
    return Status::OK();
  }

  StatusOr<RecordBatch> Finish() {
    const auto start = Clock::now();
    // Merge the task-local tables in task order. Each task read a
    // contiguous run of morsels, so groups keep their first-seen order.
    GroupTable merged(key_types_, specs_);
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> to;  // local group -> merged group
    for (const auto& local : locals_) {
      const KeyIndex& groups = local->groups;
      HashKeys(groups.keys(), groups.size(), &hashes);
      to.resize(groups.size());
      bool inserted;
      for (size_t e = 0; e < groups.size(); ++e) {
        to[e] = merged.groups.FindOrInsert(groups.keys(), e, hashes[e],
                                           &inserted);
      }
      merged.Resize(merged.groups.size());
      for (size_t a = 0; a < specs_.size(); ++a) {
        FLOCK_RETURN_NOT_OK(Merge(local->aggs[a], to, &merged.aggs[a]));
      }
    }
    // A global aggregate has exactly one group, even over zero rows.
    const size_t num_groups =
        key_types_.empty() ? 1 : merged.groups.size();
    merged.Resize(num_groups);

    RecordBatch out(op_.output_schema());
    for (size_t k = 0; k < key_types_.size(); ++k) {
      out.SetColumn(k, merged.groups.keys()[k]);
    }
    for (size_t a = 0; a < specs_.size(); ++a) {
      FLOCK_RETURN_NOT_OK(Emit(merged.aggs[a], num_groups,
                               out.mutable_column(key_types_.size() + a)));
    }
    ctx_.metrics_of(op_).Record(0, out.num_rows(), NanosSince(start));
    return out;
  }

 private:
  enum class Fn { kCount, kCountDistinct, kSum, kIntSum, kAvg, kMin, kMax };
  struct AggSpec {
    Fn fn = Fn::kCount;
    const Expr* arg = nullptr;  // null for COUNT(*)
  };
  /// One aggregate's state, one slot per group; each function keeps only
  /// what it reads.
  struct AggState {
    explicit AggState(Fn fn) : fn(fn) {}

    void Resize(size_t groups) {
      switch (fn) {
        case Fn::kMin:
        case Fn::kMax:
          best.resize(groups);
          return;
        case Fn::kIntSum:
          int_sum.resize(groups);
          break;
        case Fn::kSum:
        case Fn::kAvg:
          sum.resize(groups);
          break;
        case Fn::kCount:
        case Fn::kCountDistinct:
          break;
      }
      count.resize(groups);
    }

    Fn fn;
    std::vector<int64_t> count;     // every function but MIN/MAX
    std::vector<double> sum;        // SUM over non-INT64, AVG
    std::vector<__int128> int_sum;  // SUM over INT64: exact until Emit
    std::vector<Value> best;        // MIN/MAX; NULL until a value
    /// COUNT(DISTINCT): the (group, value) pairs seen.
    std::optional<KeyIndex> distinct;
  };
  /// A task's (or the merged) groups: their keys and every aggregate.
  struct GroupTable {
    GroupTable(const std::vector<DataType>& key_types,
               const std::vector<AggSpec>& specs)
        : groups(key_types) {
      for (const AggSpec& spec : specs) aggs.emplace_back(spec.fn);
    }

    void Resize(size_t num_groups) {
      for (AggState& s : aggs) s.Resize(num_groups);
    }

    KeyIndex groups;
    std::vector<AggState> aggs;
  };

  /// True when MIN/MAX `fn` should replace `best` (NULL: none yet) by `v`.
  static bool Better(Fn fn, const Value& v, const Value& best) {
    if (best.is_null()) return true;
    const int cmp = v.Compare(best);
    return fn == Fn::kMin ? cmp < 0 : cmp > 0;
  }

  /// Folds the non-NULL rows of `arg` into their groups' state (every
  /// function but COUNT(*) and COUNT(DISTINCT)). Sums add in row order.
  static void Accumulate(const ColumnVector& arg,
                         const std::vector<uint32_t>& group, AggState* s) {
    const size_t n = group.size();
    switch (s->fn) {
      case Fn::kCount:
        for (size_t r = 0; r < n; ++r) {
          if (!arg.IsNull(r)) ++s->count[group[r]];
        }
        break;
      case Fn::kIntSum: {
        const int64_t* v = arg.ints().data();
        for (size_t r = 0; r < n; ++r) {
          if (arg.IsNull(r)) continue;
          ++s->count[group[r]];
          s->int_sum[group[r]] += v[r];
        }
        break;
      }
      case Fn::kSum:
      case Fn::kAvg:
        if (arg.type() == DataType::kDouble) {
          const double* v = arg.doubles().data();
          for (size_t r = 0; r < n; ++r) {
            if (arg.IsNull(r)) continue;
            ++s->count[group[r]];
            s->sum[group[r]] += v[r];
          }
        } else {
          for (size_t r = 0; r < n; ++r) {
            if (arg.IsNull(r)) continue;
            ++s->count[group[r]];
            s->sum[group[r]] += arg.AsDouble(r);
          }
        }
        break;
      case Fn::kMin:
      case Fn::kMax: {
        for (size_t r = 0; r < n; ++r) {
          if (arg.IsNull(r)) continue;
          Value v = arg.GetValue(r);
          Value& best = s->best[group[r]];
          if (Better(s->fn, v, best)) best = std::move(v);
        }
        break;
      }
      case Fn::kCountDistinct:
        break;  // InsertDistinct
    }
  }

  /// Adds the (group, value) pairs of the rows whose value is not NULL to
  /// `s->distinct` (typed after the first values seen) and counts each new
  /// pair for its group.
  static Status InsertDistinct(const ColumnVectorPtr& group,
                               ColumnVectorPtr value, AggState* s) {
    if (!s->distinct) {
      s->distinct.emplace(std::vector<DataType>{DataType::kInt64,
                                                value->type()});
    }
    FLOCK_ASSIGN_OR_RETURN(
        value, NormalizeType(std::move(value), s->distinct->keys()[1]->type()));
    const KeyColumns pair = {group, value};
    std::vector<uint64_t> hashes;
    HashKeys(pair, value->size(), &hashes);
    bool inserted;
    for (size_t r = 0; r < value->size(); ++r) {
      if (value->IsNull(r)) continue;
      s->distinct->FindOrInsert(pair, r, hashes[r], &inserted);
      if (inserted) ++s->count[static_cast<size_t>(group->int_at(r))];
    }
    return Status::OK();
  }

  /// Folds a task-local state into the merged one; `to` maps local groups
  /// to merged groups.
  static Status Merge(const AggState& from, const std::vector<uint32_t>& to,
                      AggState* into) {
    switch (into->fn) {
      case Fn::kCount:
        for (size_t e = 0; e < to.size(); ++e) {
          into->count[to[e]] += from.count[e];
        }
        break;
      case Fn::kIntSum:
        for (size_t e = 0; e < to.size(); ++e) {
          into->count[to[e]] += from.count[e];
          into->int_sum[to[e]] += from.int_sum[e];
        }
        break;
      case Fn::kSum:
      case Fn::kAvg:
        for (size_t e = 0; e < to.size(); ++e) {
          into->count[to[e]] += from.count[e];
          into->sum[to[e]] += from.sum[e];
        }
        break;
      case Fn::kMin:
      case Fn::kMax: {
        for (size_t e = 0; e < to.size(); ++e) {
          const Value& v = from.best[e];
          Value& best = into->best[to[e]];
          if (!v.is_null() && Better(into->fn, v, best)) best = v;
        }
        break;
      }
      case Fn::kCountDistinct: {
        if (!from.distinct) break;
        // Re-key the local pairs by merged group; only a pair new to the
        // merged index counts (the local counts would count it per task).
        const KeyIndex& pairs = *from.distinct;
        auto group = std::make_shared<ColumnVector>(DataType::kInt64);
        group->Reserve(pairs.size());
        for (size_t e = 0; e < pairs.size(); ++e) {
          group->AppendInt(to[static_cast<size_t>(pairs.keys()[0]->int_at(e))]);
        }
        FLOCK_RETURN_NOT_OK(InsertDistinct(group, pairs.keys()[1], into));
        break;
      }
    }
    return Status::OK();
  }

  /// Appends each group's result to `out`, whose type the planner chose.
  static Status Emit(const AggState& s, size_t num_groups, ColumnVector* out) {
    out->Reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      switch (s.fn) {
        case Fn::kCount:
        case Fn::kCountDistinct:
          FLOCK_RETURN_NOT_OK(out->AppendValue(Value::Int(s.count[g])));
          break;
        case Fn::kIntSum:
          if (s.count[g] == 0) {
            out->AppendNull();
          } else if (s.int_sum[g] > INT64_MAX || s.int_sum[g] < INT64_MIN) {
            return Status::OutOfRange("SUM overflows BIGINT");
          } else {
            FLOCK_RETURN_NOT_OK(out->AppendValue(
                Value::Int(static_cast<int64_t>(s.int_sum[g]))));
          }
          break;
        case Fn::kSum:
          FLOCK_RETURN_NOT_OK(out->AppendValue(
              s.count[g] > 0 ? Value::Double(s.sum[g]) : Value::Null()));
          break;
        case Fn::kAvg:
          FLOCK_RETURN_NOT_OK(out->AppendValue(
              s.count[g] > 0
                  ? Value::Double(s.sum[g] / static_cast<double>(s.count[g]))
                  : Value::Null()));
          break;
        case Fn::kMin:
        case Fn::kMax:
          FLOCK_RETURN_NOT_OK(out->AppendValue(s.best[g]));
          break;
      }
    }
    return Status::OK();
  }

  const HashAggregateOp& op_;
  const ExecContext& ctx_;
  std::vector<DataType> key_types_;  // the output's group-key types
  std::vector<AggSpec> specs_;
  std::vector<std::unique_ptr<GroupTable>> locals_;
};

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

StatusOr<RecordBatch> Executor::Execute(
    const PhysicalPlan& plan, std::vector<OperatorMetricsSnapshot>* metrics) {
  const size_t num_ops = plan.operators().size();
  ctx_.metrics = std::make_unique<OperatorMetrics[]>(num_ops);
  ctx_.states.resize(num_ops);
  for (const PhysicalOperator* op : plan.operators()) {
    ctx_.states[op->id()] = op->MakeState(ctx_);
  }
  StatusOr<RecordBatch> out = Run(plan.root());
  if (metrics != nullptr) *metrics = plan.Snapshot(ctx_.metrics.get());
  // Ends the execution: scoring bindings close (and audit) here.
  ctx_.states.clear();
  return out;
}

StatusOr<RecordBatch> Executor::Run(const PhysicalOperator& op) {
  // Every pipeline breaker and recursive materialization passes through
  // here, so one check covers sort/distinct/limit/build-side entry.
  FLOCK_RETURN_NOT_OK(CheckCancel(ctx_.cancel, "executor.run"));
  switch (op.kind()) {
    case PhysicalOperator::Kind::kTableScan:
    case PhysicalOperator::Kind::kFilter:
    case PhysicalOperator::Kind::kProject:
    case PhysicalOperator::Kind::kPredictScore:
    case PhysicalOperator::Kind::kHashJoinProbe:
    case PhysicalOperator::Kind::kNestedLoopJoin: {
      CollectSink sink(op.output_schema());
      FLOCK_RETURN_NOT_OK(RunPipeline(op, &sink));
      return sink.Finish();
    }
    case PhysicalOperator::Kind::kHashAggregate: {
      const auto& agg = static_cast<const HashAggregateOp&>(op);
      AggregateSink sink(agg, ctx_);
      FLOCK_RETURN_NOT_OK(sink.Init());
      FLOCK_RETURN_NOT_OK(RunPipeline(*agg.children[0], &sink));
      return sink.Finish();
    }
    case PhysicalOperator::Kind::kSort:
      return RunSort(static_cast<const SortOp&>(op));
    case PhysicalOperator::Kind::kDistinct:
      return RunDistinct(static_cast<const DistinctOp&>(op));
    case PhysicalOperator::Kind::kLimit:
      return RunLimit(static_cast<const LimitOp&>(op));
    case PhysicalOperator::Kind::kHashJoinBuild:
      return Status::Internal("HashJoinBuild cannot be executed standalone");
  }
  return Status::Internal("unknown physical operator kind");
}

Status Executor::PrepareHashJoin(const HashJoinProbeOp& probe) {
  const HashJoinBuildOp& build = probe.build();
  FLOCK_ASSIGN_OR_RETURN(RecordBatch rows, Run(*build.children[0]));
  const auto start = Clock::now();

  KeyColumns key_cols;
  key_cols.reserve(build.keys.size());
  for (const auto& e : build.keys) {
    FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                           EvaluateExpr(*e, rows, ctx_.registry, ctx_.params));
    key_cols.push_back(std::move(col));
  }
  const size_t num_rows = rows.num_rows();
  auto table = std::make_shared<JoinHashTable>(
      JoinHashTable{std::move(rows), KeyIndex(std::move(key_cols))});
  ctx_.metrics_of(build).Record(num_rows, table->index.size(),
                                NanosSince(start));
  ctx_.state_of<HashJoinBuildOp::State>(build)->table = std::move(table);
  return Status::OK();
}

Status Executor::PrepareNestedLoop(const NestedLoopJoinOp& join) {
  FLOCK_ASSIGN_OR_RETURN(RecordBatch rows, Run(*join.children[1]));
  ctx_.state_of<NestedLoopJoinOp::State>(join)->right_rows =
      std::make_shared<RecordBatch>(std::move(rows));
  return Status::OK();
}

Status Executor::RunPipeline(const PhysicalOperator& top, PipelineSink* sink) {
  // Walk down the streaming chain to the pipeline source.
  std::vector<const PhysicalOperator*> chain;  // top-down
  const PhysicalOperator* node = &top;
  while (node->IsStreaming()) {
    chain.push_back(node);
    node = node->children[0].get();
  }

  // Materialize join build sides up front: ParallelFor must never nest, so
  // all blocking child work happens before this pipeline's workers start.
  for (const PhysicalOperator* op : chain) {
    if (op->kind() == PhysicalOperator::Kind::kHashJoinProbe) {
      FLOCK_RETURN_NOT_OK(
          PrepareHashJoin(static_cast<const HashJoinProbeOp&>(*op)));
    } else if (op->kind() == PhysicalOperator::Kind::kNestedLoopJoin) {
      FLOCK_RETURN_NOT_OK(
          PrepareNestedLoop(static_cast<const NestedLoopJoinOp&>(*op)));
    }
  }

  // The source: either a parallel table scan or a materialized child.
  const TableScanOp* scan = nullptr;
  RecordBatch mat;
  if (node->kind() == PhysicalOperator::Kind::kTableScan) {
    scan = static_cast<const TableScanOp*>(node);
  } else {
    FLOCK_ASSIGN_OR_RETURN(mat, Run(*node));
  }

  // Build the morsel work list. For a scan, morsels never straddle
  // segments (so each is a zero-copy view over one segment's columns),
  // and zone-map pruning drops whole segments here, then every morsel
  // whose blocks the block maps all disprove — an execution-time decision
  // against live statistics and this execution's parameters, which is why
  // cached plans stay valid across DML and literal values.
  struct Morsel {
    size_t segment;  // kNoSegment for materialized sources
    size_t begin;
    size_t end;
  };
  constexpr size_t kNoSegment = static_cast<size_t>(-1);
  const size_t morsel_size = ctx_.morsel_size;
  std::vector<Morsel> work;
  if (scan != nullptr) {
    const storage::Table& table = *scan->table;
    const bool prune =
        ctx_.enable_zone_map_pruning && !scan->prune_conjuncts.empty();
    const std::vector<ScanPruneConjunct> conjuncts =
        prune ? BindPruneConjuncts(scan->prune_conjuncts, ctx_.params)
              : std::vector<ScanPruneConjunct>();
    constexpr size_t kBlockRows = storage::Table::kBlockRows;
    uint64_t scanned = 0, pruned = 0;
    uint64_t blocks_scanned = 0, blocks_pruned = 0;
    std::vector<char> block_disproved;  // per block of the current segment
    const size_t num_segments = table.num_segments();
    for (size_t s = 0; s < num_segments; ++s) {
      const size_t rows = table.segment_rows(s);
      if (rows == 0) continue;
      if (prune && ZoneMapsDisprove(conjuncts, [&](size_t c) -> const auto& {
            return table.segment_zone_map(s, c);
          })) {
        ++pruned;
        continue;
      }
      ++scanned;
      // A one-block segment's block map is its segment map: already
      // checked above.
      const size_t num_blocks = table.segment_blocks(s);
      const bool prune_blocks = prune && num_blocks > 1;
      if (prune_blocks) {
        block_disproved.resize(num_blocks);
        for (size_t b = 0; b < num_blocks; ++b) {
          block_disproved[b] =
              ZoneMapsDisprove(conjuncts, [&](size_t c) -> const auto& {
                return table.block_zone_map(s, c, b);
              })
                  ? 1
                  : 0;
        }
      }
      // A morsel is skipped only when every block it overlaps is
      // disproved, so any morsel size stays correct. A block counts as
      // scanned when any morsel reading its rows is kept.
      size_t next_unread_block = 0, read_blocks = 0;
      for (size_t begin = 0; begin < rows; begin += morsel_size) {
        const size_t end = std::min(rows, begin + morsel_size);
        const size_t first = begin / kBlockRows;
        const size_t last = (end - 1) / kBlockRows;
        if (prune_blocks &&
            std::all_of(block_disproved.begin() + first,
                        block_disproved.begin() + last + 1,
                        [](char d) { return d != 0; })) {
          continue;
        }
        read_blocks += last + 1 - std::max(first, next_unread_block);
        next_unread_block = last + 1;
        work.push_back(Morsel{s, begin, end});
      }
      blocks_scanned += read_blocks;
      blocks_pruned += num_blocks - read_blocks;
    }
    OperatorMetrics& metrics = ctx_.metrics_of(*scan);
    metrics.RecordSegments(scanned, pruned);
    metrics.RecordBlocks(blocks_scanned, blocks_pruned);
  } else {
    const size_t total = mat.num_rows();
    for (size_t begin = 0; begin < total; begin += morsel_size) {
      work.push_back(
          Morsel{kNoSegment, begin, std::min(total, begin + morsel_size)});
    }
  }

  auto make_morsel = [&](const Morsel& m) -> RecordBatch {
    if (scan != nullptr) {
      const auto start = Clock::now();
      RecordBatch batch = scan->ScanMorsel(m.segment, m.begin, m.end);
      ctx_.metrics_of(*scan).Record(m.end - m.begin, batch.num_rows(),
                                    NanosSince(start));
      return batch;
    }
    std::vector<uint32_t> sel(m.end - m.begin);
    for (size_t i = m.begin; i < m.end; ++i) {
      sel[i - m.begin] = static_cast<uint32_t>(i);
    }
    return mat.SelectView(std::move(sel));
  };

  // Pushes one source morsel through the chain into the sink. The
  // per-morsel poll is the executor's main cancellation point: a kill or
  // deadline expiry stops the query within one morsel's worth of work.
  auto drive = [&](size_t local, const Morsel& morsel) -> Status {
    FLOCK_RETURN_NOT_OK(CheckCancel(ctx_.cancel, "executor.morsel"));
    RecordBatch m = make_morsel(morsel);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const PhysicalOperator& op = **it;
      if (op.NeedsDenseInput() && m.has_selection()) m = m.Materialize();
      const uint64_t in_rows = m.num_rows();
      const auto start = Clock::now();
      FLOCK_ASSIGN_OR_RETURN(m, op.ProcessMorsel(ctx_, std::move(m)));
      ctx_.metrics_of(op).Record(in_rows, m.num_rows(), NanosSince(start));
    }
    return sink->Consume(local, std::move(m));
  };

  const size_t threads = ctx_.num_threads;
  if (threads == 1 || work.size() < 2) {
    // Install the token and principal thread-locally so layers reached
    // without a context parameter (scoring, the coalescer) see them too.
    RequestScope request_scope(ctx_.cancel, ctx_.principal);
    sink->MakeLocals(1);
    for (const Morsel& morsel : work) {
      FLOCK_RETURN_NOT_OK(drive(0, morsel));
    }
    return Status::OK();
  }

  // Morsel-driven parallelism: partition the work list into contiguous
  // chunks, one task per chunk; sinks merge per-task state in chunk order
  // (deterministic, and preserves source order end-to-end).
  size_t num_tasks = threads * 4;
  size_t chunk = std::max<size_t>(1, (work.size() + num_tasks - 1) / num_tasks);
  num_tasks = (work.size() + chunk - 1) / chunk;

  sink->MakeLocals(num_tasks);
  std::vector<Status> statuses(num_tasks, Status::OK());
  ctx_.pool->ParallelFor(num_tasks, [&](size_t t) {
    // Each worker re-installs the request on its own thread (thread-local
    // state does not cross ParallelFor). Workers observe a kill at their
    // next morsel boundary and drain normally — no detached threads, so
    // ParallelFor's join is the leak-freedom guarantee.
    RequestScope request_scope(ctx_.cancel, ctx_.principal);
    size_t begin = t * chunk;
    size_t end = std::min(work.size(), begin + chunk);
    for (size_t m = begin; m < end; ++m) {
      Status st = drive(t, work[m]);
      if (!st.ok()) {
        statuses[t] = std::move(st);
        return;
      }
    }
  });
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

StatusOr<RecordBatch> Executor::RunSort(const SortOp& op) {
  FLOCK_ASSIGN_OR_RETURN(RecordBatch input, Run(*op.children[0]));
  const auto start = Clock::now();
  std::vector<ColumnVectorPtr> key_cols;
  std::vector<bool> ascending;
  for (const auto& k : op.keys) {
    FLOCK_ASSIGN_OR_RETURN(
        ColumnVectorPtr col,
        EvaluateExpr(*k.expr, input, ctx_.registry, ctx_.params));
    key_cols.push_back(std::move(col));
    ascending.push_back(k.ascending);
  }
  std::vector<uint32_t> order(input.num_rows());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      Value va = key_cols[k]->GetValue(a);
      Value vb = key_cols[k]->GetValue(b);
      int cmp = va.Compare(vb);
      if (cmp != 0) return ascending[k] ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  RecordBatch out = input.Select(order);
  ctx_.metrics_of(op).Record(input.num_rows(), out.num_rows(),
                             NanosSince(start));
  return out;
}

StatusOr<RecordBatch> Executor::RunDistinct(const DistinctOp& op) {
  FLOCK_ASSIGN_OR_RETURN(RecordBatch input, Run(*op.children[0]));
  const auto start = Clock::now();
  KeyColumns cols;
  std::vector<DataType> types;
  for (size_t c = 0; c < input.num_columns(); ++c) {
    cols.push_back(input.column(c));
    types.push_back(input.column(c)->type());
  }
  std::vector<uint64_t> hashes;
  HashKeys(cols, input.num_rows(), &hashes);
  KeyIndex seen(types);
  std::vector<uint32_t> sel;
  bool inserted;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    seen.FindOrInsert(cols, r, hashes[r], &inserted);
    if (inserted) sel.push_back(static_cast<uint32_t>(r));
  }
  RecordBatch out = input.Select(sel);
  ctx_.metrics_of(op).Record(input.num_rows(), out.num_rows(),
                             NanosSince(start));
  return out;
}

StatusOr<RecordBatch> Executor::RunLimit(const LimitOp& op) {
  FLOCK_ASSIGN_OR_RETURN(RecordBatch input, Run(*op.children[0]));
  const auto start = Clock::now();
  size_t begin = std::min<size_t>(static_cast<size_t>(op.offset),
                                  input.num_rows());
  size_t end = input.num_rows();
  if (op.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(op.limit));
  }
  std::vector<uint32_t> sel;
  sel.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    sel.push_back(static_cast<uint32_t>(i));
  }
  RecordBatch out = input.Select(sel);
  ctx_.metrics_of(op).Record(input.num_rows(), out.num_rows(),
                             NanosSince(start));
  return out;
}

}  // namespace flock::sql
