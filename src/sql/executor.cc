#include "sql/executor.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>

#include "common/logging.h"
#include "obs/trace.h"
#include "sql/evaluator.h"

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
/// private group table; Finish merges the partial states (count/sum/min/
/// max/distinct-set union) in task order and emits the final rows.
class Executor::AggregateSink : public Executor::PipelineSink {
 public:
  AggregateSink(HashAggregateOp* op, const ExecContext& ctx)
      : op_(op), ctx_(ctx) {}

  Status Init() {
    for (const auto& agg : op_->aggregates) {
      if (agg->distinct && agg->function_name != "COUNT") {
        return Status::NotSupported(
            "DISTINCT is only supported for COUNT aggregates");
      }
      AggSpec spec;
      spec.fn = agg->function_name;
      spec.distinct = agg->distinct;
      if (agg->children.empty() ||
          agg->children[0]->kind == ExprKind::kStar) {
        spec.star = true;
      } else {
        spec.arg = agg->children[0].get();
      }
      specs_.push_back(spec);
    }
    return Status::OK();
  }

  void MakeLocals(size_t n) override { locals_.resize(n); }

  Status Consume(size_t local, RecordBatch morsel) override {
    const size_t n = morsel.num_rows();
    const auto start = Clock::now();
    LocalState& state = locals_[local];

    // Vectorized: evaluate group keys and aggregate arguments per morsel.
    std::vector<ColumnVectorPtr> key_cols;
    key_cols.reserve(op_->group_by.size());
    for (const auto& g : op_->group_by) {
      FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                             EvaluateExpr(*g, morsel, ctx_.registry));
      key_cols.push_back(std::move(col));
    }
    std::vector<ColumnVectorPtr> arg_cols(specs_.size());
    for (size_t a = 0; a < specs_.size(); ++a) {
      if (specs_[a].star) continue;
      FLOCK_ASSIGN_OR_RETURN(
          arg_cols[a], EvaluateExpr(*specs_[a].arg, morsel, ctx_.registry));
    }

    std::string key;
    for (size_t r = 0; r < n; ++r) {
      Group* g;
      if (op_->group_by.empty()) {
        if (state.groups.empty()) state.groups.emplace_back(specs_.size());
        g = &state.groups[0];
      } else {
        key.clear();
        AppendRowKey(key_cols, r, &key);
        auto [it, inserted] =
            state.index.try_emplace(key, state.groups.size());
        if (inserted) {
          Group fresh(specs_.size());
          fresh.key = key;
          for (const auto& col : key_cols) {
            fresh.keys.push_back(col->GetValue(r));
          }
          state.groups.push_back(std::move(fresh));
        }
        g = &state.groups[it->second];
      }
      for (size_t a = 0; a < specs_.size(); ++a) {
        const AggSpec& spec = specs_[a];
        AggState& s = g->states[a];
        if (spec.star) {
          ++s.count;
          continue;
        }
        const ColumnVector& arg = *arg_cols[a];
        if (arg.IsNull(r)) continue;
        if (spec.distinct) {
          std::string dkey;
          std::vector<ColumnVectorPtr> one = {arg_cols[a]};
          AppendRowKey(one, r, &dkey);
          s.distinct_keys.insert(std::move(dkey));
          continue;
        }
        ++s.count;
        s.sum += arg.AsDouble(r);
        Value v = arg.GetValue(r);
        if (!s.has_value) {
          s.min = v;
          s.max = v;
          s.has_value = true;
        } else {
          if (v.Compare(s.min) < 0) s.min = v;
          if (v.Compare(s.max) > 0) s.max = std::move(v);
        }
      }
    }
    op_->metrics.Record(n, 0, NanosSince(start));
    return Status::OK();
  }

  StatusOr<RecordBatch> Finish() {
    const auto start = Clock::now();
    // Merge thread-local tables in task order: group output order is then
    // first-seen order across tasks, deterministic for a fixed task count.
    std::unordered_map<std::string, size_t> index;
    std::vector<Group> groups;
    for (auto& local : locals_) {
      for (size_t li = 0; li < local.groups.size(); ++li) {
        Group& src = local.groups[li];
        size_t gi;
        if (op_->group_by.empty()) {
          if (groups.empty()) groups.emplace_back(specs_.size());
          gi = 0;
        } else {
          auto [it, inserted] = index.try_emplace(src.key, groups.size());
          if (inserted) {
            Group fresh(specs_.size());
            fresh.key = src.key;
            fresh.keys = src.keys;
            groups.push_back(std::move(fresh));
          }
          gi = it->second;
        }
        Group& dst = groups[gi];
        for (size_t a = 0; a < specs_.size(); ++a) {
          AggState& from = src.states[a];
          AggState& to = dst.states[a];
          to.count += from.count;
          to.sum += from.sum;
          if (from.has_value) {
            if (!to.has_value) {
              to.min = from.min;
              to.max = from.max;
              to.has_value = true;
            } else {
              if (from.min.Compare(to.min) < 0) to.min = from.min;
              if (from.max.Compare(to.max) > 0) to.max = from.max;
            }
          }
          to.distinct_keys.merge(from.distinct_keys);
        }
      }
    }
    if (op_->group_by.empty() && groups.empty()) {
      // Global aggregate: exactly one group, even over zero rows.
      groups.emplace_back(specs_.size());
    }

    RecordBatch out(op_->output_schema());
    for (const Group& g : groups) {
      std::vector<Value> row;
      row.reserve(op_->output_schema().num_columns());
      for (const Value& k : g.keys) row.push_back(k);
      for (size_t a = 0; a < specs_.size(); ++a) {
        const AggState& s = g.states[a];
        const std::string& fn = specs_[a].fn;
        if (fn == "COUNT") {
          row.push_back(Value::Int(
              specs_[a].distinct
                  ? static_cast<int64_t>(s.distinct_keys.size())
                  : s.count));
        } else if (fn == "SUM") {
          row.push_back(s.count > 0 ? Value::Double(s.sum)
                                    : Value::Null(DataType::kDouble));
        } else if (fn == "AVG") {
          row.push_back(s.count > 0
                            ? Value::Double(s.sum /
                                            static_cast<double>(s.count))
                            : Value::Null(DataType::kDouble));
        } else if (fn == "MIN") {
          row.push_back(s.has_value ? s.min : Value::Null());
        } else if (fn == "MAX") {
          row.push_back(s.has_value ? s.max : Value::Null());
        } else {
          return Status::Internal("unknown aggregate: " + fn);
        }
      }
      FLOCK_RETURN_NOT_OK(out.AppendRow(row));
    }
    op_->metrics.Record(0, out.num_rows(), NanosSince(start));
    return out;
  }

 private:
  struct AggSpec {
    std::string fn;        // COUNT/SUM/AVG/MIN/MAX
    bool star = false;     // COUNT(*)
    bool distinct = false;
    const Expr* arg = nullptr;  // null when star
  };
  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool has_value = false;
    Value min, max;
    std::set<std::string> distinct_keys;  // COUNT(DISTINCT x) only
  };
  struct Group {
    explicit Group(size_t num_specs) { states.resize(num_specs); }
    std::string key;            // serialized group key bytes
    std::vector<Value> keys;    // boxed key values for output
    std::vector<AggState> states;
  };
  struct LocalState {
    std::unordered_map<std::string, size_t> index;
    std::vector<Group> groups;
  };

  HashAggregateOp* op_;
  ExecContext ctx_;
  std::vector<AggSpec> specs_;
  std::vector<LocalState> locals_;
};

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

ExecContext Executor::MakeContext() const {
  ExecContext ctx;
  ctx.registry = registry_;
  ctx.pool = pool_;
  ctx.num_threads = pool_ ? std::max<size_t>(1, options_.num_threads) : 1;
  ctx.morsel_size = options_.morsel_size;
  ctx.cancel = options_.cancel;
  ctx.principal = options_.principal;
  return ctx;
}

StatusOr<RecordBatch> Executor::Execute(PhysicalOperator* root) {
  return Run(root);
}

StatusOr<RecordBatch> Executor::Run(PhysicalOperator* op) {
  // Every pipeline breaker and recursive materialization passes through
  // here, so one check covers sort/distinct/limit/build-side entry.
  FLOCK_RETURN_NOT_OK(CheckCancel(options_.cancel, "executor.run"));
  switch (op->kind()) {
    case PhysicalOperator::Kind::kTableScan:
    case PhysicalOperator::Kind::kFilter:
    case PhysicalOperator::Kind::kProject:
    case PhysicalOperator::Kind::kPredictScore:
    case PhysicalOperator::Kind::kHashJoinProbe:
    case PhysicalOperator::Kind::kNestedLoopJoin: {
      CollectSink sink(op->output_schema());
      FLOCK_RETURN_NOT_OK(RunPipeline(op, &sink));
      return sink.Finish();
    }
    case PhysicalOperator::Kind::kHashAggregate: {
      auto* agg = static_cast<HashAggregateOp*>(op);
      AggregateSink sink(agg, MakeContext());
      FLOCK_RETURN_NOT_OK(sink.Init());
      FLOCK_RETURN_NOT_OK(RunPipeline(agg->children[0].get(), &sink));
      return sink.Finish();
    }
    case PhysicalOperator::Kind::kSort:
      return RunSort(static_cast<SortOp*>(op));
    case PhysicalOperator::Kind::kDistinct:
      return RunDistinct(static_cast<DistinctOp*>(op));
    case PhysicalOperator::Kind::kLimit:
      return RunLimit(static_cast<LimitOp*>(op));
    case PhysicalOperator::Kind::kHashJoinBuild:
      return Status::Internal("HashJoinBuild cannot be executed standalone");
  }
  return Status::Internal("unknown physical operator kind");
}

Status Executor::PrepareHashJoin(HashJoinProbeOp* probe) {
  HashJoinBuildOp* build = probe->build();
  FLOCK_ASSIGN_OR_RETURN(RecordBatch rows, Run(build->children[0].get()));
  const auto start = Clock::now();

  auto table = std::make_shared<JoinHashTable>();
  std::vector<ColumnVectorPtr> key_cols;
  key_cols.reserve(build->keys.size());
  for (const auto& e : build->keys) {
    FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                           EvaluateExpr(*e, rows, registry_));
    key_cols.push_back(std::move(col));
  }
  table->index.reserve(rows.num_rows());
  std::string key;
  size_t indexed = 0;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    bool any_null = false;
    for (const auto& col : key_cols) {
      if (col->IsNull(r)) any_null = true;
    }
    if (any_null) continue;  // nulls never join
    key.clear();
    AppendRowKey(key_cols, r, &key);
    table->index[key].push_back(static_cast<uint32_t>(r));
    ++indexed;
  }
  build->metrics.Record(rows.num_rows(), indexed, NanosSince(start));
  table->rows = std::move(rows);
  build->table = std::move(table);
  return Status::OK();
}

Status Executor::PrepareNestedLoop(NestedLoopJoinOp* join) {
  FLOCK_ASSIGN_OR_RETURN(RecordBatch rows, Run(join->children[1].get()));
  join->right_rows = std::make_shared<RecordBatch>(std::move(rows));
  return Status::OK();
}

Status Executor::RunPipeline(PhysicalOperator* top, PipelineSink* sink) {
  // Walk down the streaming chain to the pipeline source.
  std::vector<PhysicalOperator*> chain;  // top-down
  PhysicalOperator* node = top;
  while (node->IsStreaming()) {
    chain.push_back(node);
    node = node->children[0].get();
  }

  // Materialize join build sides up front: ParallelFor must never nest, so
  // all blocking child work happens before this pipeline's workers start.
  for (PhysicalOperator* op : chain) {
    if (op->kind() == PhysicalOperator::Kind::kHashJoinProbe) {
      FLOCK_RETURN_NOT_OK(
          PrepareHashJoin(static_cast<HashJoinProbeOp*>(op)));
    } else if (op->kind() == PhysicalOperator::Kind::kNestedLoopJoin) {
      FLOCK_RETURN_NOT_OK(
          PrepareNestedLoop(static_cast<NestedLoopJoinOp*>(op)));
    }
  }

  const ExecContext ctx = MakeContext();

  // The source: either a parallel table scan or a materialized child.
  TableScanOp* scan = nullptr;
  RecordBatch mat;
  if (node->kind() == PhysicalOperator::Kind::kTableScan) {
    scan = static_cast<TableScanOp*>(node);
  } else {
    FLOCK_ASSIGN_OR_RETURN(mat, Run(node));
  }

  // Build the morsel work list. For a scan, morsels never straddle
  // segments (so each is a zero-copy view over one segment's columns),
  // and zone-map pruning drops whole segments here, then every morsel
  // whose blocks the block maps all disprove — an execution-time decision
  // against live statistics, which is why cached plans stay valid across
  // DML.
  struct Morsel {
    size_t segment;  // kNoSegment for materialized sources
    size_t begin;
    size_t end;
  };
  constexpr size_t kNoSegment = static_cast<size_t>(-1);
  std::vector<Morsel> work;
  if (scan != nullptr) {
    const bool prune =
        options_.enable_zone_map_pruning && !scan->prune_conjuncts.empty();
    constexpr size_t kBlockRows = storage::Table::kBlockRows;
    uint64_t scanned = 0, pruned = 0;
    uint64_t blocks_scanned = 0, blocks_pruned = 0;
    std::vector<char> block_disproved;  // per block of the current segment
    const size_t num_segments = scan->table->num_segments();
    for (size_t s = 0; s < num_segments; ++s) {
      const size_t rows = scan->table->segment_rows(s);
      if (rows == 0) continue;
      if (prune && scan->CanSkipSegment(s)) {
        ++pruned;
        continue;
      }
      ++scanned;
      // A one-block segment's block map is its segment map: already
      // checked above.
      const size_t num_blocks = scan->table->segment_blocks(s);
      const bool prune_blocks = prune && num_blocks > 1;
      if (prune_blocks) {
        block_disproved.resize(num_blocks);
        for (size_t b = 0; b < num_blocks; ++b) {
          block_disproved[b] = scan->CanSkipBlock(s, b) ? 1 : 0;
        }
      }
      // A morsel is skipped only when every block it overlaps is
      // disproved, so any morsel size stays correct. A block counts as
      // scanned when any morsel reading its rows is kept.
      size_t next_unread_block = 0, read_blocks = 0;
      for (size_t begin = 0; begin < rows; begin += options_.morsel_size) {
        const size_t end = std::min(rows, begin + options_.morsel_size);
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
    scan->metrics.RecordSegments(scanned, pruned);
    scan->metrics.RecordBlocks(blocks_scanned, blocks_pruned);
  } else {
    const size_t total = mat.num_rows();
    for (size_t begin = 0; begin < total; begin += options_.morsel_size) {
      work.push_back(Morsel{kNoSegment, begin,
                            std::min(total, begin + options_.morsel_size)});
    }
  }

  auto make_morsel = [&](const Morsel& m) -> RecordBatch {
    if (scan != nullptr) {
      const auto start = Clock::now();
      RecordBatch batch = scan->ScanMorsel(m.segment, m.begin, m.end);
      scan->metrics.Record(m.end - m.begin, batch.num_rows(),
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
    FLOCK_RETURN_NOT_OK(CheckCancel(options_.cancel, "executor.morsel"));
    RecordBatch m = make_morsel(morsel);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      PhysicalOperator* op = *it;
      if (op->NeedsDenseInput() && m.has_selection()) m = m.Materialize();
      const uint64_t in_rows = m.num_rows();
      const auto start = Clock::now();
      FLOCK_ASSIGN_OR_RETURN(m, op->ProcessMorsel(ctx, std::move(m)));
      op->metrics.Record(in_rows, m.num_rows(), NanosSince(start));
    }
    return sink->Consume(local, std::move(m));
  };

  size_t threads = pool_ ? std::max<size_t>(1, options_.num_threads) : 1;
  if (threads == 1 || work.size() < 2) {
    // Install the token and principal thread-locally so layers reached
    // without a context parameter (scoring, the coalescer) see them too.
    RequestScope request_scope(options_.cancel, options_.principal);
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
  pool_->ParallelFor(num_tasks, [&](size_t t) {
    // Each worker re-installs the request on its own thread (thread-local
    // state does not cross ParallelFor). Workers observe a kill at their
    // next morsel boundary and drain normally — no detached threads, so
    // ParallelFor's join is the leak-freedom guarantee.
    RequestScope request_scope(options_.cancel, options_.principal);
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

StatusOr<RecordBatch> Executor::RunSort(SortOp* op) {
  FLOCK_ASSIGN_OR_RETURN(RecordBatch input, Run(op->children[0].get()));
  const auto start = Clock::now();
  std::vector<ColumnVectorPtr> key_cols;
  std::vector<bool> ascending;
  for (const auto& k : op->keys) {
    FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                           EvaluateExpr(*k.expr, input, registry_));
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
  op->metrics.Record(input.num_rows(), out.num_rows(), NanosSince(start));
  return out;
}

StatusOr<RecordBatch> Executor::RunDistinct(DistinctOp* op) {
  FLOCK_ASSIGN_OR_RETURN(RecordBatch input, Run(op->children[0].get()));
  const auto start = Clock::now();
  std::vector<ColumnVectorPtr> cols;
  for (size_t c = 0; c < input.num_columns(); ++c) {
    cols.push_back(input.column(c));
  }
  std::unordered_map<std::string, bool> seen;
  std::vector<uint32_t> sel;
  std::string key;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    key.clear();
    AppendRowKey(cols, r, &key);
    if (seen.try_emplace(key, true).second) {
      sel.push_back(static_cast<uint32_t>(r));
    }
  }
  RecordBatch out = input.Select(sel);
  op->metrics.Record(input.num_rows(), out.num_rows(), NanosSince(start));
  return out;
}

StatusOr<RecordBatch> Executor::RunLimit(LimitOp* op) {
  FLOCK_ASSIGN_OR_RETURN(RecordBatch input, Run(op->children[0].get()));
  const auto start = Clock::now();
  size_t begin = std::min<size_t>(static_cast<size_t>(op->offset),
                                  input.num_rows());
  size_t end = input.num_rows();
  if (op->limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(op->limit));
  }
  std::vector<uint32_t> sel;
  sel.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    sel.push_back(static_cast<uint32_t>(i));
  }
  RecordBatch out = input.Select(sel);
  op->metrics.Record(input.num_rows(), out.num_rows(), NanosSince(start));
  return out;
}

}  // namespace flock::sql
