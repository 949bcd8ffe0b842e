#include "sql/physical_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <mutex>
#include <sstream>

#include "common/hash.h"
#include "sql/evaluator.h"
#include "sql/optimizer.h"

namespace flock::sql {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;
using storage::RecordBatch;
using storage::Schema;

namespace {

std::string JoinExprs(const std::vector<ExprPtr>& exprs, bool shape) {
  std::string out;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs[i]->ToString(shape);
  }
  return out;
}

/// Gathers a join's output: probe row lsel[i] beside build row rsel[i],
/// where an rsel of ColumnVector::kNullRow pads the build columns with NULL
/// (an unmatched LEFT JOIN row). Each column is gathered once.
RecordBatch GatherJoinOutput(const Schema& schema, const RecordBatch& probe,
                             const std::vector<uint32_t>& lsel,
                             const RecordBatch& build,
                             const std::vector<uint32_t>& rsel,
                             JoinType join_type) {
  RecordBatch out(schema);
  const size_t probe_width = probe.num_columns();
  for (size_t c = 0; c < probe_width; ++c) {
    out.mutable_column(c)->AppendSelected(*probe.column(c), lsel);
  }
  for (size_t c = 0; c < build.num_columns(); ++c) {
    ColumnVector* dst = out.mutable_column(probe_width + c);
    if (join_type == JoinType::kLeft) {
      dst->AppendSelectedOrNull(*build.column(c), rsel);
    } else {
      dst->AppendSelected(*build.column(c), rsel);
    }
  }
  return out;
}

/// Filters a join's output with `program`; for a LEFT join the residual
/// only filters matched rows, so null-padded rows always survive.
StatusOr<RecordBatch> FilterJoinOutput(const PredicateProgram& program,
                                       JoinType join_type,
                                       const std::vector<uint32_t>& rsel,
                                       const ExecContext& ctx,
                                       RecordBatch out) {
  FLOCK_ASSIGN_OR_RETURN(
      std::vector<uint32_t> sel,
      EvaluatePredicate(program, out, ctx.registry, ctx.params));
  if (join_type == JoinType::kLeft) {
    std::vector<uint32_t> keep;
    keep.reserve(out.num_rows());
    size_t next = 0;
    for (size_t i = 0; i < out.num_rows(); ++i) {
      const bool passed = next < sel.size() && sel[next] == i;
      if (passed) ++next;
      if (passed || rsel[i] == ColumnVector::kNullRow) {
        keep.push_back(static_cast<uint32_t>(i));
      }
    }
    sel = std::move(keep);
  }
  if (sel.size() == out.num_rows()) return out;
  return std::move(out).SelectView(std::move(sel));
}

/// `program` bound to the parameters of the execution `ctx` describes, or
/// nullopt when the program runs as compiled.
std::optional<PredicateProgram> BindProgram(const PredicateProgram& program,
                                            const ExecContext& ctx) {
  if (ctx.params == nullptr) return std::nullopt;
  return program.Bind(*ctx.params);
}

/// The state of an operator that filters with one predicate program: the
/// program bound to the execution's parameters, when they reach it.
struct BoundProgram : OperatorState {
  static std::unique_ptr<OperatorState> Make(const PredicateProgram* program,
                                             const ExecContext& ctx) {
    std::optional<PredicateProgram> bound;
    if (program != nullptr) bound = BindProgram(*program, ctx);
    if (!bound.has_value()) return nullptr;
    return std::make_unique<BoundProgram>(std::move(*bound));
  }
  /// The program `op`, which compiled `own`, runs in the execution `ctx`.
  static const PredicateProgram& Of(const PredicateProgram& own,
                                    const PhysicalOperator& op,
                                    const ExecContext& ctx) {
    const BoundProgram* bound = ctx.state_of<BoundProgram>(op);
    return bound != nullptr ? bound->program : own;
  }

  explicit BoundProgram(PredicateProgram p) : program(std::move(p)) {}
  PredicateProgram program;
};

}  // namespace

// ---------------------------------------------------------------------------
// PhysicalOperator
// ---------------------------------------------------------------------------

std::unique_ptr<OperatorState> PhysicalOperator::MakeState(
    const ExecContext&) const {
  return nullptr;
}

StatusOr<RecordBatch> PhysicalOperator::ProcessMorsel(const ExecContext&,
                                                      RecordBatch) const {
  return Status::Internal("operator '" + label(false) + "' is not streaming");
}

// ---------------------------------------------------------------------------
// PhysicalPlan
// ---------------------------------------------------------------------------

PhysicalPlan::PhysicalPlan(PhysicalOperatorPtr root) : root_(std::move(root)) {
  struct Walk {
    PhysicalPlan* plan;
    void operator()(PhysicalOperator* op, int depth) {
      op->id_ = plan->operators_.size();
      plan->operators_.push_back(op);
      plan->labels_.push_back(op->label(/*shape=*/true));
      plan->depths_.push_back(depth);
      for (const auto& child : op->children) (*this)(child.get(), depth + 1);
    }
  };
  Walk{this}(root_.get(), 0);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < labels_.size(); ++i) {
    h = HashCombine(h, HashString(labels_[i]));
    h = HashCombine(h, HashInt64(depths_[i]));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  digest_ = hex;
}

std::vector<OperatorMetricsSnapshot> PhysicalPlan::Snapshot(
    const OperatorMetrics* metrics) const {
  std::vector<OperatorMetricsSnapshot> out(operators_.size());
  for (size_t i = 0; i < operators_.size(); ++i) {
    const OperatorMetrics& m = metrics[i];
    OperatorMetricsSnapshot& snap = out[i];
    snap.name = labels_[i];
    snap.depth = depths_[i];
    snap.rows_in = m.rows_in.load(std::memory_order_relaxed);
    snap.rows_out = m.rows_out.load(std::memory_order_relaxed);
    snap.wall_ms =
        static_cast<double>(m.nanos.load(std::memory_order_relaxed)) / 1e6;
    snap.segments_scanned = m.segments_scanned.load(std::memory_order_relaxed);
    snap.segments_pruned = m.segments_pruned.load(std::memory_order_relaxed);
    snap.blocks_scanned = m.blocks_scanned.load(std::memory_order_relaxed);
    snap.blocks_pruned = m.blocks_pruned.load(std::memory_order_relaxed);
  }
  return out;
}

std::string PhysicalPlan::ToString(
    const std::vector<OperatorMetricsSnapshot>* metrics) const {
  std::ostringstream out;
  for (size_t i = 0; i < operators_.size(); ++i) {
    out << std::string(static_cast<size_t>(depths_[i]) * 2, ' ')
        << operators_[i]->label(/*shape=*/false) << " width="
        << operators_[i]->output_schema().num_columns();
    if (metrics != nullptr && i < metrics->size()) {
      const OperatorMetricsSnapshot& m = (*metrics)[i];
      out << " [in=" << m.rows_in << " out=" << m.rows_out << " time="
          << std::fixed << std::setprecision(3) << m.wall_ms << "ms";
      if (m.segments_scanned + m.segments_pruned > 0) {
        out << " segments=" << m.segments_scanned << " pruned="
            << m.segments_pruned << " blocks=" << m.blocks_scanned
            << " pruned=" << m.blocks_pruned;
      }
      out << operators_[i]->AnalyzeDetail() << "]";
    }
    out << "\n";
  }
  return out.str();
}

void PhysicalPlan::CollectMetrics(
    std::vector<OperatorMetricsSnapshot>* out) const {
  out->insert(out->end(), last_run_.begin(), last_run_.end());
}

// ---------------------------------------------------------------------------
// TableScanOp
// ---------------------------------------------------------------------------

std::string TableScanOp::label(bool) const {
  std::string out = "TableScan(" + table_name;
  if (!projection.empty()) {
    out += " cols=[";
    for (size_t i = 0; i < projection.size(); ++i) {
      if (i > 0) out += ",";
      out += table->schema().column(projection[i]).name;
    }
    out += "]";
  }
  out += ")";
  return out;
}

RecordBatch TableScanOp::ScanMorsel(size_t segment, size_t begin,
                                    size_t end) const {
  return table->ScanSegment(segment, begin, end, projection, output_schema());
}

void ScanPruneConjunct::SetLiteral(const storage::Value& value) {
  literal = value.AsDouble();
  strict_exact = value.type() != DataType::kInt64 ||
                 std::fabs(literal) < 9007199254740992.0;
}

std::vector<ScanPruneConjunct> BindPruneConjuncts(
    const std::vector<ScanPruneConjunct>& conjuncts,
    const std::vector<storage::Value>* params) {
  std::vector<ScanPruneConjunct> bound = conjuncts;
  if (params == nullptr) return bound;
  for (ScanPruneConjunct& c : bound) {
    const int slot = c.param_slot;
    if (slot >= 0 && static_cast<size_t>(slot) < params->size()) {
      c.SetLiteral((*params)[static_cast<size_t>(slot)]);
    }
  }
  return bound;
}

int ScanOutputToTableColumn(const storage::Table& table,
                            const std::vector<size_t>& projection,
                            int output_index) {
  if (output_index < 0) return -1;
  if (projection.empty()) {
    if (static_cast<size_t>(output_index) >= table.schema().num_columns()) {
      return -1;
    }
    return output_index;
  }
  if (static_cast<size_t>(output_index) >= projection.size()) return -1;
  return static_cast<int>(projection[static_cast<size_t>(output_index)]);
}

void AppendPruneConjuncts(const Expr& predicate,
                          const storage::Schema& scan_schema,
                          const storage::Table& table,
                          const std::vector<size_t>& projection,
                          std::vector<ScanPruneConjunct>* out) {
  for (const auto& conjunct : SplitConjuncts(predicate.Clone())) {
    const ConjunctShape shape = ClassifyConjunct(*conjunct, scan_schema);
    const int table_col =
        ScanOutputToTableColumn(table, projection, shape.column);
    if (table_col < 0) continue;
    ScanPruneConjunct prune;
    prune.table_column = static_cast<size_t>(table_col);
    switch (shape.kind) {
      case ConjunctShape::Kind::kIsNull:
        prune.kind = shape.negated ? ScanPruneConjunct::Kind::kIsNotNull
                                   : ScanPruneConjunct::Kind::kIsNull;
        out->push_back(prune);
        break;
      case ConjunctShape::Kind::kBetween:
        if (shape.negated || shape.strings) break;
        prune.op = BinaryOp::kGtEq;
        prune.SetLiteral(shape.literals[0]);
        prune.param_slot = shape.slots[0];
        out->push_back(prune);
        prune.op = BinaryOp::kLtEq;
        prune.SetLiteral(shape.literals[1]);
        prune.param_slot = shape.slots[1];
        out->push_back(prune);
        break;
      case ConjunctShape::Kind::kCompareLiteral:
        if (shape.strings || shape.op == BinaryOp::kNotEq) break;
        prune.op = shape.op;
        prune.SetLiteral(shape.literals[0]);
        prune.param_slot = shape.slots[0];
        out->push_back(prune);
        break;
      default:
        break;
    }
  }
}

ScanProof ProveScan(const LogicalPlan& top) {
  ScanProof proof;
  const LogicalPlan* node = &top;
  while (node->kind == PlanKind::kFilter) node = node->children[0].get();
  if (node->kind != PlanKind::kScan || node->table == nullptr) return proof;
  proof.scan = node;
  const storage::Table& table = *node->table;
  for (const LogicalPlan* f = &top; f != node; f = f->children[0].get()) {
    AppendPruneConjuncts(*f->predicate, node->output_schema, table,
                         node->projection, &proof.conjuncts);
  }
  proof.standing = StandingSegments(table, proof.conjuncts);
  return proof;
}

std::vector<size_t> StandingSegments(
    const storage::Table& table,
    const std::vector<ScanPruneConjunct>& conjuncts) {
  std::vector<size_t> standing;
  for (size_t s = 0; s < table.num_segments(); ++s) {
    if (table.segment_rows(s) > 0 &&
        !ZoneMapsDisprove(conjuncts, [&](size_t c) -> const auto& {
          return table.segment_zone_map(s, c);
        })) {
      standing.push_back(s);
    }
  }
  return standing;
}

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

FilterOp::FilterOp(PhysicalOperatorPtr child, ExprPtr predicate)
    : PhysicalOperator(Kind::kFilter, child->output_schema()),
      predicate(std::move(predicate)),
      program(*this->predicate, output_schema()) {
  children.push_back(std::move(child));
}

std::string FilterOp::label(bool shape) const {
  return "Filter(" + predicate->ToString(shape) + ")";
}

std::string FilterOp::AnalyzeDetail() const {
  return " kernels=" + std::to_string(program.num_kernels()) +
         " residual=" + std::to_string(program.num_residual());
}

std::unique_ptr<OperatorState> FilterOp::MakeState(
    const ExecContext& ctx) const {
  return BoundProgram::Make(&program, ctx);
}

StatusOr<RecordBatch> FilterOp::ProcessMorsel(const ExecContext& ctx,
                                              RecordBatch input) const {
  FLOCK_ASSIGN_OR_RETURN(
      std::vector<uint32_t> sel,
      EvaluatePredicate(BoundProgram::Of(program, *this, ctx), input,
                        ctx.registry, ctx.params));
  if (sel.size() == input.num_rows()) return input;
  // Zero-copy: record the survivors as a selection vector; the gather
  // happens at the first operator that needs dense columns.
  return std::move(input).SelectView(std::move(sel));
}

// ---------------------------------------------------------------------------
// ProjectOp
// ---------------------------------------------------------------------------

ProjectOp::ProjectOp(PhysicalOperatorPtr child, std::vector<ExprPtr> exprs,
                     Schema schema)
    : PhysicalOperator(Kind::kProject, std::move(schema)),
      exprs(std::move(exprs)) {
  const Schema& in = child->output_schema();
  is_passthrough_ = true;
  for (size_t i = 0; i < this->exprs.size(); ++i) {
    const Expr& e = *this->exprs[i];
    if (e.kind != ExprKind::kColumnRef || e.column_index < 0 ||
        static_cast<size_t>(e.column_index) >= in.num_columns() ||
        in.column(static_cast<size_t>(e.column_index)).type !=
            output_schema().column(i).type) {
      is_passthrough_ = false;
      break;
    }
    passthrough_.push_back(static_cast<size_t>(e.column_index));
  }
  children.push_back(std::move(child));
}

std::string ProjectOp::label(bool shape) const {
  return "Project(" + JoinExprs(exprs, shape) + ")";
}

StatusOr<RecordBatch> ProjectOp::ProcessMorsel(const ExecContext& ctx,
                                               RecordBatch input) const {
  if (is_passthrough_) {
    // Pure column shuffle: share column data, keep any selection vector.
    return input.Project(passthrough_);
  }
  if (input.num_rows() == 0) return RecordBatch(output_schema());
  std::vector<ColumnVectorPtr> columns;
  columns.reserve(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    FLOCK_ASSIGN_OR_RETURN(
        ColumnVectorPtr col,
        EvaluateExpr(*exprs[i], input, ctx.registry, ctx.params));
    FLOCK_ASSIGN_OR_RETURN(
        col, NormalizeType(std::move(col), output_schema().column(i).type));
    columns.push_back(std::move(col));
  }
  return RecordBatch(output_schema(), std::move(columns));
}

// ---------------------------------------------------------------------------
// PredictScoreOp
// ---------------------------------------------------------------------------

PredictScoreOp::PredictScoreOp(PhysicalOperatorPtr child,
                               std::vector<ExprPtr> calls, Schema schema)
    : PhysicalOperator(Kind::kPredictScore, std::move(schema)),
      calls(std::move(calls)) {
  children.push_back(std::move(child));
}

std::string PredictScoreOp::label(bool shape) const {
  return "PredictScore(" + JoinExprs(calls, shape) + ")";
}

namespace {

/// One execution's bindings of a PredictScoreOp's calls.
struct PredictBindings : OperatorState {
  explicit PredictBindings(size_t num_calls)
      : constants(num_calls), bound(num_calls) {}

  std::mutex mu;
  // Per call, set together under mu: its constant argument columns (one
  // row each) and the kernel they bound.
  std::vector<std::vector<ColumnVectorPtr>> constants;
  std::vector<std::optional<StatusOr<ScalarKernel>>> bound;
};

}  // namespace

std::unique_ptr<OperatorState> PredictScoreOp::MakeState(
    const ExecContext&) const {
  return std::make_unique<PredictBindings>(calls.size());
}

StatusOr<RecordBatch> PredictScoreOp::ProcessMorsel(const ExecContext& ctx,
                                                    RecordBatch input) const {
  PredictBindings& state = *ctx.state_of<PredictBindings>(*this);
  const size_t child_width = input.num_columns();
  const size_t num_rows = input.num_rows();
  std::vector<ColumnVectorPtr> columns;
  columns.reserve(child_width + calls.size());
  for (size_t c = 0; c < child_width; ++c) {
    columns.push_back(input.column(c));
  }
  for (size_t i = 0; i < calls.size(); ++i) {
    const DataType type = output_schema().column(child_width + i).type;
    ColumnVectorPtr col;
    if (num_rows == 0) {
      col = std::make_shared<ColumnVector>(type);  // nothing to bind
    } else {
      const ScalarKernel* kernel = nullptr;
      const std::vector<ColumnVectorPtr>* constants = nullptr;
      {
        // The first morsel with rows binds the call for every worker; a
        // refusal is kept, so later morsels fail without a second check.
        std::lock_guard<std::mutex> lock(state.mu);
        std::optional<StatusOr<ScalarKernel>>& bound = state.bound[i];
        if (!bound) {
          StatusOr<const ScalarFunction*> fn = EvaluateCallConstants(
              *calls[i], ctx.registry, &state.constants[i], ctx.params);
          bound = fn.ok() ? (*fn)->bind(state.constants[i], num_rows,
                                        ctx.principal)
                          : StatusOr<ScalarKernel>(fn.status());
        }
        FLOCK_RETURN_NOT_OK(bound->status());
        kernel = &**bound;
        constants = &state.constants[i];
      }
      std::vector<ColumnVectorPtr> args = *constants;
      for (size_t a = args.size(); a < calls[i]->children.size(); ++a) {
        FLOCK_ASSIGN_OR_RETURN(
            ColumnVectorPtr arg,
            EvaluateExpr(*calls[i]->children[a], input, ctx.registry,
                         ctx.params));
        args.push_back(std::move(arg));
      }
      FLOCK_ASSIGN_OR_RETURN(col, (*kernel)(args, num_rows));
      FLOCK_ASSIGN_OR_RETURN(col, NormalizeType(std::move(col), type));
    }
    columns.push_back(std::move(col));
  }
  return RecordBatch(output_schema(), std::move(columns));
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

HashJoinBuildOp::HashJoinBuildOp(PhysicalOperatorPtr child,
                                 std::vector<ExprPtr> keys)
    : PhysicalOperator(Kind::kHashJoinBuild, child->output_schema()),
      keys(std::move(keys)) {
  children.push_back(std::move(child));
}

std::string HashJoinBuildOp::label(bool shape) const {
  return "HashJoinBuild(keys=[" + JoinExprs(keys, shape) + "])";
}

std::unique_ptr<OperatorState> HashJoinBuildOp::MakeState(
    const ExecContext&) const {
  return std::make_unique<State>();
}

HashJoinProbeOp::HashJoinProbeOp(PhysicalOperatorPtr probe,
                                 PhysicalOperatorPtr build,
                                 std::vector<ExprPtr> keys,
                                 std::vector<ExprPtr> residual,
                                 JoinType join_type, Schema schema)
    : PhysicalOperator(Kind::kHashJoinProbe, std::move(schema)),
      keys(std::move(keys)),
      residual(std::move(residual)),
      join_type(join_type) {
  if (!this->residual.empty()) {
    std::vector<ExprPtr> clauses;
    clauses.reserve(this->residual.size());
    for (const auto& e : this->residual) clauses.push_back(e->Clone());
    residual_program_.emplace(*CombineConjuncts(std::move(clauses)),
                              output_schema());
  }
  children.push_back(std::move(probe));
  children.push_back(std::move(build));
}

std::string HashJoinProbeOp::label(bool shape) const {
  std::string out = join_type == JoinType::kLeft ? "HashJoinProbe(LEFT"
                                                 : "HashJoinProbe(INNER";
  out += ", keys=[" + JoinExprs(keys, shape) + "]";
  if (!residual.empty()) {
    out += ", residual=" + JoinExprs(residual, shape);
  }
  out += ")";
  return out;
}

std::unique_ptr<OperatorState> HashJoinProbeOp::MakeState(
    const ExecContext& ctx) const {
  return BoundProgram::Make(
      residual_program_ ? &*residual_program_ : nullptr, ctx);
}

StatusOr<RecordBatch> HashJoinProbeOp::ProcessMorsel(const ExecContext& ctx,
                                                     RecordBatch input) const {
  const JoinHashTable& ht =
      *ctx.state_of<HashJoinBuildOp::State>(build())->table;

  // Evaluate probe-side key expressions over the (dense) morsel.
  KeyColumns probe_keys;
  probe_keys.reserve(keys.size());
  for (const auto& e : keys) {
    FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                           EvaluateExpr(*e, input, ctx.registry, ctx.params));
    probe_keys.push_back(std::move(col));
  }

  // All workers probe the shared read-only index concurrently. Each probe
  // row's matches come in build-row order.
  std::vector<uint64_t> hashes;
  HashKeys(probe_keys, input.num_rows(), &hashes);
  std::vector<uint32_t> lsel;
  std::vector<uint32_t> rsel;  // kNullRow = null-padded (left join)
  for (size_t l = 0; l < input.num_rows(); ++l) {
    bool any_null = false;
    for (const auto& col : probe_keys) any_null |= col->IsNull(l);
    bool matched = false;
    if (!any_null) {
      for (uint32_t r = ht.index.Match(probe_keys, l, hashes[l]);
           r != KeyIndex::kNone;
           r = ht.index.Match(probe_keys, l, hashes[l], r)) {
        lsel.push_back(static_cast<uint32_t>(l));
        rsel.push_back(r);
        matched = true;
      }
    }
    if (!matched && join_type == JoinType::kLeft) {
      lsel.push_back(static_cast<uint32_t>(l));
      rsel.push_back(ColumnVector::kNullRow);
    }
  }

  RecordBatch out = GatherJoinOutput(output_schema(), input, lsel, ht.rows,
                                     rsel, join_type);
  if (!residual_program_) return out;
  return FilterJoinOutput(BoundProgram::Of(*residual_program_, *this, ctx),
                          join_type, rsel, ctx, std::move(out));
}

NestedLoopJoinOp::NestedLoopJoinOp(PhysicalOperatorPtr left,
                                   PhysicalOperatorPtr right,
                                   ExprPtr condition, JoinType join_type,
                                   Schema schema)
    : PhysicalOperator(Kind::kNestedLoopJoin, std::move(schema)),
      condition(std::move(condition)),
      join_type(join_type) {
  if (this->condition) {
    condition_program_.emplace(*this->condition, output_schema());
  }
  children.push_back(std::move(left));
  children.push_back(std::move(right));
}

std::string NestedLoopJoinOp::label(bool shape) const {
  std::string out = "NestedLoopJoin(";
  switch (join_type) {
    case JoinType::kInner:
      out += "INNER";
      break;
    case JoinType::kLeft:
      out += "LEFT";
      break;
    case JoinType::kCross:
      out += "CROSS";
      break;
  }
  if (condition) out += ", " + condition->ToString(shape);
  out += ")";
  return out;
}

std::unique_ptr<OperatorState> NestedLoopJoinOp::MakeState(
    const ExecContext& ctx) const {
  auto state = std::make_unique<State>();
  if (condition_program_) {
    state->condition = BindProgram(*condition_program_, ctx);
  }
  return state;
}

StatusOr<RecordBatch> NestedLoopJoinOp::ProcessMorsel(
    const ExecContext& ctx, RecordBatch input) const {
  const State& state = *ctx.state_of<State>(*this);
  const RecordBatch& right = *state.right_rows;
  const size_t nr = right.num_rows();

  std::vector<uint32_t> lsel;
  std::vector<uint32_t> rsel;  // kNullRow = null-padded (left join)
  for (size_t l = 0; l < input.num_rows(); ++l) {
    // One left row fans out to the whole right side, so a cross-join
    // morsel is unbounded in the morsel size; poll per left row to keep
    // kill latency bounded by one inner sweep.
    FLOCK_RETURN_NOT_OK(ctx.cancel.Check("nested_loop_join"));
    if (nr == 0) {
      if (join_type == JoinType::kLeft) {
        lsel.push_back(static_cast<uint32_t>(l));
        rsel.push_back(ColumnVector::kNullRow);
      }
      continue;
    }
    for (size_t r = 0; r < nr; ++r) {
      lsel.push_back(static_cast<uint32_t>(l));
      rsel.push_back(static_cast<uint32_t>(r));
    }
  }

  RecordBatch out =
      GatherJoinOutput(output_schema(), input, lsel, right, rsel, join_type);
  if (!condition_program_) return out;
  return FilterJoinOutput(state.condition ? *state.condition
                                          : *condition_program_,
                          join_type, rsel, ctx, std::move(out));
}

// ---------------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------------

HashAggregateOp::HashAggregateOp(PhysicalOperatorPtr child,
                                 std::vector<ExprPtr> group_by,
                                 std::vector<ExprPtr> aggregates,
                                 Schema schema)
    : PhysicalOperator(Kind::kHashAggregate, std::move(schema)),
      group_by(std::move(group_by)),
      aggregates(std::move(aggregates)) {
  children.push_back(std::move(child));
}

std::string HashAggregateOp::label(bool shape) const {
  return "HashAggregate(groups=[" + JoinExprs(group_by, shape) + "], aggs=[" +
         JoinExprs(aggregates, shape) + "])";
}

SortOp::SortOp(PhysicalOperatorPtr child, std::vector<SortKey> keys)
    : PhysicalOperator(Kind::kSort, child->output_schema()),
      keys(std::move(keys)) {
  children.push_back(std::move(child));
}

std::string SortOp::label(bool shape) const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys[i].expr->ToString(shape);
    out += keys[i].ascending ? " ASC" : " DESC";
  }
  out += ")";
  return out;
}

DistinctOp::DistinctOp(PhysicalOperatorPtr child)
    : PhysicalOperator(Kind::kDistinct, child->output_schema()) {
  children.push_back(std::move(child));
}

std::string DistinctOp::label(bool) const { return "Distinct"; }

LimitOp::LimitOp(PhysicalOperatorPtr child, int64_t limit, int64_t offset)
    : PhysicalOperator(Kind::kLimit, child->output_schema()),
      limit(limit),
      offset(offset) {
  children.push_back(std::move(child));
}

std::string LimitOp::label(bool shape) const {
  // LIMIT and OFFSET are always statement literals, so a shape has none.
  if (shape) return "Limit";
  std::string out = "Limit(" + std::to_string(limit);
  if (offset > 0) out += " OFFSET " + std::to_string(offset);
  out += ")";
  return out;
}

}  // namespace flock::sql
