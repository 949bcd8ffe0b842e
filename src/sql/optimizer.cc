#include "sql/optimizer.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "obs/trace.h"
#include "sql/evaluator.h"

namespace flock::sql {

using storage::DataType;
using storage::Schema;
using storage::Value;

std::vector<ExprPtr> SplitConjuncts(ExprPtr predicate) {
  std::vector<ExprPtr> out;
  if (predicate == nullptr) return out;
  if (predicate->kind == ExprKind::kBinary &&
      predicate->bin_op == BinaryOp::kAnd) {
    auto lhs = SplitConjuncts(std::move(predicate->children[0]));
    auto rhs = SplitConjuncts(std::move(predicate->children[1]));
    for (auto& e : lhs) out.push_back(std::move(e));
    for (auto& e : rhs) out.push_back(std::move(e));
    return out;
  }
  out.push_back(std::move(predicate));
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) {
    return Expr::MakeLiteral(Value::Bool(true));
  }
  ExprPtr result = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = Expr::MakeBinary(BinaryOp::kAnd, std::move(result),
                              std::move(conjuncts[i]));
  }
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

Status FoldExpr(ExprPtr* e, const FunctionRegistry* registry) {
  for (auto& c : (*e)->children) {
    if (c) FLOCK_RETURN_NOT_OK(FoldExpr(&c, registry));
  }
  if ((*e)->kind == ExprKind::kLiteral) return Status::OK();
  if (!IsConstantExpr(**e)) return Status::OK();
  // A scoring call over constants still checks access and audits for the
  // principal of each execution; folding it would cache one principal's
  // score in the plan.
  bool scores = false;
  VisitExpr(**e, [&](const Expr& node) {
    if (node.kind == ExprKind::kFunction && registry != nullptr &&
        registry->IsScoringFunction(node.function_name)) {
      scores = true;
    }
  });
  if (scores) return Status::OK();
  // The folded value (or the failure to fold) depends on every literal.
  PinLiterals(**e);
  auto folded = EvaluateConstant(**e, registry);
  if (!folded.ok()) return Status::OK();  // fold opportunistically
  *e = Expr::MakeLiteral(std::move(folded).value());
  return Status::OK();
}

Status FoldPlan(LogicalPlan* plan, const FunctionRegistry* registry) {
  for (auto& c : plan->children) {
    FLOCK_RETURN_NOT_OK(FoldPlan(c.get(), registry));
  }
  if (plan->predicate) FLOCK_RETURN_NOT_OK(FoldExpr(&plan->predicate,
                                                    registry));
  for (auto& e : plan->exprs) FLOCK_RETURN_NOT_OK(FoldExpr(&e, registry));
  for (auto& e : plan->group_by) FLOCK_RETURN_NOT_OK(FoldExpr(&e, registry));
  if (plan->join_condition) {
    FLOCK_RETURN_NOT_OK(FoldExpr(&plan->join_condition, registry));
  }
  for (auto& k : plan->sort_keys) {
    FLOCK_RETURN_NOT_OK(FoldExpr(&k.expr, registry));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Max column index referenced, or -1 for none.
int MaxColumnIndex(const Expr& e) {
  int max_idx = -1;
  VisitExpr(e, [&](const Expr& node) {
    if (node.kind == ExprKind::kColumnRef) {
      max_idx = std::max(max_idx, node.column_index);
    }
  });
  return max_idx;
}

int MinColumnIndex(const Expr& e) {
  int min_idx = 1 << 30;
  VisitExpr(e, [&](const Expr& node) {
    if (node.kind == ExprKind::kColumnRef) {
      min_idx = std::min(min_idx, node.column_index);
    }
  });
  return min_idx == (1 << 30) ? -1 : min_idx;
}


/// Substitutes column refs in `e` with clones of `sources[index]`.
void SubstituteColumns(Expr* e, const std::vector<ExprPtr>& sources) {
  if (e->kind == ExprKind::kColumnRef) {
    FLOCK_CHECK(e->column_index >= 0 &&
                static_cast<size_t>(e->column_index) < sources.size());
    *e = std::move(*sources[static_cast<size_t>(e->column_index)]->Clone());
    return;
  }
  for (auto& c : e->children) {
    if (c) SubstituteColumns(c.get(), sources);
  }
}

/// True if every column the conjunct touches maps to a cheap (column or
/// literal) projection source.
bool SubstitutionIsCheap(const Expr& conjunct,
                         const std::vector<ExprPtr>& sources) {
  bool cheap = true;
  VisitExpr(conjunct, [&](const Expr& node) {
    if (node.kind == ExprKind::kColumnRef && node.column_index >= 0) {
      const Expr& src = *sources[static_cast<size_t>(node.column_index)];
      if (src.kind != ExprKind::kColumnRef &&
          src.kind != ExprKind::kLiteral) {
        cheap = false;
      }
    }
  });
  return cheap;
}

void ShiftColumnIndexes(Expr* e, int delta) {
  VisitExprMutable(e, [delta](Expr* node) {
    if (node->kind == ExprKind::kColumnRef) node->column_index += delta;
  });
}

void PushDown(PlanPtr* plan);

/// Handles Filter-over-X rewrites; `*plan` is a Filter node.
void PushDownFilter(PlanPtr* plan) {
  LogicalPlan* filter = plan->get();
  LogicalPlan* child = filter->children[0].get();
  switch (child->kind) {
    case PlanKind::kFilter: {
      // Merge adjacent filters.
      filter->predicate = Expr::MakeBinary(BinaryOp::kAnd,
                                           std::move(filter->predicate),
                                           std::move(child->predicate));
      filter->children[0] = std::move(child->children[0]);
      PushDownFilter(plan);
      return;
    }
    case PlanKind::kProject: {
      std::vector<ExprPtr> conjuncts =
          SplitConjuncts(std::move(filter->predicate));
      std::vector<ExprPtr> pushed;
      std::vector<ExprPtr> kept;
      for (auto& conjunct : conjuncts) {
        if (SubstitutionIsCheap(*conjunct, child->exprs)) {
          SubstituteColumns(conjunct.get(), child->exprs);
          pushed.push_back(std::move(conjunct));
        } else {
          kept.push_back(std::move(conjunct));
        }
      }
      if (!pushed.empty()) {
        PlanPtr grandchild = std::move(child->children[0]);
        child->children[0] = LogicalPlan::MakeFilter(
            std::move(grandchild), CombineConjuncts(std::move(pushed)));
        PushDown(&child->children[0]);
      }
      if (kept.empty()) {
        // Filter dissolves entirely.
        *plan = std::move(filter->children[0]);
        PushDown(plan);
      } else {
        filter->predicate = CombineConjuncts(std::move(kept));
        PushDown(&filter->children[0]);
      }
      return;
    }
    case PlanKind::kJoin: {
      size_t left_width =
          child->children[0]->output_schema.num_columns();
      std::vector<ExprPtr> conjuncts =
          SplitConjuncts(std::move(filter->predicate));
      std::vector<ExprPtr> to_left, to_right, kept;
      for (auto& conjunct : conjuncts) {
        int lo = MinColumnIndex(*conjunct);
        int hi = MaxColumnIndex(*conjunct);
        bool left_only = hi >= 0 && hi < static_cast<int>(left_width);
        bool right_only = lo >= static_cast<int>(left_width);
        if (left_only) {
          to_left.push_back(std::move(conjunct));
        } else if (right_only && child->join_type != JoinType::kLeft) {
          ShiftColumnIndexes(conjunct.get(),
                             -static_cast<int>(left_width));
          to_right.push_back(std::move(conjunct));
        } else {
          kept.push_back(std::move(conjunct));
        }
      }
      if (!to_left.empty()) {
        child->children[0] = LogicalPlan::MakeFilter(
            std::move(child->children[0]),
            CombineConjuncts(std::move(to_left)));
      }
      if (!to_right.empty()) {
        child->children[1] = LogicalPlan::MakeFilter(
            std::move(child->children[1]),
            CombineConjuncts(std::move(to_right)));
      }
      PushDown(&child->children[0]);
      PushDown(&child->children[1]);
      if (kept.empty()) {
        *plan = std::move(filter->children[0]);
      } else {
        filter->predicate = CombineConjuncts(std::move(kept));
      }
      return;
    }
    default:
      PushDown(&filter->children[0]);
      return;
  }
}

void PushDown(PlanPtr* plan) {
  if ((*plan)->kind == PlanKind::kFilter) {
    PushDownFilter(plan);
    return;
  }
  for (auto& c : (*plan)->children) PushDown(&c);
}

// ---------------------------------------------------------------------------
// Projection pruning
// ---------------------------------------------------------------------------

void AddExprColumns(const Expr& e, std::set<size_t>* required) {
  VisitExpr(e, [&](const Expr& node) {
    if (node.kind == ExprKind::kColumnRef && node.column_index >= 0) {
      required->insert(static_cast<size_t>(node.column_index));
    }
  });
}

void RemapExpr(Expr* e, const std::vector<int>& remap) {
  VisitExprMutable(e, [&](Expr* node) {
    if (node->kind == ExprKind::kColumnRef && node->column_index >= 0) {
      int idx = remap[static_cast<size_t>(node->column_index)];
      FLOCK_CHECK(idx >= 0) << "pruned a column that is still referenced";
      node->column_index = idx;
    }
  });
}

/// Narrows `plan`'s output to `required` where possible. Returns the remap
/// from old output column indexes to new ones (-1 = dropped).
std::vector<int> Prune(LogicalPlan* plan, const std::set<size_t>& required) {
  size_t width = plan->output_schema.num_columns();
  std::vector<int> identity(width);
  for (size_t i = 0; i < width; ++i) identity[i] = static_cast<int>(i);

  switch (plan->kind) {
    case PlanKind::kScan: {
      // Compose with any existing projection.
      std::vector<size_t> base = plan->projection;
      if (base.empty()) {
        base.resize(width);
        for (size_t i = 0; i < width; ++i) base[i] = i;
      }
      std::vector<int> remap(width, -1);
      std::vector<size_t> new_projection;
      Schema new_schema;
      for (size_t i = 0; i < width; ++i) {
        if (required.count(i) > 0) {
          remap[i] = static_cast<int>(new_projection.size());
          new_projection.push_back(base[i]);
          new_schema.AddColumn(plan->output_schema.column(i));
        }
      }
      if (new_projection.empty() && width > 0) {
        // Keep one column so the scan still yields row counts.
        remap[0] = 0;
        new_projection.push_back(base[0]);
        new_schema.AddColumn(plan->output_schema.column(0));
      }
      plan->projection = std::move(new_projection);
      plan->output_schema = std::move(new_schema);
      return remap;
    }
    case PlanKind::kFilter: {
      std::set<size_t> child_required = required;
      AddExprColumns(*plan->predicate, &child_required);
      std::vector<int> remap = Prune(plan->children[0].get(),
                                     child_required);
      RemapExpr(plan->predicate.get(), remap);
      plan->output_schema = plan->children[0]->output_schema;
      return remap;
    }
    case PlanKind::kProject: {
      // Keep only the required output expressions.
      std::vector<int> remap(width, -1);
      std::vector<ExprPtr> kept_exprs;
      std::vector<std::string> kept_names;
      Schema kept_schema;
      for (size_t i = 0; i < plan->exprs.size(); ++i) {
        if (required.count(i) > 0 || required.empty()) {
          remap[i] = static_cast<int>(kept_exprs.size());
          kept_exprs.push_back(std::move(plan->exprs[i]));
          kept_names.push_back(plan->names[i]);
          kept_schema.AddColumn(plan->output_schema.column(i));
        }
      }
      if (kept_exprs.empty() && !plan->exprs.empty()) {
        remap[0] = 0;
        kept_exprs.push_back(std::move(plan->exprs[0]));
        kept_names.push_back(plan->names[0]);
        kept_schema.AddColumn(plan->output_schema.column(0));
      }
      plan->exprs = std::move(kept_exprs);
      plan->names = std::move(kept_names);
      plan->output_schema = std::move(kept_schema);

      std::set<size_t> child_required;
      for (const auto& e : plan->exprs) AddExprColumns(*e, &child_required);
      std::vector<int> child_remap =
          Prune(plan->children[0].get(), child_required);
      for (auto& e : plan->exprs) RemapExpr(e.get(), child_remap);
      return remap;
    }
    case PlanKind::kJoin: {
      size_t left_width = plan->children[0]->output_schema.num_columns();
      size_t right_width = plan->children[1]->output_schema.num_columns();
      std::set<size_t> all = required;
      if (plan->join_condition) {
        AddExprColumns(*plan->join_condition, &all);
      }
      std::set<size_t> left_req, right_req;
      for (size_t idx : all) {
        if (idx < left_width) {
          left_req.insert(idx);
        } else {
          right_req.insert(idx - left_width);
        }
      }
      std::vector<int> left_remap = Prune(plan->children[0].get(), left_req);
      std::vector<int> right_remap =
          Prune(plan->children[1].get(), right_req);
      size_t new_left_width =
          plan->children[0]->output_schema.num_columns();
      std::vector<int> remap(width, -1);
      for (size_t i = 0; i < left_width; ++i) remap[i] = left_remap[i];
      for (size_t i = 0; i < right_width; ++i) {
        if (right_remap[i] >= 0) {
          remap[left_width + i] =
              right_remap[i] + static_cast<int>(new_left_width);
        }
      }
      if (plan->join_condition) {
        RemapExpr(plan->join_condition.get(), remap);
      }
      Schema new_schema = plan->children[0]->output_schema;
      for (const auto& col : plan->children[1]->output_schema.columns()) {
        new_schema.AddColumn(col);
      }
      plan->output_schema = std::move(new_schema);
      return remap;
    }
    case PlanKind::kAggregate: {
      std::set<size_t> child_required;
      for (const auto& e : plan->group_by) {
        AddExprColumns(*e, &child_required);
      }
      for (const auto& e : plan->aggregates) {
        AddExprColumns(*e, &child_required);
      }
      std::vector<int> child_remap =
          Prune(plan->children[0].get(), child_required);
      for (auto& e : plan->group_by) RemapExpr(e.get(), child_remap);
      for (auto& e : plan->aggregates) RemapExpr(e.get(), child_remap);
      return identity;  // aggregate output shape unchanged
    }
    case PlanKind::kSort: {
      std::set<size_t> child_required = required;
      for (const auto& k : plan->sort_keys) {
        AddExprColumns(*k.expr, &child_required);
      }
      std::vector<int> remap = Prune(plan->children[0].get(),
                                     child_required);
      for (auto& k : plan->sort_keys) RemapExpr(k.expr.get(), remap);
      plan->output_schema = plan->children[0]->output_schema;
      return remap;
    }
    case PlanKind::kLimit:
    case PlanKind::kDistinct: {
      // Distinct semantics depend on the full row; require all columns.
      std::set<size_t> child_required;
      for (size_t i = 0; i < width; ++i) child_required.insert(i);
      std::vector<int> remap = Prune(plan->children[0].get(),
                                     child_required);
      plan->output_schema = plan->children[0]->output_schema;
      return remap;
    }
  }
  return identity;
}

}  // namespace

Status Optimize(PlanPtr* plan, const FunctionRegistry* registry,
                const OptimizerOptions& options) {
  if (options.constant_folding) {
    obs::ScopedSpan span("rule.constant_folding");
    FLOCK_RETURN_NOT_OK(FoldPlan(plan->get(), registry));
  }
  if (options.predicate_pushdown) {
    obs::ScopedSpan span("rule.predicate_pushdown");
    PushDown(plan);
  }
  if (options.projection_pruning) {
    obs::ScopedSpan span("rule.projection_pruning");
    std::set<size_t> all;
    for (size_t i = 0; i < (*plan)->output_schema.num_columns(); ++i) {
      all.insert(i);
    }
    Prune(plan->get(), all);
  }
  return Status::OK();
}

}  // namespace flock::sql
