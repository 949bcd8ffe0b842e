#include "sql/physical_planner.h"

#include <utility>

#include "sql/evaluator.h"
#include "sql/optimizer.h"

namespace flock::sql {

using storage::ColumnDef;
using storage::DataType;
using storage::Schema;

namespace {

/// Extracted equi-join keys: pairs of (left column expr, right column expr),
/// with right-side indexes rebased to the right child's schema.
struct JoinKeys {
  std::vector<ExprPtr> left;
  std::vector<ExprPtr> right;
  std::vector<ExprPtr> residual;  // bound against joined row (left++right)
};

/// True when `a = b` over `joined` (left ++ right) compares as the key
/// index does. A string against a number compares renderings instead, so
/// that conjunct stays a residual.
bool HashableEquality(const Expr& a, const Expr& b, const Schema& joined,
                      const FunctionRegistry* registry) {
  StatusOr<DataType> ta = InferExprType(a, joined, registry);
  StatusOr<DataType> tb = InferExprType(b, joined, registry);
  return ta.ok() && tb.ok() &&
         (*ta == DataType::kString) == (*tb == DataType::kString);
}

JoinKeys ExtractJoinKeys(const Expr* condition, size_t left_width,
                         const Schema& joined,
                         const FunctionRegistry* registry) {
  JoinKeys keys;
  if (condition == nullptr) return keys;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(condition->Clone());
  for (auto& conjunct : conjuncts) {
    if (conjunct->kind == ExprKind::kBinary &&
        conjunct->bin_op == BinaryOp::kEq &&
        HashableEquality(*conjunct->children[0], *conjunct->children[1],
                         joined, registry)) {
      Expr* a = conjunct->children[0].get();
      Expr* b = conjunct->children[1].get();
      auto side = [&](const Expr& e) -> int {
        // 0 = left-only, 1 = right-only, -1 = mixed/none.
        bool has_left = false, has_right = false;
        VisitExpr(e, [&](const Expr& node) {
          if (node.kind == ExprKind::kColumnRef) {
            if (node.column_index < static_cast<int>(left_width)) {
              has_left = true;
            } else {
              has_right = true;
            }
          }
        });
        if (has_left && !has_right) return 0;
        if (has_right && !has_left) return 1;
        return -1;
      };
      auto rebase_right = [&](Expr* e) {
        VisitExprMutable(e, [&](Expr* node) {
          if (node->kind == ExprKind::kColumnRef) {
            node->column_index -= static_cast<int>(left_width);
          }
        });
      };
      int sa = side(*a);
      int sb = side(*b);
      if (sa == 0 && sb == 1) {
        keys.left.push_back(std::move(conjunct->children[0]));
        keys.right.push_back(std::move(conjunct->children[1]));
        rebase_right(keys.right.back().get());
        continue;
      }
      if (sa == 1 && sb == 0) {
        keys.left.push_back(std::move(conjunct->children[1]));
        keys.right.push_back(std::move(conjunct->children[0]));
        rebase_right(keys.right.back().get());
        continue;
      }
    }
    keys.residual.push_back(std::move(conjunct));
  }
  return keys;
}

/// Replaces every subtree of `*e` structurally equal to one of `calls` with
/// a column reference to the corresponding appended score column.
void ReplaceScoringCalls(ExprPtr* e, const std::vector<ExprPtr>& calls,
                         size_t base, const std::vector<DataType>& types) {
  for (size_t i = 0; i < calls.size(); ++i) {
    if ((*e)->Equals(*calls[i])) {
      auto ref = std::make_unique<Expr>();
      ref->kind = ExprKind::kColumnRef;
      ref->column_name = calls[i]->ToString();
      ref->column_index = static_cast<int>(base + i);
      ref->resolved_type = types[i];
      *e = std::move(ref);
      return;
    }
  }
  for (auto& c : (*e)->children) {
    if (c) ReplaceScoringCalls(&c, calls, base, types);
  }
}

}  // namespace

void PhysicalPlanner::CollectScoringCalls(const Expr& e,
                                          std::vector<ExprPtr>* calls) const {
  if (e.kind == ExprKind::kFunction &&
      registry_->IsScoringFunction(e.function_name)) {
    for (const auto& existing : *calls) {
      if (existing->Equals(e)) return;
    }
    calls->push_back(e.Clone());
    return;  // maximal subtree: don't hoist nested calls separately
  }
  for (const auto& c : e.children) {
    if (c) CollectScoringCalls(*c, calls);
  }
}

StatusOr<bool> PhysicalPlanner::HoistScoring(
    PhysicalOperatorPtr* child, const std::vector<ExprPtr*>& exprs) const {
  std::vector<ExprPtr> calls;
  for (const ExprPtr* e : exprs) CollectScoringCalls(**e, &calls);
  if (calls.empty()) return false;
  Schema schema = (*child)->output_schema();
  const size_t base = schema.num_columns();
  std::vector<DataType> types;
  types.reserve(calls.size());
  for (const auto& call : calls) {
    FLOCK_ASSIGN_OR_RETURN(const ScalarFunction* fn,
                           registry_->Lookup(call->function_name));
    types.push_back(fn->return_type);
    schema.AddColumn(ColumnDef{call->ToString(), fn->return_type, true});
  }
  for (ExprPtr* e : exprs) ReplaceScoringCalls(e, calls, base, types);
  *child = std::make_unique<PredictScoreOp>(
      std::move(*child), std::move(calls), std::move(schema));
  return true;
}

StatusOr<PhysicalPlanPtr> PhysicalPlanner::Lower(
    const LogicalPlan& plan) const {
  FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr root, LowerNode(plan));
  return std::make_unique<PhysicalPlan>(std::move(root));
}

StatusOr<PhysicalOperatorPtr> PhysicalPlanner::LowerNode(
    const LogicalPlan& plan) const {
  switch (plan.kind) {
    case PlanKind::kScan:
      return PhysicalOperatorPtr(std::make_unique<TableScanOp>(
          plan.table_name, plan.table, plan.projection, plan.output_schema));
    case PlanKind::kFilter:
      return LowerFilter(plan);
    case PlanKind::kProject:
      return LowerProject(plan);
    case PlanKind::kJoin:
      return LowerJoin(plan);
    case PlanKind::kAggregate:
      return LowerAggregate(plan);
    case PlanKind::kSort: {
      FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr child,
                             LowerNode(*plan.children[0]));
      std::vector<SortKey> keys;
      keys.reserve(plan.sort_keys.size());
      for (const auto& k : plan.sort_keys) {
        keys.push_back(SortKey{k.expr->Clone(), k.ascending});
      }
      return PhysicalOperatorPtr(
          std::make_unique<SortOp>(std::move(child), std::move(keys)));
    }
    case PlanKind::kDistinct: {
      FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr child,
                             LowerNode(*plan.children[0]));
      return PhysicalOperatorPtr(
          std::make_unique<DistinctOp>(std::move(child)));
    }
    case PlanKind::kLimit: {
      FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr child,
                             LowerNode(*plan.children[0]));
      return PhysicalOperatorPtr(std::make_unique<LimitOp>(
          std::move(child), plan.limit, plan.offset));
    }
  }
  return Status::Internal("unknown logical plan kind");
}

StatusOr<PhysicalOperatorPtr> PhysicalPlanner::LowerFilter(
    const LogicalPlan& plan) const {
  FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr child,
                         LowerNode(*plan.children[0]));
  ExprPtr predicate = plan.predicate->Clone();

  // Filter directly over a scan: hand the scan the conjuncts it can test
  // against zone maps. Done before any scoring rewrite so the original
  // column references are still bound against the scan's output.
  if (child->kind() == PhysicalOperator::Kind::kTableScan) {
    auto* scan = static_cast<TableScanOp*>(child.get());
    AppendPruneConjuncts(*plan.predicate, scan->output_schema(),
                         *scan->table, scan->projection,
                         &scan->prune_conjuncts);
  }

  // Hoist scoring below the filter, rewrite the predicate to reference the
  // score columns, and narrow back to the original width on top so the
  // appended columns stay operator-internal.
  const size_t base = child->output_schema().num_columns();
  FLOCK_ASSIGN_OR_RETURN(bool hoisted, HoistScoring(&child, {&predicate}));
  auto filter =
      std::make_unique<FilterOp>(std::move(child), std::move(predicate));
  if (!hoisted) return PhysicalOperatorPtr(std::move(filter));

  std::vector<ExprPtr> narrow;
  narrow.reserve(base);
  for (size_t i = 0; i < base; ++i) {
    auto ref = std::make_unique<Expr>();
    ref->kind = ExprKind::kColumnRef;
    ref->column_name = plan.output_schema.column(i).name;
    ref->column_index = static_cast<int>(i);
    ref->resolved_type = plan.output_schema.column(i).type;
    narrow.push_back(std::move(ref));
  }
  return PhysicalOperatorPtr(std::make_unique<ProjectOp>(
      std::move(filter), std::move(narrow), plan.output_schema));
}

StatusOr<PhysicalOperatorPtr> PhysicalPlanner::LowerProject(
    const LogicalPlan& plan) const {
  FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr child,
                         LowerNode(*plan.children[0]));

  std::vector<ExprPtr> exprs;
  std::vector<ExprPtr*> targets;
  exprs.reserve(plan.exprs.size());
  for (const auto& e : plan.exprs) exprs.push_back(e->Clone());
  for (auto& e : exprs) targets.push_back(&e);
  FLOCK_RETURN_NOT_OK(HoistScoring(&child, targets).status());
  return PhysicalOperatorPtr(std::make_unique<ProjectOp>(
      std::move(child), std::move(exprs), plan.output_schema));
}

StatusOr<PhysicalOperatorPtr> PhysicalPlanner::LowerJoin(
    const LogicalPlan& plan) const {
  FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr left,
                         LowerNode(*plan.children[0]));
  FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr right,
                         LowerNode(*plan.children[1]));
  const size_t left_width = left->output_schema().num_columns();

  JoinKeys keys = ExtractJoinKeys(plan.join_condition.get(), left_width,
                                  plan.output_schema, registry_);
  if (!keys.left.empty()) {
    auto build = std::make_unique<HashJoinBuildOp>(std::move(right),
                                                   std::move(keys.right));
    return PhysicalOperatorPtr(std::make_unique<HashJoinProbeOp>(
        std::move(left), std::move(build), std::move(keys.left),
        std::move(keys.residual), plan.join_type, plan.output_schema));
  }
  ExprPtr condition =
      plan.join_condition ? plan.join_condition->Clone() : nullptr;
  return PhysicalOperatorPtr(std::make_unique<NestedLoopJoinOp>(
      std::move(left), std::move(right), std::move(condition), plan.join_type,
      plan.output_schema));
}

StatusOr<PhysicalOperatorPtr> PhysicalPlanner::LowerAggregate(
    const LogicalPlan& plan) const {
  FLOCK_ASSIGN_OR_RETURN(PhysicalOperatorPtr child,
                         LowerNode(*plan.children[0]));

  std::vector<ExprPtr> group_by;
  std::vector<ExprPtr> aggregates;
  std::vector<ExprPtr*> targets;
  group_by.reserve(plan.group_by.size());
  aggregates.reserve(plan.aggregates.size());
  for (const auto& g : plan.group_by) group_by.push_back(g->Clone());
  for (const auto& a : plan.aggregates) aggregates.push_back(a->Clone());
  for (auto& g : group_by) targets.push_back(&g);
  for (auto& a : aggregates) targets.push_back(&a);
  FLOCK_RETURN_NOT_OK(HoistScoring(&child, targets).status());
  return PhysicalOperatorPtr(std::make_unique<HashAggregateOp>(
      std::move(child), std::move(group_by), std::move(aggregates),
      plan.output_schema));
}

}  // namespace flock::sql
