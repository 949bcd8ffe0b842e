#ifndef FLOCK_SQL_PHYSICAL_PLANNER_H_
#define FLOCK_SQL_PHYSICAL_PLANNER_H_

#include "common/status_or.h"
#include "sql/function_registry.h"
#include "sql/logical_plan.h"
#include "sql/physical_plan.h"

namespace flock::sql {

/// Lowers an optimized LogicalPlan into an executable PhysicalOperator
/// tree. Lowering decisions made here (not at runtime):
///  * join algorithm — equi-conjuncts become HashJoinBuild + HashJoinProbe
///    (probe side streams, so the join parallelizes); everything else
///    becomes a NestedLoopJoin;
///  * PREDICT hoisting — calls to scoring functions (ScalarFunction::
///    scoring) inside Filter/Project/Aggregate expressions are pulled into
///    a dedicated PredictScore operator below the consumer, so inference
///    appears in EXPLAIN with its own metrics. Thresholded calls produced
///    by the cross-optimizer's push-up (PREDICT_GT & co) hoist the same
///    way, preserving that optimization.
class PhysicalPlanner {
 public:
  explicit PhysicalPlanner(const FunctionRegistry* registry)
      : registry_(registry) {}

  /// Lowers `plan` into an immutable PhysicalPlan. Lowering reads literal
  /// values only through Expr::Equals (deduplicating scoring calls), which
  /// pins them, so a plan lowered under the statement's PinScope serves
  /// every value of its free slots.
  StatusOr<PhysicalPlanPtr> Lower(const LogicalPlan& plan) const;

 private:
  StatusOr<PhysicalOperatorPtr> LowerNode(const LogicalPlan& plan) const;
  StatusOr<PhysicalOperatorPtr> LowerFilter(const LogicalPlan& plan) const;
  StatusOr<PhysicalOperatorPtr> LowerProject(const LogicalPlan& plan) const;
  StatusOr<PhysicalOperatorPtr> LowerJoin(const LogicalPlan& plan) const;
  StatusOr<PhysicalOperatorPtr> LowerAggregate(const LogicalPlan& plan) const;

  /// Collects the maximal scoring-call subtrees of `e` into `calls`
  /// (deduplicated structurally).
  void CollectScoringCalls(const Expr& e, std::vector<ExprPtr>* calls) const;

  /// Hoists the scoring calls in `exprs` into a PredictScoreOp over
  /// `*child` and points the expressions at its score columns; false when
  /// they hold no scoring call.
  StatusOr<bool> HoistScoring(PhysicalOperatorPtr* child,
                              const std::vector<ExprPtr*>& exprs) const;

  const FunctionRegistry* registry_;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_PHYSICAL_PLANNER_H_
