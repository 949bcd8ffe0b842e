#ifndef FLOCK_SQL_EVALUATOR_H_
#define FLOCK_SQL_EVALUATOR_H_

#include <type_traits>
#include <vector>

#include "common/status_or.h"
#include "sql/ast.h"
#include "sql/function_registry.h"
#include "storage/record_batch.h"

namespace flock::sql {

/// The value literal `e` takes in an execution with the statement
/// parameters `params` (LexedStatement::params): the parameter its slot
/// names, or the value it was planned with when it has no slot or there
/// are no parameters. Every reader of a literal in a lowered plan goes
/// through this, so one plan serves every value of its free slots.
inline const storage::Value& LiteralValue(
    const Expr& e, const std::vector<storage::Value>* params) {
  if (params != nullptr && e.param_slot >= 0 &&
      static_cast<size_t>(e.param_slot) < params->size()) {
    return (*params)[static_cast<size_t>(e.param_slot)];
  }
  return e.literal;
}

/// Evaluates a bound expression (all column refs resolved to indexes in
/// `input`'s schema) over a batch, producing one column of
/// `input.num_rows()` entries. Vectorized: kernels loop over dense arrays.
/// Literals read `params` (LiteralValue).
StatusOr<storage::ColumnVectorPtr> EvaluateExpr(
    const Expr& expr, const storage::RecordBatch& input,
    const FunctionRegistry* registry,
    const std::vector<storage::Value>* params = nullptr);

/// Looks up function call `call`, checks its arity and evaluates its
/// leading ScalarFunction::constant_args arguments into `args` as one-row
/// columns (InvalidArgument when one is not a constant); the caller
/// evaluates the rest.
StatusOr<const ScalarFunction*> EvaluateCallConstants(
    const Expr& call, const FunctionRegistry* registry,
    std::vector<storage::ColumnVectorPtr>* args,
    const std::vector<storage::Value>* params = nullptr);

/// The one SQL comparison routine, shared by EvaluateExpr and the
/// compiled predicate kernels: `a OP b` for OP in = <> < <= > >=. Two
/// BIGINTs compare as integers, exactly; other numbers compare as IEEE
/// doubles, so every comparison against NaN is false except <>, which is
/// true; strings compare bytewise.
template <BinaryOp Op, typename T>
inline bool Compare(const T& a, const T& b) {
  static_assert(Op == BinaryOp::kEq || Op == BinaryOp::kNotEq ||
                Op == BinaryOp::kLt || Op == BinaryOp::kLtEq ||
                Op == BinaryOp::kGt || Op == BinaryOp::kGtEq);
  if constexpr (Op == BinaryOp::kEq) return a == b;
  if constexpr (Op == BinaryOp::kNotEq) return !(a == b);
  if constexpr (Op == BinaryOp::kLt) return a < b;
  if constexpr (Op == BinaryOp::kLtEq) return a <= b;
  if constexpr (Op == BinaryOp::kGt) return a > b;
  if constexpr (Op == BinaryOp::kGtEq) return a >= b;
}

/// Calls `fn(std::integral_constant<BinaryOp, Op>{})` for comparison `op`,
/// so a row loop can be instantiated per operator; false when `op` is not
/// a comparison.
template <typename Fn>
bool DispatchComparison(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kEq:
      fn(std::integral_constant<BinaryOp, BinaryOp::kEq>{});
      return true;
    case BinaryOp::kNotEq:
      fn(std::integral_constant<BinaryOp, BinaryOp::kNotEq>{});
      return true;
    case BinaryOp::kLt:
      fn(std::integral_constant<BinaryOp, BinaryOp::kLt>{});
      return true;
    case BinaryOp::kLtEq:
      fn(std::integral_constant<BinaryOp, BinaryOp::kLtEq>{});
      return true;
    case BinaryOp::kGt:
      fn(std::integral_constant<BinaryOp, BinaryOp::kGt>{});
      return true;
    case BinaryOp::kGtEq:
      fn(std::integral_constant<BinaryOp, BinaryOp::kGtEq>{});
      return true;
    default:
      return false;
  }
}

/// True for = <> < <= > >=.
bool IsComparison(BinaryOp op);

/// The operator that gives the same result with its operands swapped
/// (`a < b` == `b > a`); = and <> map to themselves.
BinaryOp FlipComparison(BinaryOp op);

/// Casts an evaluated column to `want` when its type differs (e.g. an int
/// literal feeding a double column); returns `col` itself otherwise.
StatusOr<storage::ColumnVectorPtr> NormalizeType(storage::ColumnVectorPtr col,
                                                 storage::DataType want);

/// Computes the static result type of `expr` against `schema`.
StatusOr<storage::DataType> InferExprType(const Expr& expr,
                                          const storage::Schema& schema,
                                          const FunctionRegistry* registry);

/// Evaluates an expression with no column references to a single Value
/// (constant folding, literal INSERT rows, policy thresholds).
StatusOr<storage::Value> EvaluateConstant(
    const Expr& expr, const FunctionRegistry* registry,
    const std::vector<storage::Value>* params = nullptr);

/// True when the tree has no column references, stars, or aggregates.
bool IsConstantExpr(const Expr& expr);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace flock::sql

#endif  // FLOCK_SQL_EVALUATOR_H_
