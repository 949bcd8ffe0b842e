#ifndef FLOCK_SQL_PREDICATE_PROGRAM_H_
#define FLOCK_SQL_PREDICATE_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "sql/ast.h"
#include "sql/function_registry.h"
#include "storage/record_batch.h"
#include "storage/schema.h"

namespace flock::sql {

/// One top-level conjunct of a predicate, classified by the shape it reads
/// its input in. The compiled filter (PredicateProgram) and zone-map
/// pruning (the physical planner) both read conjuncts through this one
/// classifier, so they agree on which conjuncts are column-vs-literal.
///
/// Only shapes whose typed evaluation matches EvaluateExpr row for row are
/// recognised; everything else is kResidual.
struct ConjunctShape {
  enum class Kind {
    kResidual,        // evaluated through EvaluateExpr
    kColumn,          // bare numeric column: TRUE when non-null, non-zero
    kCompareLiteral,  // column OP literal; `op` flipped if written lit OP col
    kCompareColumns,  // column OP other_column, both numeric or both strings
    kBetween,         // column [NOT] BETWEEN literal AND literal
    kIn,              // column [NOT] IN (literal, ...)
    kIsNull,          // column IS [NOT] NULL
  };
  Kind kind = Kind::kResidual;
  int column = -1;
  int other_column = -1;        // kCompareColumns
  BinaryOp op = BinaryOp::kEq;  // kCompareLiteral, kCompareColumns
  bool negated = false;         // kBetween, kIn, kIsNull
  /// kCompare*/kBetween: compare as strings (bytewise) rather than as
  /// doubles; follows the column's type.
  bool strings = false;
  /// kCompareLiteral: {literal}; kBetween: {low, high}; kIn: the list.
  std::vector<storage::Value> literals;
  /// kCompareLiteral, kBetween, kIn: the Expr::param_slot of each literal.
  std::vector<int> slots;
};

/// Classifies `conjunct` against the schema its column references are
/// bound to.
ConjunctShape ClassifyConjunct(const Expr& conjunct,
                               const storage::Schema& schema);

/// A filter predicate compiled once, at lowering, into typed conjunct
/// kernels plus a residual.
///
/// Each recognised conjunct reads its base column through the batch's
/// selection (no gather), against literals hoisted at compile time (no
/// broadcast; Bind re-reads the ones with a parameter slot once per
/// execution), and narrows one selection vector in place; Kleene AND keeps
/// exactly the rows where every conjunct is TRUE. Unrecognised conjuncts
/// stay Exprs evaluated by EvaluateExpr: over the surviving rows when
/// they cannot fail on a row, and over every input row (the rows an
/// unfiltered evaluation sees) when they can (CAST, CASE, function calls),
/// so the returned Status is the same as evaluating the whole predicate.
///
/// Immutable after construction: one program is shared read-only by every
/// morsel worker, and by every execution of a cached plan.
class PredicateProgram {
 public:
  /// `predicate` must be bound against `input_schema`, the schema of the
  /// batches the program will filter.
  PredicateProgram(const Expr& predicate,
                   const storage::Schema& input_schema);
  ~PredicateProgram();

  PredicateProgram(const PredicateProgram&);
  PredicateProgram(PredicateProgram&&) noexcept;
  PredicateProgram& operator=(PredicateProgram&&) noexcept;

  size_t num_kernels() const { return num_kernels_; }
  size_t num_residual() const { return num_residual_; }

  /// The program an execution with the statement parameters `params` runs:
  /// a copy whose kernels re-read every literal that has a slot from
  /// `params`, or nullopt when no kernel literal has one (the program runs
  /// as compiled). Residuals read `params` as they evaluate.
  std::optional<PredicateProgram> Bind(
      const std::vector<storage::Value>& params) const;

 private:
  friend StatusOr<std::vector<uint32_t>> EvaluatePredicate(
      const PredicateProgram& program, const storage::RecordBatch& input,
      const FunctionRegistry* registry,
      const std::vector<storage::Value>* params);

  struct Conjunct;

  /// Narrows `sel` by kernel `c`; false (leaving `sel` untouched) when `c`
  /// is a residual or the batch's columns are not the kinds `c` was
  /// classified for.
  static bool RunKernel(const Conjunct& c, const storage::RecordBatch& input,
                        bool all, std::vector<uint32_t>* sel);

  std::vector<Conjunct> conjuncts_;  // kernels first, then residuals
  size_t num_kernels_ = 0;
  size_t num_residual_ = 0;
};

/// Returns the logical row indexes of `input` (ascending) where the
/// program's predicate is TRUE — the one entry point for filtering.
/// Residual literals read `params` (LiteralValue); pass the program Bind
/// returned for the same parameters.
StatusOr<std::vector<uint32_t>> EvaluatePredicate(
    const PredicateProgram& program, const storage::RecordBatch& input,
    const FunctionRegistry* registry,
    const std::vector<storage::Value>* params = nullptr);

}  // namespace flock::sql

#endif  // FLOCK_SQL_PREDICATE_PROGRAM_H_
