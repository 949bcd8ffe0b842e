#ifndef FLOCK_SQL_FUNCTION_REGISTRY_H_
#define FLOCK_SQL_FUNCTION_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status_or.h"
#include "storage/column_vector.h"

namespace flock::sql {

/// A vectorized scalar kernel: consumes evaluated argument columns (each of
/// `num_rows` entries) and produces one output column of `num_rows` entries.
using ScalarKernel = std::function<StatusOr<storage::ColumnVectorPtr>(
    const std::vector<storage::ColumnVectorPtr>& args, size_t num_rows)>;

/// Binds one model-scoring call site for `principal` from its one-row
/// constant argument columns (model name first) on its first morsel with
/// rows (`num_rows` > 0): the returned kernel scores that and every later
/// morsel of the execution, from any number of workers at once, taking
/// the same constant columns ahead of the per-row ones. Destroying it
/// closes the binding.
using ScoringBinder = std::function<StatusOr<ScalarKernel>(
    const std::vector<storage::ColumnVectorPtr>& args, size_t num_rows,
    const std::string& principal)>;

/// Metadata + kernel for one scalar function.
struct ScalarFunction {
  ScalarKernel kernel;  // unset on scoring functions
  storage::DataType return_type = storage::DataType::kDouble;
  size_t min_args = 0;
  size_t max_args = 64;
  /// Leading arguments that must be constants, evaluated once per call
  /// site as one-row columns (a model name; a PREDICT_GT/.. threshold).
  size_t constant_args = 0;
  /// Set on model-scoring functions (the PREDICT family). The physical
  /// planner hoists their calls into a PredictScore operator, which binds
  /// each call once per execution, shows it in EXPLAIN and reports its own
  /// OperatorMetrics. A call evaluated elsewhere (an UPDATE/DELETE
  /// predicate) binds per evaluation, for CurrentPrincipal().
  ScoringBinder bind;
};

/// The principal of the statement running on this thread; "system" when
/// no RequestScope is active.
const std::string& CurrentPrincipal();

/// Installs a request's cancel token and principal for this thread.
/// SqlEngine::Execute wraps each statement in one and the executor each
/// worker's morsel loop, so code without an ExecContext sees both.
class RequestScope {
 public:
  RequestScope(const CancelToken& cancel, const std::string& principal);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  CancelScope cancel_;
  const std::string* previous_principal_;
};

/// Name -> scalar function table. The SQL engine pre-populates built-ins
/// (ABS, ROUND, SQRT, UPPER, ...); the Flock layer registers PREDICT and
/// model-specific UDFs here. This is the extension point that lets the core
/// engine stay ML-agnostic while supporting in-DBMS inference (paper §4.1).
class FunctionRegistry {
 public:
  FunctionRegistry() = default;

  /// Registers or replaces `name` (case-insensitive).
  void Register(const std::string& name, ScalarFunction fn);

  /// Looks up `name`; NotFound if missing.
  StatusOr<const ScalarFunction*> Lookup(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// True when `name` is registered with a scoring binder.
  bool IsScoringFunction(const std::string& name) const;

  /// Installs the standard math/string built-ins into `registry`.
  static void RegisterBuiltins(FunctionRegistry* registry);

 private:
  std::map<std::string, ScalarFunction> functions_;  // upper-case keys
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_FUNCTION_REGISTRY_H_
