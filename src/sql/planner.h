#ifndef FLOCK_SQL_PLANNER_H_
#define FLOCK_SQL_PLANNER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "sql/ast.h"
#include "sql/function_registry.h"
#include "sql/logical_plan.h"
#include "storage/database.h"

namespace flock::sql {

/// Resolves a FROM/JOIN name to a read-only view: a table snapshotted for
/// the statement being planned, or nullptr when `name` names no view. A
/// view is no table of the database, so no write, WAL record or
/// checkpoint sees it.
using ViewResolver =
    std::function<StatusOr<storage::TablePtr>(const std::string& name)>;

/// Binds a parsed SELECT against the catalog and produces a logical plan.
///
/// Binding resolves every column reference to an index in its node's input
/// schema and infers types along the way. Aggregation is planned as an
/// Aggregate node whose output columns (group keys, then aggregate values)
/// the SELECT/HAVING/ORDER BY expressions are rewritten to reference.
class Planner {
 public:
  /// `views` (optional) resolves FROM/JOIN names before the database.
  Planner(const storage::Database* db, const FunctionRegistry* registry,
          const ViewResolver* views = nullptr)
      : db_(db), registry_(registry), views_(views) {}

  StatusOr<PlanPtr> PlanSelect(const SelectStatement& stmt);

  /// True once a plan this planner built scans a view snapshot.
  bool reads_view() const { return reads_view_; }

  /// Binds a DML WHERE or SET expression against the one table the
  /// statement names, by the rules of a single-table SELECT: a qualifier
  /// must name that table, and a PREDICT-family call's first argument
  /// names a model.
  Status BindTableExpr(Expr* e, const std::string& table_name,
                       const storage::Schema& schema);

 private:
  /// Name-resolution scope for one FROM clause: each table binding maps an
  /// alias to a contiguous column range in the concatenated schema.
  struct Scope {
    struct Binding {
      std::string name;  // alias if present, else table name
      size_t start = 0;
      size_t count = 0;
    };
    std::vector<Binding> bindings;
    storage::Schema schema;
  };

  StatusOr<Scope> BuildFromScope(const SelectStatement& stmt,
                                 PlanPtr* plan_out);

  /// Resolves column refs in `e` against `scope`; sets column_index and
  /// resolved_type.
  Status BindExpr(Expr* e, const Scope& scope);

  /// Binds against a plain output schema (post-projection / post-aggregate).
  Status BindExprToSchema(Expr* e, const storage::Schema& schema);

  const storage::Database* db_;
  const FunctionRegistry* registry_;
  const ViewResolver* views_;
  bool reads_view_ = false;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_PLANNER_H_
