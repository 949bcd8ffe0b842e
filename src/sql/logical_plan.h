#ifndef FLOCK_SQL_LOGICAL_PLAN_H_
#define FLOCK_SQL_LOGICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "storage/table.h"

namespace flock::sql {

enum class PlanKind {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
};

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

struct LogicalPlan;
using PlanPtr = std::unique_ptr<LogicalPlan>;

/// A logical/physical hybrid plan node (the engine interprets these
/// directly). Expressions inside a node are bound against the node's child
/// output schema (for kScan, against the table schema narrowed by
/// `projection`).
///
/// Like Expr, this is one open struct so that rewrite passes — the built-in
/// optimizer and Flock's SQLxML cross-optimizer — can pattern-match and
/// restructure plans without visitor machinery.
struct LogicalPlan {
  PlanKind kind = PlanKind::kScan;

  // kScan
  std::string table_name;
  storage::TablePtr table;            // resolved by the planner
  std::vector<size_t> projection;     // column subset (empty = all)
  /// Set by a rewrite whose result depends on `table`'s statistics (zone
  /// maps): the table version those statistics describe. A cached plan
  /// whose scan no longer matches its table's version is stale.
  std::optional<uint64_t> stats_version;
  /// Set on a node by a rewrite whose result depends on which segments of
  /// the scan under the node's first child the filters between them leave
  /// standing (sql::ProveScan): those segments. A cached plan whose newly
  /// bound literals leave another set standing is re-planned.
  std::optional<std::vector<size_t>> standing_segments;

  // kFilter
  ExprPtr predicate;

  // kProject
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // kJoin
  JoinType join_type = JoinType::kInner;
  ExprPtr join_condition;             // bound against concat(left, right)

  // kAggregate
  std::vector<ExprPtr> group_by;
  std::vector<ExprPtr> aggregates;    // COUNT/SUM/AVG/MIN/MAX calls
  std::vector<std::string> agg_names;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = -1;                  // -1 = unbounded
  int64_t offset = 0;

  storage::Schema output_schema;
  std::vector<PlanPtr> children;

  PlanPtr Clone() const;

  /// Indented EXPLAIN rendering.
  std::string ToString(int indent = 0) const;

  static PlanPtr MakeScan(std::string table_name, storage::TablePtr table);
  static PlanPtr MakeFilter(PlanPtr child, ExprPtr predicate);
  static PlanPtr MakeProject(PlanPtr child, std::vector<ExprPtr> exprs,
                             std::vector<std::string> names);
  static PlanPtr MakeLimit(PlanPtr child, int64_t limit, int64_t offset);
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_LOGICAL_PLAN_H_
