#include "sql/planner.h"

#include <set>

#include "common/string_util.h"
#include "sql/evaluator.h"

namespace flock::sql {

using storage::DataType;
using storage::Schema;

namespace {

/// Derives a result-column name from an expression.
std::string DeriveName(const Expr& e, size_t position) {
  if (e.kind == ExprKind::kColumnRef) return e.column_name;
  if (e.kind == ExprKind::kFunction) return ToLower(e.function_name);
  return "col" + std::to_string(position);
}

/// Replaces, in-place, every subtree of `*e` equal to `target` with a column
/// reference to `index` of type `type`. Returns true if a replacement
/// happened anywhere.
bool ReplaceSubtree(ExprPtr* e, const Expr& target, int index,
                    DataType type) {
  if ((*e)->Equals(target)) {
    auto ref = Expr::MakeColumnRef("", target.ToString());
    ref->column_index = index;
    ref->resolved_type = type;
    *e = std::move(ref);
    return true;
  }
  bool any = false;
  for (auto& c : (*e)->children) {
    if (c && ReplaceSubtree(&c, target, index, type)) any = true;
  }
  return any;
}

/// Collects aggregate calls in `e` into `out` (deduplicated by structure).
void CollectAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.function_name)) {
    for (const Expr* existing : *out) {
      if (existing->Equals(e)) return;
    }
    out->push_back(&e);
    return;  // aggregates do not nest
  }
  for (const auto& c : e.children) {
    if (c) CollectAggregates(*c, out);
  }
}

}  // namespace

Status Planner::BindTableExpr(Expr* e, const std::string& table_name,
                              const Schema& schema) {
  Scope scope;
  scope.bindings.push_back(
      Scope::Binding{table_name, 0, schema.num_columns()});
  scope.schema = schema;
  return BindExpr(e, scope);
}

Status Planner::BindExpr(Expr* e, const Scope& scope) {
  if (e->kind == ExprKind::kFunction && IsPredictFunction(e->function_name)) {
    // PREDICT(model, features...) and PREDICT_GT(model, threshold, ...):
    // the first argument is a model reference, not a column — rewrite it
    // to a string literal naming the model.
    if (e->children.empty()) {
      return Status::InvalidArgument(e->function_name +
                                     " requires a model argument");
    }
    if (e->children[0]->kind == ExprKind::kColumnRef) {
      e->children[0] = Expr::MakeLiteral(
          storage::Value::String(e->children[0]->column_name));
    }
    // A model named by a string literal: the plan is bound to that model.
    PinSlot(e->children[0]->param_slot);
    for (size_t i = 1; i < e->children.size(); ++i) {
      FLOCK_RETURN_NOT_OK(BindExpr(e->children[i].get(), scope));
    }
    return Status::OK();
  }
  if (e->kind == ExprKind::kColumnRef) {
    if (e->column_index >= 0) return Status::OK();  // already bound
    int found = -1;
    if (!e->table_name.empty()) {
      for (const auto& b : scope.bindings) {
        if (!EqualsIgnoreCase(b.name, e->table_name)) continue;
        for (size_t i = 0; i < b.count; ++i) {
          if (EqualsIgnoreCase(scope.schema.column(b.start + i).name,
                               e->column_name)) {
            found = static_cast<int>(b.start + i);
            break;
          }
        }
        if (found >= 0) break;
      }
      if (found < 0) {
        return Status::NotFound("column not found: " + e->table_name + "." +
                                e->column_name);
      }
    } else {
      int matches = 0;
      for (size_t i = 0; i < scope.schema.num_columns(); ++i) {
        if (EqualsIgnoreCase(scope.schema.column(i).name, e->column_name)) {
          ++matches;
          if (found < 0) found = static_cast<int>(i);
        }
      }
      if (matches == 0) {
        return Status::NotFound("column not found: " + e->column_name);
      }
      if (matches > 1) {
        return Status::InvalidArgument("ambiguous column: " +
                                       e->column_name);
      }
    }
    e->column_index = found;
    e->resolved_type = scope.schema.column(static_cast<size_t>(found)).type;
    return Status::OK();
  }
  for (auto& c : e->children) {
    if (c) FLOCK_RETURN_NOT_OK(BindExpr(c.get(), scope));
  }
  return Status::OK();
}

Status Planner::BindExprToSchema(Expr* e, const Schema& schema) {
  // Post-projection binding: qualifiers are gone, match by column name only
  // (a qualified ref like d.floor matches output column "floor").
  if (e->kind == ExprKind::kColumnRef) {
    if (e->column_index >= 0) return Status::OK();
    int found = -1;
    int matches = 0;
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      if (EqualsIgnoreCase(schema.column(i).name, e->column_name)) {
        ++matches;
        if (found < 0) found = static_cast<int>(i);
      }
    }
    if (matches == 0) {
      return Status::NotFound("column not found: " + e->column_name);
    }
    if (matches > 1) {
      return Status::InvalidArgument("ambiguous column: " + e->column_name);
    }
    e->column_index = found;
    e->resolved_type = schema.column(static_cast<size_t>(found)).type;
    return Status::OK();
  }
  for (auto& c : e->children) {
    if (c) FLOCK_RETURN_NOT_OK(BindExprToSchema(c.get(), schema));
  }
  return Status::OK();
}

StatusOr<Planner::Scope> Planner::BuildFromScope(const SelectStatement& stmt,
                                                 PlanPtr* plan_out) {
  Scope scope;
  if (!stmt.from.has_value()) {
    *plan_out = nullptr;
    return scope;
  }
  auto resolve = [&](const std::string& name) -> StatusOr<storage::TablePtr> {
    if (views_ != nullptr && *views_) {
      FLOCK_ASSIGN_OR_RETURN(storage::TablePtr view, (*views_)(name));
      if (view != nullptr) {
        reads_view_ = true;
        return view;
      }
    }
    return db_->GetTable(name);
  };
  FLOCK_ASSIGN_OR_RETURN(storage::TablePtr table,
                         resolve(stmt.from->table_name));
  PlanPtr plan = LogicalPlan::MakeScan(stmt.from->table_name, table);
  std::string base_name = stmt.from->alias.empty() ? stmt.from->table_name
                                                   : stmt.from->alias;
  scope.bindings.push_back(
      Scope::Binding{base_name, 0, table->schema().num_columns()});
  scope.schema = table->schema();

  for (const auto& join : stmt.joins) {
    FLOCK_ASSIGN_OR_RETURN(storage::TablePtr right,
                           resolve(join.table.table_name));
    std::string right_name = join.table.alias.empty()
                                 ? join.table.table_name
                                 : join.table.alias;
    size_t start = scope.schema.num_columns();
    for (const auto& col : right->schema().columns()) {
      scope.schema.AddColumn(col);
    }
    scope.bindings.push_back(
        Scope::Binding{right_name, start, right->schema().num_columns()});

    auto join_plan = std::make_unique<LogicalPlan>();
    join_plan->kind = PlanKind::kJoin;
    join_plan->join_type = join.type;
    join_plan->children.push_back(std::move(plan));
    join_plan->children.push_back(
        LogicalPlan::MakeScan(join.table.table_name, right));
    join_plan->output_schema = scope.schema;
    if (join.condition) {
      join_plan->join_condition = join.condition->Clone();
      FLOCK_RETURN_NOT_OK(BindExpr(join_plan->join_condition.get(), scope));
    }
    plan = std::move(join_plan);
  }
  *plan_out = std::move(plan);
  return scope;
}

StatusOr<PlanPtr> Planner::PlanSelect(const SelectStatement& stmt) {
  PlanPtr plan;
  FLOCK_ASSIGN_OR_RETURN(Scope scope, BuildFromScope(stmt, &plan));

  if (plan == nullptr) {
    // SELECT without FROM: evaluate over a one-row dummy table.
    Schema schema({storage::ColumnDef{"__dummy", DataType::kInt64, false}});
    auto dummy = std::make_shared<storage::Table>("__dual", schema);
    FLOCK_RETURN_NOT_OK(dummy->AppendRow({storage::Value::Int(0)}));
    plan = LogicalPlan::MakeScan("__dual", dummy);
    scope.schema = schema;
    scope.bindings.push_back(Scope::Binding{"__dual", 0, 1});
  }

  // WHERE.
  if (stmt.where) {
    ExprPtr predicate = stmt.where->Clone();
    FLOCK_RETURN_NOT_OK(BindExpr(predicate.get(), scope));
    if (ContainsAggregate(*predicate)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    plan = LogicalPlan::MakeFilter(std::move(plan), std::move(predicate));
  }

  // Expand SELECT * and prepare output expressions.
  std::vector<ExprPtr> select_exprs;
  std::vector<std::string> select_names;
  for (const auto& item : stmt.select_list) {
    if (item.expr->kind == ExprKind::kStar) {
      const std::string& qualifier = item.expr->table_name;
      for (const auto& b : scope.bindings) {
        if (!qualifier.empty() && !EqualsIgnoreCase(b.name, qualifier)) {
          continue;
        }
        for (size_t i = 0; i < b.count; ++i) {
          auto ref = Expr::MakeColumnRef(
              b.name, scope.schema.column(b.start + i).name);
          ref->column_index = static_cast<int>(b.start + i);
          ref->resolved_type = scope.schema.column(b.start + i).type;
          select_names.push_back(scope.schema.column(b.start + i).name);
          select_exprs.push_back(std::move(ref));
        }
      }
      continue;
    }
    ExprPtr e = item.expr->Clone();
    FLOCK_RETURN_NOT_OK(BindExpr(e.get(), scope));
    select_names.push_back(item.alias.empty()
                               ? DeriveName(*e, select_exprs.size())
                               : item.alias);
    select_exprs.push_back(std::move(e));
  }

  // Aggregation.
  bool any_aggregate = !stmt.group_by.empty();
  for (const auto& e : select_exprs) {
    if (ContainsAggregate(*e)) any_aggregate = true;
  }
  ExprPtr having = stmt.having ? stmt.having->Clone() : nullptr;
  if (having) {
    FLOCK_RETURN_NOT_OK(BindExpr(having.get(), scope));
    if (ContainsAggregate(*having)) any_aggregate = true;
  }

  if (any_aggregate) {
    auto agg = std::make_unique<LogicalPlan>();
    agg->kind = PlanKind::kAggregate;

    // Bind group-by keys.
    for (const auto& g : stmt.group_by) {
      ExprPtr key = g->Clone();
      FLOCK_RETURN_NOT_OK(BindExpr(key.get(), scope));
      agg->group_by.push_back(std::move(key));
    }

    // Collect aggregate calls from SELECT + HAVING + ORDER BY.
    std::vector<const Expr*> agg_calls;
    for (const auto& e : select_exprs) CollectAggregates(*e, &agg_calls);
    if (having) CollectAggregates(*having, &agg_calls);
    for (const auto& item : stmt.order_by) {
      ExprPtr e = item.expr->Clone();
      // ORDER BY may reference select aliases; aggregates inside it are
      // computed by the Aggregate node when they bind against the scope.
      if (BindExpr(e.get(), scope).ok()) {
        CollectAggregates(*e, &agg_calls);
      }
    }

    Schema agg_schema;
    // The output columns are named by the keys' and calls' text, so the
    // literals in them are part of the plan.
    for (size_t i = 0; i < agg->group_by.size(); ++i) {
      PinLiterals(*agg->group_by[i]);
      FLOCK_ASSIGN_OR_RETURN(
          DataType t, InferExprType(*agg->group_by[i], scope.schema,
                                    registry_));
      agg_schema.AddColumn(storage::ColumnDef{
          agg->group_by[i]->ToString(), t, true});
    }
    for (const Expr* call : agg_calls) {
      ExprPtr copy = call->Clone();
      PinLiterals(*copy);
      FLOCK_ASSIGN_OR_RETURN(
          DataType t, InferExprType(*copy, scope.schema, registry_));
      agg_schema.AddColumn(storage::ColumnDef{copy->ToString(), t, true});
      agg->agg_names.push_back(copy->ToString());
      agg->aggregates.push_back(std::move(copy));
    }
    agg->output_schema = agg_schema;
    agg->children.push_back(std::move(plan));

    // Rewrite SELECT/HAVING expressions against the aggregate output.
    auto rewrite = [&](ExprPtr* e) -> Status {
      // Unbind scan-scope references so leftovers are detectable below
      // (replacement refs get fresh indexes into the aggregate output).
      VisitExprMutable(e->get(), [](Expr* node) {
        if (node->kind == ExprKind::kColumnRef) node->column_index = -1;
      });
      // First replace whole-tree matches of group keys, then aggregates.
      for (size_t g = 0; g < agg->group_by.size(); ++g) {
        ReplaceSubtree(e, *agg->group_by[g], static_cast<int>(g),
                       agg_schema.column(g).type);
      }
      for (size_t a = 0; a < agg->aggregates.size(); ++a) {
        size_t out_idx = agg->group_by.size() + a;
        ReplaceSubtree(e, *agg->aggregates[a], static_cast<int>(out_idx),
                       agg_schema.column(out_idx).type);
      }
      // Any remaining raw column ref is invalid (not in GROUP BY).
      Status bad = Status::OK();
      VisitExpr(**e, [&](const Expr& node) {
        if (node.kind == ExprKind::kColumnRef && node.column_index < 0) {
          bad = Status::InvalidArgument(
              "column " + node.column_name +
              " must appear in GROUP BY or inside an aggregate");
        }
      });
      return bad;
    };

    // Select expressions were bound against the scan scope; re-derive
    // unbound clones so the rewrite can anchor on structural equality.
    for (auto& e : select_exprs) {
      FLOCK_RETURN_NOT_OK(rewrite(&e));
    }
    if (having) {
      FLOCK_RETURN_NOT_OK(rewrite(&having));
    }
    plan = std::move(agg);
    if (having) {
      plan = LogicalPlan::MakeFilter(std::move(plan), std::move(having));
    }

    // Project the select list on top of the aggregate.
    Schema project_schema;
    for (size_t i = 0; i < select_exprs.size(); ++i) {
      FLOCK_ASSIGN_OR_RETURN(
          DataType t, InferExprType(*select_exprs[i], plan->output_schema,
                                    registry_));
      project_schema.AddColumn(
          storage::ColumnDef{select_names[i], t, true});
    }
    auto project = LogicalPlan::MakeProject(
        std::move(plan), std::move(select_exprs), select_names);
    project->output_schema = project_schema;
    plan = std::move(project);

    // ORDER BY (bound against the projection output, aliases included).
    if (!stmt.order_by.empty()) {
      auto sort = std::make_unique<LogicalPlan>();
      sort->kind = PlanKind::kSort;
      sort->output_schema = plan->output_schema;
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        SortKey key;
        key.ascending = stmt.order_by[i].ascending;
        key.expr = stmt.order_by[i].expr->Clone();
        FLOCK_RETURN_NOT_OK(
            BindExprToSchema(key.expr.get(), plan->output_schema));
        sort->sort_keys.push_back(std::move(key));
      }
      sort->children.push_back(std::move(plan));
      plan = std::move(sort);
    }
  } else {
    // Non-aggregate path: Sort runs below the projection so ORDER BY can
    // reference any FROM-scope column; bare refs that match a select alias
    // are substituted with the aliased expression first (SQL's alias rule).
    if (!stmt.order_by.empty()) {
      auto sort = std::make_unique<LogicalPlan>();
      sort->kind = PlanKind::kSort;
      sort->output_schema = plan->output_schema;
      for (const auto& item : stmt.order_by) {
        SortKey key;
        key.ascending = item.ascending;
        key.expr = item.expr->Clone();
        if (key.expr->kind == ExprKind::kColumnRef &&
            key.expr->table_name.empty()) {
          for (size_t i = 0; i < select_names.size(); ++i) {
            if (EqualsIgnoreCase(select_names[i], key.expr->column_name)) {
              key.expr = select_exprs[i]->Clone();
              break;
            }
          }
        }
        FLOCK_RETURN_NOT_OK(BindExpr(key.expr.get(), scope));
        sort->sort_keys.push_back(std::move(key));
      }
      sort->children.push_back(std::move(plan));
      plan = std::move(sort);
    }

    Schema project_schema;
    for (size_t i = 0; i < select_exprs.size(); ++i) {
      FLOCK_ASSIGN_OR_RETURN(
          DataType t,
          InferExprType(*select_exprs[i], scope.schema, registry_));
      project_schema.AddColumn(
          storage::ColumnDef{select_names[i], t, true});
    }
    auto project = LogicalPlan::MakeProject(
        std::move(plan), std::move(select_exprs), select_names);
    project->output_schema = project_schema;
    plan = std::move(project);
  }

  if (stmt.distinct) {
    auto distinct = std::make_unique<LogicalPlan>();
    distinct->kind = PlanKind::kDistinct;
    distinct->output_schema = plan->output_schema;
    distinct->children.push_back(std::move(plan));
    plan = std::move(distinct);
  }

  if (stmt.limit.has_value() || stmt.offset.has_value()) {
    PinSlot(stmt.limit_slot);
    PinSlot(stmt.offset_slot);
    plan = LogicalPlan::MakeLimit(std::move(plan),
                                  stmt.limit.value_or(-1),
                                  stmt.offset.value_or(0));
  }
  return plan;
}

}  // namespace flock::sql
