#include "prov/sql_capture.h"

#include <set>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "sql/parser.h"

namespace flock::prov {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectStatement;
using sql::Statement;
using sql::StatementKind;

/// Alias -> table name bindings of a FROM clause.
struct AliasMap {
  std::vector<std::pair<std::string, std::string>> entries;

  void Add(const sql::TableRef& ref) {
    entries.emplace_back(ref.alias.empty() ? ref.table_name : ref.alias,
                         ref.table_name);
  }

  /// Resolves an alias to a table name ("" if unknown).
  std::string Resolve(const std::string& alias) const {
    for (const auto& [a, t] : entries) {
      if (EqualsIgnoreCase(a, alias)) return t;
    }
    return "";
  }
};

void CollectColumns(
    const Expr& e, const AliasMap& aliases, const storage::Database* db,
    std::set<std::pair<std::string, std::string>>* columns) {
  sql::VisitExpr(e, [&](const Expr& node) {
    if (node.kind != ExprKind::kColumnRef) return;
    if (!node.table_name.empty()) {
      std::string table = aliases.Resolve(node.table_name);
      if (!table.empty()) {
        columns->insert({ToLower(table), ToLower(node.column_name)});
      }
      return;
    }
    // Unqualified: resolve against table schemas when available.
    if (db == nullptr) return;
    for (const auto& [alias, table] : aliases.entries) {
      auto t = db->GetTable(table);
      if (t.ok() && (*t)->schema().FindColumn(node.column_name)) {
        columns->insert({ToLower(table), ToLower(node.column_name)});
        return;  // first match wins (coarse-grained capture)
      }
    }
  });
}

void AnalyzeSelect(const SelectStatement& select,
                   const storage::Database* db, CapturedStatement* out) {
  AliasMap aliases;
  if (select.from.has_value()) {
    aliases.Add(*select.from);
    out->input_tables.push_back(ToLower(select.from->table_name));
  }
  for (const auto& join : select.joins) {
    aliases.Add(join.table);
    out->input_tables.push_back(ToLower(join.table.table_name));
  }
  std::set<std::pair<std::string, std::string>> columns;
  for (const auto& item : select.select_list) {
    if (item.expr) CollectColumns(*item.expr, aliases, db, &columns);
  }
  if (select.where) CollectColumns(*select.where, aliases, db, &columns);
  for (const auto& join : select.joins) {
    if (join.condition) {
      CollectColumns(*join.condition, aliases, db, &columns);
    }
  }
  for (const auto& g : select.group_by) {
    CollectColumns(*g, aliases, db, &columns);
  }
  if (select.having) CollectColumns(*select.having, aliases, db, &columns);
  for (const auto& o : select.order_by) {
    CollectColumns(*o.expr, aliases, db, &columns);
  }
  out->input_columns.assign(columns.begin(), columns.end());
}

}  // namespace

StatusOr<CapturedStatement> AnalyzeStatement(const std::string& sql,
                                             const storage::Database* db) {
  FLOCK_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::Parser::Parse(sql));
  CapturedStatement out;
  switch (stmt->kind()) {
    case StatementKind::kSelect: {
      out.kind = "SELECT";
      AnalyzeSelect(static_cast<const SelectStatement&>(*stmt), db, &out);
      break;
    }
    case StatementKind::kInsert: {
      const auto& insert = static_cast<const sql::InsertStatement&>(*stmt);
      out.kind = "INSERT";
      out.output_table = ToLower(insert.table_name);
      out.creates_version = true;
      if (!insert.columns.empty()) {
        for (const auto& col : insert.columns) {
          out.written_columns.push_back(ToLower(col));
        }
      } else if (db != nullptr) {
        auto table = db->GetTable(insert.table_name);
        if (table.ok()) {
          for (const auto& col : (*table)->schema().columns()) {
            out.written_columns.push_back(ToLower(col.name));
          }
        }
      }
      if (insert.select != nullptr) {
        AnalyzeSelect(*insert.select, db, &out);
      }
      break;
    }
    case StatementKind::kUpdate: {
      const auto& update = static_cast<const sql::UpdateStatement&>(*stmt);
      out.kind = "UPDATE";
      out.output_table = ToLower(update.table_name);
      out.creates_version = true;
      out.input_tables.push_back(ToLower(update.table_name));
      AliasMap aliases;
      sql::TableRef self;
      self.table_name = update.table_name;
      aliases.Add(self);
      std::set<std::pair<std::string, std::string>> columns;
      for (const auto& [col, expr] : update.assignments) {
        out.written_columns.push_back(ToLower(col));
        columns.insert({ToLower(update.table_name), ToLower(col)});
        CollectColumns(*expr, aliases, db, &columns);
      }
      if (update.where) {
        CollectColumns(*update.where, aliases, db, &columns);
      }
      out.input_columns.assign(columns.begin(), columns.end());
      break;
    }
    case StatementKind::kDelete: {
      const auto& del = static_cast<const sql::DeleteStatement&>(*stmt);
      out.kind = "DELETE";
      out.output_table = ToLower(del.table_name);
      out.creates_version = true;
      out.input_tables.push_back(ToLower(del.table_name));
      if (del.where) {
        AliasMap aliases;
        sql::TableRef self;
        self.table_name = del.table_name;
        aliases.Add(self);
        std::set<std::pair<std::string, std::string>> columns;
        CollectColumns(*del.where, aliases, db, &columns);
        out.input_columns.assign(columns.begin(), columns.end());
      }
      break;
    }
    case StatementKind::kCreateTable: {
      const auto& create =
          static_cast<const sql::CreateTableStatement&>(*stmt);
      out.kind = "CREATE TABLE";
      out.output_table = ToLower(create.table_name);
      for (const auto& col : create.schema.columns()) {
        out.created_columns.push_back(ToLower(col.name));
      }
      break;
    }
    case StatementKind::kDropTable:
      out.kind = "DROP TABLE";
      out.output_table = ToLower(
          static_cast<const sql::DropTableStatement&>(*stmt).table_name);
      break;
    case StatementKind::kCreateModel:
      out.kind = "CREATE MODEL";
      out.model_name = ToLower(
          static_cast<const sql::CreateModelStatement&>(*stmt).model_name);
      break;
    case StatementKind::kDropModel:
      out.kind = "DROP MODEL";
      out.model_name = ToLower(
          static_cast<const sql::DropModelStatement&>(*stmt).model_name);
      break;
    case StatementKind::kExplain:
      out.kind = "EXPLAIN";
      break;
  }
  return out;
}

Status SqlCaptureModule::CaptureStatement(const std::string& sql) {
  Stopwatch timer;
  auto info = AnalyzeStatement(sql, db_);
  if (!info.ok()) {
    ++stats_.statements;
    ++stats_.parse_failures;
    stats_.total_latency_ms += timer.ElapsedMillis();
    return info.status();
  }
  Status st = Ingest(sql, *info);
  ++stats_.statements;
  stats_.total_latency_ms += timer.ElapsedMillis();
  return st;
}

Status SqlCaptureModule::CaptureLog(const std::vector<std::string>& log) {
  for (const std::string& sql : log) {
    // Lazy mode tolerates unparseable entries (foreign dialects in real
    // query logs); they are counted and skipped.
    (void)CaptureStatement(sql);
  }
  return Status::OK();
}

Status SqlCaptureModule::Ingest(const std::string& sql,
                                const CapturedStatement& info) {
  uint64_t query = catalog_->GetOrCreate(
      EntityType::kQuery, StrCat("q", std::to_string(query_counter_++)));
  FLOCK_RETURN_NOT_OK(catalog_->SetProperty(query, "sql", sql));
  FLOCK_RETURN_NOT_OK(catalog_->SetProperty(query, "kind", info.kind));

  for (const std::string& table : info.input_tables) {
    uint64_t table_id = catalog_->GetOrCreate(EntityType::kTable, table);
    catalog_->AddEdge(query, table_id, EdgeType::kReads);
  }
  for (const auto& [table, column] : info.input_columns) {
    uint64_t table_id = catalog_->GetOrCreate(EntityType::kTable, table);
    std::string column_name = table + "." + column;
    bool existed = catalog_->Find(EntityType::kColumn, column_name).ok();
    uint64_t column_id =
        catalog_->GetOrCreate(EntityType::kColumn, column_name);
    if (!existed) {
      catalog_->AddEdge(table_id, column_id, EdgeType::kContains);
    }
    catalog_->AddEdge(query, column_id, EdgeType::kReads);
  }
  if (!info.output_table.empty()) {
    if (info.creates_version) {
      // A mutation yields a new version of the table entity, and of every
      // written column (paper C1: data elements are polymorphic *and*
      // temporal — "a table having as many versions as the insertions
      // that have happened to it").
      uint64_t version_id =
          catalog_->NewVersion(EntityType::kTable, info.output_table);
      catalog_->AddEdge(query, version_id, EdgeType::kWrites);
      for (const std::string& column : info.written_columns) {
        uint64_t column_version = catalog_->NewVersion(
            EntityType::kColumn, info.output_table + "." + column);
        catalog_->AddEdge(query, column_version, EdgeType::kWrites);
        catalog_->AddEdge(version_id, column_version,
                          EdgeType::kContains);
      }
    } else {
      uint64_t table_id =
          catalog_->GetOrCreate(EntityType::kTable, info.output_table);
      catalog_->AddEdge(query, table_id, EdgeType::kWrites);
      for (const std::string& column : info.created_columns) {
        uint64_t column_id = catalog_->GetOrCreate(
            EntityType::kColumn, info.output_table + "." + column);
        catalog_->AddEdge(table_id, column_id, EdgeType::kContains);
      }
    }
  }
  if (!info.model_name.empty()) {
    uint64_t model_id =
        catalog_->GetOrCreate(EntityType::kModel, info.model_name);
    catalog_->AddEdge(query, model_id, EdgeType::kWrites);
  }
  return Status::OK();
}

}  // namespace flock::prov
