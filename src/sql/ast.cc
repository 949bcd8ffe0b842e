#include "sql/ast.h"

#include "common/string_util.h"

namespace flock::sql {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNotEq:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLtEq:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGtEq:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->param_slot = param_slot;
  out->table_name = table_name;
  out->column_name = column_name;
  out->column_index = column_index;
  out->resolved_type = resolved_type;
  out->bin_op = bin_op;
  out->un_op = un_op;
  out->function_name = function_name;
  out->distinct = distinct;
  out->has_else = has_else;
  out->cast_type = cast_type;
  out->negated = negated;
  out->children.reserve(children.size());
  for (const auto& c : children) {
    out->children.push_back(c ? c->Clone() : nullptr);
  }
  return out;
}

std::string Expr::ToString(bool shape) const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (shape && param_slot >= 0) {
        switch (literal.type()) {
          case storage::DataType::kInt64:
            return "?i";
          case storage::DataType::kDouble:
            return "?d";
          default:
            return "?s";
        }
      }
      if (!literal.is_null() &&
          literal.type() == storage::DataType::kString) {
        return StrCat("'", literal.string_value(), "'");
      }
      return literal.ToString();
    case ExprKind::kColumnRef:
      return table_name.empty() ? column_name
                                : StrCat(table_name, ".", column_name);
    case ExprKind::kStar:
      return "*";
    case ExprKind::kBinary:
      return StrCat("(", children[0]->ToString(shape), " ",
                    BinaryOpName(bin_op), " ", children[1]->ToString(shape),
                    ")");
    case ExprKind::kUnary:
      // Parenthesized so nested negation never prints "--" (a comment).
      return StrCat(un_op == UnaryOp::kNeg ? "(-" : "(NOT ",
                    children[0]->ToString(shape), ")");
    case ExprKind::kFunction: {
      std::string out =
          StrCat(function_name, distinct ? "(DISTINCT " : "(");
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString(shape);
      }
      return out + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t pairs = children.size() - (has_else ? 1 : 0);
      for (size_t i = 0; i + 1 < pairs + 1 && i + 1 < children.size();
           i += 2) {
        if (i + 1 >= pairs && has_else) break;
        out += StrCat(" WHEN ", children[i]->ToString(shape), " THEN ",
                      children[i + 1]->ToString(shape));
      }
      if (has_else) out += StrCat(" ELSE ", children.back()->ToString(shape));
      return out + " END";
    }
    case ExprKind::kIn: {
      // Parenthesized so the whole test can appear as an operand.
      std::string out = StrCat("(", children[0]->ToString(shape),
                               negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString(shape);
      }
      return out + "))";
    }
    case ExprKind::kBetween:
      return StrCat("(", children[0]->ToString(shape),
                    negated ? " NOT BETWEEN " : " BETWEEN ",
                    children[1]->ToString(shape), " AND ",
                    children[2]->ToString(shape), ")");
    case ExprKind::kCast:
      return StrCat("CAST(", children[0]->ToString(shape), " AS ",
                    storage::DataTypeName(cast_type), ")");
    case ExprKind::kIsNull:
      return StrCat("(", children[0]->ToString(shape),
                    negated ? " IS NOT NULL)" : " IS NULL)");
  }
  return "?";
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case ExprKind::kLiteral:
      // The outcome depends on both values unless both are one slot.
      if (param_slot < 0 || param_slot != other.param_slot) {
        PinSlot(param_slot);
        PinSlot(other.param_slot);
      }
      if (literal.is_null() != other.literal.is_null()) return false;
      if (!literal.is_null() && !(literal == other.literal)) return false;
      break;
    case ExprKind::kColumnRef:
      if (!EqualsIgnoreCase(column_name, other.column_name)) return false;
      if (!table_name.empty() && !other.table_name.empty() &&
          !EqualsIgnoreCase(table_name, other.table_name)) {
        return false;
      }
      break;
    case ExprKind::kBinary:
      if (bin_op != other.bin_op) return false;
      break;
    case ExprKind::kUnary:
      if (un_op != other.un_op) return false;
      break;
    case ExprKind::kFunction:
      if (!EqualsIgnoreCase(function_name, other.function_name) ||
          distinct != other.distinct) {
        return false;
      }
      break;
    case ExprKind::kCast:
      if (cast_type != other.cast_type) return false;
      break;
    case ExprKind::kIsNull:
    case ExprKind::kIn:
    case ExprKind::kBetween:
      if (negated != other.negated) return false;
      break;
    case ExprKind::kStar:
    case ExprKind::kCase:
      break;
  }
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

ExprPtr Expr::MakeLiteral(storage::Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table_name = std::move(table);
  e->column_name = std::move(column);
  return e;
}

ExprPtr Expr::MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

ExprPtr Expr::MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeFunction(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->function_name = ToUpper(name);
  e->children = std::move(args);
  return e;
}

ExprPtr Expr::MakeCast(ExprPtr operand, storage::DataType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCast;
  e->cast_type = type;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeIsNull(ExprPtr operand, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIsNull;
  e->negated = negated;
  e->children.push_back(std::move(operand));
  return e;
}

namespace {
thread_local PinScope* current_pins = nullptr;
}  // namespace

PinScope::PinScope(size_t num_slots)
    : pinned_(num_slots, false), outer_(current_pins) {
  current_pins = this;
}

PinScope::~PinScope() { current_pins = outer_; }

void PinSlot(int slot) {
  PinScope* scope = current_pins;
  if (scope == nullptr || slot < 0 ||
      static_cast<size_t>(slot) >= scope->pinned_.size()) {
    return;
  }
  scope->pinned_[static_cast<size_t>(slot)] = true;
}

void PinLiterals(const Expr& e) {
  if (current_pins == nullptr) return;
  VisitExpr(e, [](const Expr& node) {
    if (node.kind == ExprKind::kLiteral) PinSlot(node.param_slot);
  });
}

bool IsAggregateFunction(const std::string& upper_name) {
  return upper_name == "COUNT" || upper_name == "SUM" ||
         upper_name == "AVG" || upper_name == "MIN" || upper_name == "MAX";
}

bool IsPredictFunction(const std::string& upper_name) {
  return upper_name == "PREDICT" || upper_name == "PREDICT_GT" ||
         upper_name == "PREDICT_GE" || upper_name == "PREDICT_LT" ||
         upper_name == "PREDICT_LE";
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.function_name)) {
    return true;
  }
  for (const auto& c : e.children) {
    if (c && ContainsAggregate(*c)) return true;
  }
  return false;
}

void VisitExpr(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  for (const auto& c : e.children) {
    if (c) VisitExpr(*c, fn);
  }
}

void VisitExprMutable(Expr* e, const std::function<void(Expr*)>& fn) {
  fn(e);
  for (auto& c : e->children) {
    if (c) VisitExprMutable(c.get(), fn);
  }
}

}  // namespace flock::sql
