#include "sql/evaluator.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace flock::sql {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;
using storage::RecordBatch;
using storage::Value;

namespace {

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kBool;
}

/// Output type of an arithmetic binary op.
DataType ArithmeticResultType(BinaryOp op, DataType lhs, DataType rhs) {
  if (op == BinaryOp::kDiv) return DataType::kDouble;
  if (lhs == DataType::kInt64 && rhs == DataType::kInt64) {
    return DataType::kInt64;
  }
  return DataType::kDouble;
}

StatusOr<ColumnVectorPtr> EvaluateArithmetic(BinaryOp op,
                                             const ColumnVector& lhs,
                                             const ColumnVector& rhs,
                                             size_t n) {
  DataType out_type = ArithmeticResultType(op, lhs.type(), rhs.type());
  auto out = std::make_shared<ColumnVector>(out_type);
  out->Reserve(n);
  if (out_type == DataType::kInt64) {
    for (size_t i = 0; i < n; ++i) {
      if (lhs.IsNull(i) || rhs.IsNull(i)) {
        out->AppendNull();
        continue;
      }
      int64_t a = lhs.int_at(i);
      int64_t b = rhs.int_at(i);
      int64_t r = 0;
      bool overflow = false;
      switch (op) {
        case BinaryOp::kAdd:
          overflow = __builtin_add_overflow(a, b, &r);
          break;
        case BinaryOp::kSub:
          overflow = __builtin_sub_overflow(a, b, &r);
          break;
        case BinaryOp::kMul:
          overflow = __builtin_mul_overflow(a, b, &r);
          break;
        case BinaryOp::kMod:
          if (b == 0) {
            out->AppendNull();
            continue;
          }
          r = b == -1 ? 0 : a % b;  // INT64_MIN % -1 overflows
          break;
        default:
          return Status::Internal("bad arithmetic op");
      }
      if (overflow) {
        return Status::OutOfRange(std::string("BIGINT ") + BinaryOpName(op) +
                                  " overflows: " + std::to_string(a) + " " +
                                  BinaryOpName(op) + " " + std::to_string(b));
      }
      out->AppendInt(r);
    }
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    if (lhs.IsNull(i) || rhs.IsNull(i)) {
      out->AppendNull();
      continue;
    }
    double a = lhs.AsDouble(i);
    double b = rhs.AsDouble(i);
    double r = 0;
    switch (op) {
      case BinaryOp::kAdd:
        r = a + b;
        break;
      case BinaryOp::kSub:
        r = a - b;
        break;
      case BinaryOp::kMul:
        r = a * b;
        break;
      case BinaryOp::kDiv:
        if (b == 0.0) {
          out->AppendNull();
          continue;
        }
        r = a / b;
        break;
      case BinaryOp::kMod:
        if (b == 0.0) {
          out->AppendNull();
          continue;
        }
        r = std::fmod(a, b);
        break;
      default:
        return Status::Internal("bad arithmetic op");
    }
    out->AppendDouble(r);
  }
  return out;
}

StatusOr<ColumnVectorPtr> EvaluateComparison(BinaryOp op,
                                             const ColumnVector& lhs,
                                             const ColumnVector& rhs,
                                             size_t n) {
  auto out = std::make_shared<ColumnVector>(DataType::kBool);
  out->Reserve(n);
  bool string_cmp =
      lhs.type() == DataType::kString && rhs.type() == DataType::kString;
  bool numeric_cmp = IsNumeric(lhs.type()) && IsNumeric(rhs.type());
  // Two BIGINTs compare exactly; through doubles, 2^53 + 1 = 2^53.
  bool int_cmp =
      lhs.type() == DataType::kInt64 && rhs.type() == DataType::kInt64;
  if (!string_cmp && !numeric_cmp) {
    // Mixed string/number comparison: compare via string rendering for
    // equality, otherwise fail loudly.
    if (op != BinaryOp::kEq && op != BinaryOp::kNotEq) {
      return Status::InvalidArgument(
          "cannot order-compare string against numeric");
    }
  }
  bool is_comparison = DispatchComparison(op, [&](auto cmp) {
    constexpr BinaryOp kOp = decltype(cmp)::value;
    for (size_t i = 0; i < n; ++i) {
      if (lhs.IsNull(i) || rhs.IsNull(i)) {
        out->AppendNull();
        continue;
      }
      bool r;
      if (string_cmp) {
        r = Compare<kOp>(lhs.string_at(i), rhs.string_at(i));
      } else if (int_cmp) {
        r = Compare<kOp>(lhs.int_at(i), rhs.int_at(i));
      } else if (numeric_cmp) {
        r = Compare<kOp>(lhs.AsDouble(i), rhs.AsDouble(i));
      } else {
        r = Compare<kOp>(lhs.GetValue(i).ToString(),
                         rhs.GetValue(i).ToString());
      }
      out->AppendBool(r);
    }
  });
  if (!is_comparison) return Status::Internal("bad comparison op");
  return out;
}

}  // namespace

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNotEq ||
         op == BinaryOp::kLt || op == BinaryOp::kLtEq ||
         op == BinaryOp::kGt || op == BinaryOp::kGtEq;
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLtEq:
      return BinaryOp::kGtEq;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGtEq:
      return BinaryOp::kLtEq;
    default:
      return op;
  }
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer wildcard match: % = any run, _ = any one char.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

StatusOr<ColumnVectorPtr> EvaluateExpr(const Expr& expr,
                                       const RecordBatch& input,
                                       const FunctionRegistry* registry,
                                       const std::vector<Value>* params) {
  const size_t n = input.num_rows();
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      const Value& literal = LiteralValue(expr, params);
      DataType t = literal.is_null() ? DataType::kInt64 : literal.type();
      auto out = std::make_shared<ColumnVector>(t);
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        FLOCK_RETURN_NOT_OK(out->AppendValue(literal));
      }
      return out;
    }
    case ExprKind::kColumnRef: {
      if (expr.column_index < 0 ||
          static_cast<size_t>(expr.column_index) >= input.num_columns()) {
        return Status::Internal("unbound column reference: " +
                                expr.ToString());
      }
      const ColumnVectorPtr& col =
          input.column(static_cast<size_t>(expr.column_index));
      if (!input.has_selection()) return col;
      // Late materialization: gather only the columns an expression
      // actually touches, so selected views coming out of filters never
      // copy untouched columns.
      auto gathered = std::make_shared<ColumnVector>(col->type());
      gathered->AppendSelected(*col, input.selection());
      return gathered;
    }
    case ExprKind::kStar:
      return Status::Internal("'*' cannot be evaluated as a scalar");
    case ExprKind::kBinary: {
      if (expr.bin_op == BinaryOp::kAnd || expr.bin_op == BinaryOp::kOr) {
        FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr lhs,
                               EvaluateExpr(*expr.children[0], input,
                                            registry, params));
        FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr rhs,
                               EvaluateExpr(*expr.children[1], input,
                                            registry, params));
        auto out = std::make_shared<ColumnVector>(DataType::kBool);
        out->Reserve(n);
        bool is_and = expr.bin_op == BinaryOp::kAnd;
        for (size_t i = 0; i < n; ++i) {
          bool lnull = lhs->IsNull(i), rnull = rhs->IsNull(i);
          bool lv = !lnull && lhs->AsDouble(i) != 0.0;
          bool rv = !rnull && rhs->AsDouble(i) != 0.0;
          if (is_and) {
            // Kleene AND: false dominates, then null.
            if ((!lnull && !lv) || (!rnull && !rv)) {
              out->AppendBool(false);
            } else if (lnull || rnull) {
              out->AppendNull();
            } else {
              out->AppendBool(true);
            }
          } else {
            if ((!lnull && lv) || (!rnull && rv)) {
              out->AppendBool(true);
            } else if (lnull || rnull) {
              out->AppendNull();
            } else {
              out->AppendBool(false);
            }
          }
        }
        return out;
      }
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr lhs,
          EvaluateExpr(*expr.children[0], input, registry, params));
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr rhs,
          EvaluateExpr(*expr.children[1], input, registry, params));
      switch (expr.bin_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return EvaluateArithmetic(expr.bin_op, *lhs, *rhs, n);
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
          return EvaluateComparison(expr.bin_op, *lhs, *rhs, n);
        case BinaryOp::kLike: {
          auto out = std::make_shared<ColumnVector>(DataType::kBool);
          out->Reserve(n);
          for (size_t i = 0; i < n; ++i) {
            if (lhs->IsNull(i) || rhs->IsNull(i)) {
              out->AppendNull();
              continue;
            }
            out->AppendBool(LikeMatch(lhs->GetValue(i).ToString(),
                                      rhs->GetValue(i).ToString()));
          }
          return out;
        }
        default:
          return Status::Internal("unhandled binary op");
      }
    }
    case ExprKind::kUnary: {
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr operand,
          EvaluateExpr(*expr.children[0], input, registry, params));
      if (expr.un_op == UnaryOp::kNot) {
        auto out = std::make_shared<ColumnVector>(DataType::kBool);
        out->Reserve(n);
        for (size_t i = 0; i < n; ++i) {
          if (operand->IsNull(i)) {
            out->AppendNull();
          } else {
            out->AppendBool(operand->AsDouble(i) == 0.0);
          }
        }
        return out;
      }
      // Negation keeps the numeric type.
      DataType t = operand->type() == DataType::kInt64 ? DataType::kInt64
                                                       : DataType::kDouble;
      auto out = std::make_shared<ColumnVector>(t);
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (operand->IsNull(i)) {
          out->AppendNull();
        } else if (t == DataType::kInt64) {
          const int64_t v = operand->int_at(i);
          if (v == std::numeric_limits<int64_t>::min()) {
            return Status::OutOfRange("BIGINT negation overflows: " +
                                      std::to_string(v));
          }
          out->AppendInt(-v);
        } else {
          out->AppendDouble(-operand->AsDouble(i));
        }
      }
      return out;
    }
    case ExprKind::kFunction: {
      std::vector<ColumnVectorPtr> args;
      FLOCK_ASSIGN_OR_RETURN(
          const ScalarFunction* fn,
          EvaluateCallConstants(expr, registry, &args, params));
      for (size_t i = args.size(); i < expr.children.size(); ++i) {
        FLOCK_ASSIGN_OR_RETURN(
            ColumnVectorPtr arg,
            EvaluateExpr(*expr.children[i], input, registry, params));
        args.push_back(std::move(arg));
      }
      if (!fn->bind) return fn->kernel(args, n);
      // A scoring call outside a PredictScore operator binds per
      // evaluation; no rows, no binding.
      if (n == 0) return std::make_shared<ColumnVector>(fn->return_type);
      FLOCK_ASSIGN_OR_RETURN(ScalarKernel score,
                             fn->bind(args, n, CurrentPrincipal()));
      return score(args, n);
    }
    case ExprKind::kCase: {
      size_t num_pairs = (expr.children.size() - (expr.has_else ? 1 : 0)) / 2;
      std::vector<ColumnVectorPtr> whens(num_pairs), thens(num_pairs);
      for (size_t p = 0; p < num_pairs; ++p) {
        FLOCK_ASSIGN_OR_RETURN(
            whens[p],
            EvaluateExpr(*expr.children[2 * p], input, registry, params));
        FLOCK_ASSIGN_OR_RETURN(
            thens[p],
            EvaluateExpr(*expr.children[2 * p + 1], input, registry, params));
      }
      ColumnVectorPtr else_col;
      if (expr.has_else) {
        FLOCK_ASSIGN_OR_RETURN(
            else_col,
            EvaluateExpr(*expr.children.back(), input, registry, params));
      }
      // Output type: first THEN branch's type.
      DataType t = num_pairs > 0 ? thens[0]->type() : DataType::kInt64;
      auto out = std::make_shared<ColumnVector>(t);
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        bool matched = false;
        for (size_t p = 0; p < num_pairs; ++p) {
          if (!whens[p]->IsNull(i) && whens[p]->AsDouble(i) != 0.0) {
            FLOCK_RETURN_NOT_OK(out->AppendValue(thens[p]->GetValue(i)));
            matched = true;
            break;
          }
        }
        if (!matched) {
          if (else_col) {
            FLOCK_RETURN_NOT_OK(out->AppendValue(else_col->GetValue(i)));
          } else {
            out->AppendNull();
          }
        }
      }
      return out;
    }
    case ExprKind::kIn: {
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr needle,
          EvaluateExpr(*expr.children[0], input, registry, params));
      std::vector<ColumnVectorPtr> options;
      for (size_t c = 1; c < expr.children.size(); ++c) {
        FLOCK_ASSIGN_OR_RETURN(
            ColumnVectorPtr option,
            EvaluateExpr(*expr.children[c], input, registry, params));
        options.push_back(std::move(option));
      }
      auto out = std::make_shared<ColumnVector>(DataType::kBool);
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (needle->IsNull(i)) {
          out->AppendNull();
          continue;
        }
        Value v = needle->GetValue(i);
        bool found = false;
        for (const auto& option : options) {
          if (!option->IsNull(i) && v == option->GetValue(i)) {
            found = true;
            break;
          }
        }
        out->AppendBool(expr.negated ? !found : found);
      }
      return out;
    }
    case ExprKind::kBetween: {
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr v, EvaluateExpr(*expr.children[0], input,
                                          registry, params));
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr lo, EvaluateExpr(*expr.children[1], input,
                                           registry, params));
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr hi, EvaluateExpr(*expr.children[2], input,
                                           registry, params));
      auto out = std::make_shared<ColumnVector>(DataType::kBool);
      out->Reserve(n);
      bool strings = v->type() == DataType::kString;
      bool ints = v->type() == DataType::kInt64 &&
                  lo->type() == DataType::kInt64 &&
                  hi->type() == DataType::kInt64;
      for (size_t i = 0; i < n; ++i) {
        if (v->IsNull(i) || lo->IsNull(i) || hi->IsNull(i)) {
          out->AppendNull();
          continue;
        }
        bool in_range;
        if (strings) {
          const std::string& s = v->string_at(i);
          in_range = s >= lo->GetValue(i).ToString() &&
                     s <= hi->GetValue(i).ToString();
        } else if (ints) {
          const int64_t x = v->int_at(i);
          in_range = x >= lo->int_at(i) && x <= hi->int_at(i);
        } else {
          double d = v->AsDouble(i);
          in_range = d >= lo->AsDouble(i) && d <= hi->AsDouble(i);
        }
        out->AppendBool(expr.negated ? !in_range : in_range);
      }
      return out;
    }
    case ExprKind::kCast: {
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr operand,
          EvaluateExpr(*expr.children[0], input, registry, params));
      auto out = std::make_shared<ColumnVector>(expr.cast_type);
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (operand->IsNull(i)) {
          out->AppendNull();
          continue;
        }
        FLOCK_ASSIGN_OR_RETURN(Value cast,
                               operand->GetValue(i).CastTo(expr.cast_type));
        FLOCK_RETURN_NOT_OK(out->AppendValue(cast));
      }
      return out;
    }
    case ExprKind::kIsNull: {
      FLOCK_ASSIGN_OR_RETURN(
          ColumnVectorPtr operand,
          EvaluateExpr(*expr.children[0], input, registry, params));
      auto out = std::make_shared<ColumnVector>(DataType::kBool);
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        bool is_null = operand->IsNull(i);
        out->AppendBool(expr.negated ? !is_null : is_null);
      }
      return out;
    }
  }
  return Status::Internal("unhandled expression kind");
}

StatusOr<ColumnVectorPtr> NormalizeType(ColumnVectorPtr col, DataType want) {
  if (col->type() == want) return col;
  auto cast = std::make_shared<ColumnVector>(want);
  cast->Reserve(col->size());
  for (size_t r = 0; r < col->size(); ++r) {
    FLOCK_RETURN_NOT_OK(cast->AppendValue(col->GetValue(r)));
  }
  return ColumnVectorPtr(std::move(cast));
}

StatusOr<DataType> InferExprType(const Expr& expr,
                                 const storage::Schema& schema,
                                 const FunctionRegistry* registry) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal.is_null() ? DataType::kInt64 : expr.literal.type();
    case ExprKind::kColumnRef:
      if (expr.column_index >= 0 &&
          static_cast<size_t>(expr.column_index) < schema.num_columns()) {
        return schema.column(static_cast<size_t>(expr.column_index)).type;
      }
      return Status::Internal("unbound column in type inference: " +
                              expr.ToString());
    case ExprKind::kStar:
      return Status::Internal("cannot type '*'");
    case ExprKind::kBinary: {
      switch (expr.bin_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
        case BinaryOp::kLike:
          return DataType::kBool;
        default: {
          FLOCK_ASSIGN_OR_RETURN(
              DataType lhs,
              InferExprType(*expr.children[0], schema, registry));
          FLOCK_ASSIGN_OR_RETURN(
              DataType rhs,
              InferExprType(*expr.children[1], schema, registry));
          return ArithmeticResultType(expr.bin_op, lhs, rhs);
        }
      }
    }
    case ExprKind::kUnary:
      if (expr.un_op == UnaryOp::kNot) return DataType::kBool;
      return InferExprType(*expr.children[0], schema, registry);
    case ExprKind::kFunction: {
      const std::string& fn = expr.function_name;
      if (fn == "COUNT") return DataType::kInt64;
      if (fn == "SUM" && !expr.children.empty() &&
          expr.children[0]->kind != ExprKind::kStar) {
        // An INT64 sum stays exact: it fails with OutOfRange rather than
        // round.
        FLOCK_ASSIGN_OR_RETURN(
            DataType arg, InferExprType(*expr.children[0], schema, registry));
        return arg == DataType::kInt64 ? DataType::kInt64 : DataType::kDouble;
      }
      if (fn == "SUM" || fn == "AVG") return DataType::kDouble;
      if (fn == "MIN" || fn == "MAX") {
        if (expr.children.empty() ||
            expr.children[0]->kind == ExprKind::kStar) {
          return DataType::kDouble;
        }
        return InferExprType(*expr.children[0], schema, registry);
      }
      if (registry != nullptr && registry->Contains(fn)) {
        FLOCK_ASSIGN_OR_RETURN(const ScalarFunction* entry,
                               registry->Lookup(fn));
        // COALESCE's type follows its first argument.
        if (fn == "COALESCE" && !expr.children.empty()) {
          return InferExprType(*expr.children[0], schema, registry);
        }
        return entry->return_type;
      }
      return Status::NotFound("unknown function: " + fn);
    }
    case ExprKind::kCase:
      if (expr.children.size() >= 2) {
        return InferExprType(*expr.children[1], schema, registry);
      }
      return DataType::kInt64;
    case ExprKind::kIn:
    case ExprKind::kBetween:
    case ExprKind::kIsNull:
      return DataType::kBool;
    case ExprKind::kCast:
      return expr.cast_type;
  }
  return Status::Internal("unhandled kind in type inference");
}

StatusOr<const ScalarFunction*> EvaluateCallConstants(
    const Expr& call, const FunctionRegistry* registry,
    std::vector<ColumnVectorPtr>* args, const std::vector<Value>* params) {
  if (IsAggregateFunction(call.function_name)) {
    return Status::Internal("aggregate function reached scalar evaluator: " +
                            call.function_name);
  }
  if (registry == nullptr) {
    return Status::Internal("no function registry available");
  }
  FLOCK_ASSIGN_OR_RETURN(const ScalarFunction* fn,
                         registry->Lookup(call.function_name));
  if (call.children.size() < fn->min_args ||
      call.children.size() > fn->max_args) {
    return Status::InvalidArgument("wrong argument count for " +
                                   call.function_name);
  }
  args->clear();
  args->reserve(call.children.size());
  for (size_t i = 0; i < fn->constant_args && i < call.children.size(); ++i) {
    FLOCK_ASSIGN_OR_RETURN(Value value,
                           EvaluateConstant(*call.children[i], registry,
                                            params));
    auto col = std::make_shared<ColumnVector>(
        value.is_null() ? DataType::kInt64 : value.type());
    FLOCK_RETURN_NOT_OK(col->AppendValue(value));
    args->push_back(std::move(col));
  }
  return fn;
}

bool IsConstantExpr(const Expr& expr) {
  if (expr.kind == ExprKind::kColumnRef || expr.kind == ExprKind::kStar) {
    return false;
  }
  if (expr.kind == ExprKind::kFunction &&
      IsAggregateFunction(expr.function_name)) {
    return false;
  }
  for (const auto& c : expr.children) {
    if (c && !IsConstantExpr(*c)) return false;
  }
  return true;
}

StatusOr<Value> EvaluateConstant(const Expr& expr,
                                 const FunctionRegistry* registry,
                                 const std::vector<Value>* params) {
  if (!IsConstantExpr(expr)) {
    return Status::InvalidArgument("expression is not constant: " +
                                   expr.ToString());
  }
  // A batch with zero columns has zero rows; evaluate via a dummy column.
  storage::Schema schema(
      {storage::ColumnDef{"__dummy", DataType::kInt64, false}});
  RecordBatch batch(schema);
  FLOCK_RETURN_NOT_OK(batch.AppendRow({Value::Int(0)}));
  FLOCK_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                         EvaluateExpr(expr, batch, registry, params));
  if (col->size() != 1) return Status::Internal("constant eval row count");
  return col->GetValue(0);
}

}  // namespace flock::sql
