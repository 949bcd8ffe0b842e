#include "sql/predicate_program.h"

#include <utility>

#include "sql/evaluator.h"
#include "sql/optimizer.h"

namespace flock::sql {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;
using storage::RecordBatch;
using storage::Schema;
using storage::Value;

namespace {

/// Schema type of a bound, in-range column reference; false when `e` is
/// not one.
bool BoundColumnType(const Expr& e, const Schema& schema, DataType* type) {
  if (e.kind != ExprKind::kColumnRef || e.column_index < 0 ||
      static_cast<size_t>(e.column_index) >= schema.num_columns()) {
    return false;
  }
  *type = schema.column(static_cast<size_t>(e.column_index)).type;
  return true;
}

bool NonNullLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral && !e.literal.is_null();
}

/// True when EvaluateExpr can fail on an individual row of `e`: a CAST of
/// a malformed string, a CASE branch that does not coerce, a function
/// kernel's own checks.
bool CanFailPerRow(const Expr& e) {
  bool fallible = false;
  VisitExpr(e, [&](const Expr& node) {
    if (node.kind == ExprKind::kCast || node.kind == ExprKind::kCase ||
        node.kind == ExprKind::kFunction) {
      fallible = true;
    }
  });
  return fallible;
}

// --- Typed column readers -------------------------------------------------
// A numeric column reads as double at a physical row, exactly as
// ColumnVector::AsDouble does for a non-null entry. Kernels that compare a
// BIGINT column to BIGINT operands read its int64 values instead.

struct IntReader {
  const int64_t* v;
  double operator()(uint32_t p) const { return static_cast<double>(v[p]); }
};

struct DoubleReader {
  const double* v;
  double operator()(uint32_t p) const { return v[p]; }
};

struct BoolReader {
  const ColumnVector* col;
  double operator()(uint32_t p) const { return col->bool_at(p) ? 1.0 : 0.0; }
};

/// Calls `fn(reader)` with the reader for a numeric `col`.
template <typename Fn>
void WithNumericReader(const ColumnVector& col, Fn&& fn) {
  switch (col.type()) {
    case DataType::kInt64:
      fn(IntReader{col.ints().data()});
      return;
    case DataType::kDouble:
      fn(DoubleReader{col.doubles().data()});
      return;
    default:
      fn(BoolReader{&col});
      return;
  }
}

/// Narrows the candidate rows to those where `keep(physical_row)` holds.
/// Candidates are logical row indexes of `input`; `all` is the state before
/// any conjunct ran, when every logical row is a candidate. Physical rows
/// are read through the batch's own selection, never gathered.
template <typename Keep>
void Narrow(const RecordBatch& input, bool all, std::vector<uint32_t>* sel,
            Keep&& keep) {
  const uint32_t* base =
      input.has_selection() ? input.selection().data() : nullptr;
  size_t k = 0;
  if (all) {
    const auto n = static_cast<uint32_t>(input.num_rows());
    sel->resize(n);
    uint32_t* out = sel->data();
    if (base == nullptr) {
      for (uint32_t i = 0; i < n; ++i) {
        out[k] = i;
        k += keep(i) ? 1 : 0;
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        out[k] = i;
        k += keep(base[i]) ? 1 : 0;
      }
    }
  } else {
    uint32_t* rows = sel->data();
    const size_t n = sel->size();
    for (size_t j = 0; j < n; ++j) {
      const uint32_t l = rows[j];
      rows[k] = l;
      k += keep(base == nullptr ? l : base[l]) ? 1 : 0;
    }
  }
  sel->resize(k);
}

bool MaskTrue(const ColumnVector& mask, size_t i) {
  return !mask.IsNull(i) && mask.AsDouble(i) != 0.0;
}

template <typename T>
bool Contains(const std::vector<T>& list, const T& v) {
  for (const T& x : list) {
    if (x == v) return true;
  }
  return false;
}

/// Evaluates `expr` with EvaluateExpr and keeps the candidates where it is
/// TRUE. With `every_row` (or before any conjunct narrowed) it runs over
/// every input row, exactly the rows an unfiltered evaluation of the whole
/// predicate sees; otherwise over the surviving rows only.
Status NarrowByExpr(const Expr& expr, const RecordBatch& input,
                    const FunctionRegistry* registry,
                    const std::vector<Value>* params, bool every_row,
                    bool all, std::vector<uint32_t>* sel) {
  // Evaluated even when no row survives: type errors do not depend on the
  // row count.
  const bool over_input = all || every_row;
  FLOCK_ASSIGN_OR_RETURN(
      ColumnVectorPtr mask,
      over_input ? EvaluateExpr(expr, input, registry, params)
                 : EvaluateExpr(expr, input.SelectView(*sel), registry,
                                params));
  if (all) {
    sel->resize(input.num_rows());
    for (size_t i = 0; i < sel->size(); ++i) {
      (*sel)[i] = static_cast<uint32_t>(i);
    }
  }
  // The mask is indexed by logical input row, or by position in `sel`
  // when it was evaluated over the surviving rows.
  size_t k = 0;
  for (size_t j = 0; j < sel->size(); ++j) {
    const uint32_t l = (*sel)[j];
    if (MaskTrue(*mask, over_input ? l : j)) (*sel)[k++] = l;
  }
  sel->resize(k);
  return Status::OK();
}

}  // namespace

ConjunctShape ClassifyConjunct(const Expr& e, const Schema& schema) {
  ConjunctShape shape;
  DataType type = DataType::kInt64;
  switch (e.kind) {
    case ExprKind::kColumnRef:
      if (BoundColumnType(e, schema, &type) && type != DataType::kString) {
        shape.kind = ConjunctShape::Kind::kColumn;
        shape.column = e.column_index;
      }
      return shape;
    case ExprKind::kIsNull:
      if (BoundColumnType(*e.children[0], schema, &type)) {
        shape.kind = ConjunctShape::Kind::kIsNull;
        shape.column = e.children[0]->column_index;
        shape.negated = e.negated;
      }
      return shape;
    case ExprKind::kBetween:
      // EvaluateExpr reads the bounds as doubles against a numeric column
      // and as their string rendering against a string column, whatever
      // their own type; the kernel hoists the same readings.
      if (BoundColumnType(*e.children[0], schema, &type) &&
          NonNullLiteral(*e.children[1]) && NonNullLiteral(*e.children[2])) {
        shape.kind = ConjunctShape::Kind::kBetween;
        shape.column = e.children[0]->column_index;
        shape.negated = e.negated;
        shape.strings = type == DataType::kString;
        shape.literals = {e.children[1]->literal, e.children[2]->literal};
        shape.slots = {e.children[1]->param_slot, e.children[2]->param_slot};
      }
      return shape;
    case ExprKind::kIn: {
      if (!BoundColumnType(*e.children[0], schema, &type)) return shape;
      std::vector<Value> list;
      std::vector<int> slots;
      for (size_t c = 1; c < e.children.size(); ++c) {
        if (e.children[c]->kind != ExprKind::kLiteral) return shape;
        list.push_back(e.children[c]->literal);
        slots.push_back(e.children[c]->param_slot);
      }
      shape.kind = ConjunctShape::Kind::kIn;
      shape.column = e.children[0]->column_index;
      shape.negated = e.negated;
      shape.strings = type == DataType::kString;
      shape.literals = std::move(list);
      shape.slots = std::move(slots);
      return shape;
    }
    case ExprKind::kBinary: {
      if (!IsComparison(e.bin_op)) return shape;
      const Expr& a = *e.children[0];
      const Expr& b = *e.children[1];
      DataType ta = DataType::kInt64, tb = DataType::kInt64;
      const bool a_col = BoundColumnType(a, schema, &ta);
      const bool b_col = BoundColumnType(b, schema, &tb);
      if (a_col && b_col) {
        // Mixed string/number pairs keep EvaluateExpr's rendering and
        // type-error semantics.
        if ((ta == DataType::kString) != (tb == DataType::kString)) {
          return shape;
        }
        shape.kind = ConjunctShape::Kind::kCompareColumns;
        shape.column = a.column_index;
        shape.other_column = b.column_index;
        shape.op = e.bin_op;
        shape.strings = ta == DataType::kString;
        return shape;
      }
      if (a_col == b_col) return shape;
      const Expr& lit = a_col ? b : a;
      if (!NonNullLiteral(lit)) return shape;
      const bool col_string = (a_col ? ta : tb) == DataType::kString;
      if (col_string != (lit.literal.type() == DataType::kString)) {
        return shape;
      }
      shape.kind = ConjunctShape::Kind::kCompareLiteral;
      shape.column = (a_col ? a : b).column_index;
      shape.op = a_col ? e.bin_op : FlipComparison(e.bin_op);
      shape.strings = col_string;
      shape.literals = {lit.literal};
      shape.slots = {lit.param_slot};
      return shape;
    }
    default:
      return shape;
  }
}

// ---------------------------------------------------------------------------
// PredicateProgram
// ---------------------------------------------------------------------------

struct PredicateProgram::Conjunct {
  ConjunctShape shape;
  std::shared_ptr<const Expr> expr;  // the conjunct as written
  bool can_fail_per_row = false;     // residuals only
  bool has_slots = false;            // kernels: a literal has a slot
  // Literals hoisted once, in the form the kernel compares against.
  double lo = 0.0, hi = 0.0;       // BETWEEN bounds; compare literal in lo
  // The same when every literal is a BIGINT: a BIGINT column compares to
  // them exactly, as EvaluateExpr does.
  bool int_literals = false;
  int64_t int_lo = 0, int_hi = 0;
  std::string str_lo, str_hi;      // the same, string kernels
  std::vector<int64_t> in_ints;    // IN: BIGINT options, exact vs BIGINT
  std::vector<double> in_others;   // IN: DOUBLE/BOOL options as doubles
  std::vector<double> in_numbers;  // IN: every numeric option as double
  std::vector<std::string> in_strings;

  /// Hoists `lits`, the kernel's literals in shape order.
  void Hoist(const std::vector<Value>& lits) {
    switch (shape.kind) {
      case ConjunctShape::Kind::kCompareLiteral:
      case ConjunctShape::Kind::kBetween:
        // The readings EvaluateExpr takes of a literal column: its string
        // rendering against a string column, its double value otherwise.
        if (shape.strings) {
          str_lo = lits.front().ToString();
          str_hi = lits.back().ToString();
        } else {
          lo = lits.front().AsDouble();
          hi = lits.back().AsDouble();
          int_literals = lits.front().type() == DataType::kInt64 &&
                         lits.back().type() == DataType::kInt64;
          if (int_literals) {
            int_lo = lits.front().int_value();
            int_hi = lits.back().int_value();
          }
        }
        break;
      case ConjunctShape::Kind::kIn:
        // Value::operator== semantics: strings match strings only, BIGINT
        // matches BIGINT exactly, every other numeric pair as doubles; a
        // NULL option never matches.
        in_ints.clear();
        in_others.clear();
        in_numbers.clear();
        in_strings.clear();
        for (const Value& v : lits) {
          if (v.is_null()) continue;
          if (v.type() == DataType::kString) {
            in_strings.push_back(v.string_value());
            continue;
          }
          if (v.type() == DataType::kInt64) {
            in_ints.push_back(v.int_value());
          } else {
            in_others.push_back(v.AsDouble());
          }
          in_numbers.push_back(v.AsDouble());
        }
        break;
      default:
        break;
    }
  }
};

PredicateProgram::PredicateProgram(const Expr& predicate,
                                   const Schema& input_schema) {
  std::vector<Conjunct> residual;
  for (ExprPtr& e : SplitConjuncts(predicate.Clone())) {
    Conjunct c;
    c.shape = ClassifyConjunct(*e, input_schema);
    c.expr = std::move(e);
    if (c.shape.kind == ConjunctShape::Kind::kResidual) {
      c.can_fail_per_row = CanFailPerRow(*c.expr);
      residual.push_back(std::move(c));
      continue;
    }
    c.Hoist(c.shape.literals);
    for (int slot : c.shape.slots) c.has_slots |= slot >= 0;
    conjuncts_.push_back(std::move(c));
  }
  num_kernels_ = conjuncts_.size();
  num_residual_ = residual.size();
  for (Conjunct& c : residual) conjuncts_.push_back(std::move(c));
}

PredicateProgram::~PredicateProgram() = default;
PredicateProgram::PredicateProgram(const PredicateProgram&) = default;
PredicateProgram::PredicateProgram(PredicateProgram&&) noexcept = default;
PredicateProgram& PredicateProgram::operator=(PredicateProgram&&) noexcept =
    default;

std::optional<PredicateProgram> PredicateProgram::Bind(
    const std::vector<Value>& params) const {
  std::optional<PredicateProgram> bound;
  for (size_t k = 0; k < num_kernels_; ++k) {
    const Conjunct& c = conjuncts_[k];
    if (!c.has_slots) continue;
    if (!bound.has_value()) bound.emplace(*this);
    std::vector<Value> lits = c.shape.literals;
    for (size_t i = 0; i < lits.size(); ++i) {
      const int slot = c.shape.slots[i];
      if (slot >= 0 && static_cast<size_t>(slot) < params.size()) {
        lits[i] = params[static_cast<size_t>(slot)];
      }
    }
    bound->conjuncts_[k].Hoist(lits);
  }
  return bound;
}

bool PredicateProgram::RunKernel(const Conjunct& c, const RecordBatch& input,
                                 bool all, std::vector<uint32_t>* sel) {
  const ConjunctShape& s = c.shape;
  const size_t width = input.num_columns();
  if (s.kind == ConjunctShape::Kind::kResidual ||
      static_cast<size_t>(s.column) >= width) {
    return false;
  }
  const ColumnVector& col = *input.column(static_cast<size_t>(s.column));
  const bool is_string = col.type() == DataType::kString;
  auto valid = [&col](uint32_t p) { return !col.IsNull(p); };

  switch (s.kind) {
    case ConjunctShape::Kind::kColumn:
      if (is_string) return false;
      WithNumericReader(col, [&](auto read) {
        Narrow(input, all, sel,
               [&](uint32_t p) { return valid(p) & (read(p) != 0.0); });
      });
      return true;

    case ConjunctShape::Kind::kIsNull:
      Narrow(input, all, sel,
             [&](uint32_t p) { return col.IsNull(p) != s.negated; });
      return true;

    case ConjunctShape::Kind::kCompareLiteral:
      if (is_string != s.strings) return false;
      return DispatchComparison(s.op, [&](auto cmp) {
        constexpr BinaryOp kOp = decltype(cmp)::value;
        if (is_string) {
          Narrow(input, all, sel, [&](uint32_t p) {
            return valid(p) && Compare<kOp>(col.string_at(p), c.str_lo);
          });
          return;
        }
        if (c.int_literals && col.type() == DataType::kInt64) {
          const int64_t* ints = col.ints().data();
          const int64_t lit = c.int_lo;
          Narrow(input, all, sel, [&](uint32_t p) {
            return valid(p) & Compare<kOp>(ints[p], lit);
          });
          return;
        }
        const double lit = c.lo;
        WithNumericReader(col, [&](auto read) {
          Narrow(input, all, sel, [&](uint32_t p) {
            return valid(p) & Compare<kOp>(read(p), lit);
          });
        });
      });

    case ConjunctShape::Kind::kCompareColumns: {
      if (static_cast<size_t>(s.other_column) >= width) return false;
      const ColumnVector& other =
          *input.column(static_cast<size_t>(s.other_column));
      if (is_string != s.strings ||
          (other.type() == DataType::kString) != s.strings) {
        return false;
      }
      return DispatchComparison(s.op, [&](auto cmp) {
        constexpr BinaryOp kOp = decltype(cmp)::value;
        if (is_string) {
          Narrow(input, all, sel, [&](uint32_t p) {
            return valid(p) && !other.IsNull(p) &&
                   Compare<kOp>(col.string_at(p), other.string_at(p));
          });
          return;
        }
        if (col.type() == DataType::kInt64 &&
            other.type() == DataType::kInt64) {
          const int64_t* a = col.ints().data();
          const int64_t* b = other.ints().data();
          Narrow(input, all, sel, [&](uint32_t p) {
            return valid(p) & !other.IsNull(p) & Compare<kOp>(a[p], b[p]);
          });
          return;
        }
        WithNumericReader(col, [&](auto read_a) {
          WithNumericReader(other, [&](auto read_b) {
            Narrow(input, all, sel, [&](uint32_t p) {
              return valid(p) & !other.IsNull(p) &
                     Compare<kOp>(read_a(p), read_b(p));
            });
          });
        });
      });
    }

    case ConjunctShape::Kind::kBetween:
      if (is_string != s.strings) return false;
      if (is_string) {
        Narrow(input, all, sel, [&](uint32_t p) {
          if (!valid(p)) return false;
          const std::string& v = col.string_at(p);
          return (v >= c.str_lo && v <= c.str_hi) != s.negated;
        });
        return true;
      }
      if (c.int_literals && col.type() == DataType::kInt64) {
        const int64_t* ints = col.ints().data();
        const int64_t lo = c.int_lo, hi = c.int_hi;
        const bool negated = s.negated;
        Narrow(input, all, sel, [&](uint32_t p) {
          const int64_t v = ints[p];
          return valid(p) & (((v >= lo) & (v <= hi)) != negated);
        });
        return true;
      }
      WithNumericReader(col, [&](auto read) {
        const double lo = c.lo, hi = c.hi;
        const bool negated = s.negated;
        Narrow(input, all, sel, [&](uint32_t p) {
          const double v = read(p);
          return valid(p) & (((v >= lo) & (v <= hi)) != negated);
        });
      });
      return true;

    case ConjunctShape::Kind::kIn:
      if (is_string) {
        Narrow(input, all, sel, [&](uint32_t p) {
          return valid(p) &&
                 Contains(c.in_strings, col.string_at(p)) != s.negated;
        });
      } else if (col.type() == DataType::kInt64) {
        const int64_t* ints = col.ints().data();
        Narrow(input, all, sel, [&](uint32_t p) {
          if (!valid(p)) return false;
          const bool found =
              Contains(c.in_ints, ints[p]) ||
              Contains(c.in_others, static_cast<double>(ints[p]));
          return found != s.negated;
        });
      } else {
        WithNumericReader(col, [&](auto read) {
          Narrow(input, all, sel, [&](uint32_t p) {
            return valid(p) && Contains(c.in_numbers, read(p)) != s.negated;
          });
        });
      }
      return true;

    case ConjunctShape::Kind::kResidual:
      return false;
  }
  return false;
}

StatusOr<std::vector<uint32_t>> EvaluatePredicate(
    const PredicateProgram& program, const RecordBatch& input,
    const FunctionRegistry* registry, const std::vector<Value>* params) {
  std::vector<uint32_t> sel;
  bool all = true;
  // Kernels come first and cannot fail; residuals follow in the order
  // they were written, so the first failing one is the one an unfiltered
  // evaluation would have reported.
  for (const PredicateProgram::Conjunct& c : program.conjuncts_) {
    if (!PredicateProgram::RunKernel(c, input, all, &sel)) {
      FLOCK_RETURN_NOT_OK(NarrowByExpr(*c.expr, input, registry, params,
                                       c.can_fail_per_row, all, &sel));
    }
    all = false;  // SplitConjuncts yields at least one conjunct
  }
  return sel;
}

}  // namespace flock::sql
