// Focused unit tests for the vectorized expression evaluator (three-valued
// logic, numeric edge cases, casts), the compiled filter predicates checked
// against it, and the rule optimizer's rewrites.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "sql/engine.h"
#include "sql/evaluator.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/predicate_program.h"
#include "storage/database.h"

namespace flock::sql {
namespace {

using storage::ColumnDef;
using storage::ColumnVectorPtr;
using storage::DataType;
using storage::RecordBatch;
using storage::Schema;
using storage::Value;

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    FunctionRegistry::RegisterBuiltins(&registry_);
    schema_ = Schema({ColumnDef{"x", DataType::kInt64, true},
                      ColumnDef{"y", DataType::kDouble, true},
                      ColumnDef{"s", DataType::kString, true},
                      ColumnDef{"b", DataType::kBool, true}});
    batch_ = RecordBatch(schema_);
    // Row layout: x, y, s, b
    EXPECT_TRUE(batch_
                    .AppendRow({Value::Int(10), Value::Double(2.5),
                                Value::String("abc"), Value::Bool(true)})
                    .ok());
    EXPECT_TRUE(batch_
                    .AppendRow({Value::Null(), Value::Double(-1.0),
                                Value::String(""), Value::Bool(false)})
                    .ok());
    EXPECT_TRUE(batch_
                    .AppendRow({Value::Int(-3), Value::Null(),
                                Value::Null(), Value::Null()})
                    .ok());
  }

  /// Parses, binds against the fixture schema, evaluates.
  ColumnVectorPtr Eval(const std::string& text) {
    auto expr = Parser::ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << text;
    Planner planner(nullptr, &registry_);
    // Bind via the DML-style schema binder exposed through a trivial
    // planner path: reuse BindExprToSchema by planning is private, so
    // bind manually here.
    Status bad = Status::OK();
    VisitExprMutable(expr->get(), [&](Expr* e) {
      if (e->kind == ExprKind::kColumnRef && e->column_index < 0) {
        auto idx = schema_.FindColumn(e->column_name);
        if (!idx.has_value()) {
          bad = Status::NotFound(e->column_name);
          return;
        }
        e->column_index = static_cast<int>(*idx);
        e->resolved_type = schema_.column(*idx).type;
      }
    });
    EXPECT_TRUE(bad.ok()) << bad.ToString();
    auto col = EvaluateExpr(**expr, batch_, &registry_);
    EXPECT_TRUE(col.ok()) << text << ": " << col.status().ToString();
    return col.ok() ? *col : nullptr;
  }

  FunctionRegistry registry_;
  Schema schema_;
  RecordBatch batch_;
};

TEST_F(EvaluatorTest, ArithmeticTypePromotion) {
  auto col = Eval("x + 1");
  EXPECT_EQ(col->type(), DataType::kInt64);
  EXPECT_EQ(col->int_at(0), 11);
  auto mixed = Eval("x + y");
  EXPECT_EQ(mixed->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(mixed->double_at(0), 12.5);
}

TEST_F(EvaluatorTest, DivisionAlwaysDouble) {
  auto col = Eval("x / 4");
  EXPECT_EQ(col->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(col->double_at(0), 2.5);
}

TEST_F(EvaluatorTest, DivisionByZeroYieldsNull) {
  auto col = Eval("x / 0");
  EXPECT_TRUE(col->IsNull(0));
  auto mod = Eval("x % 0");
  EXPECT_TRUE(mod->IsNull(0));
}

TEST_F(EvaluatorTest, NullPropagatesThroughArithmetic) {
  auto col = Eval("x * 2");
  EXPECT_FALSE(col->IsNull(0));
  EXPECT_TRUE(col->IsNull(1));  // x is NULL in row 1
}

TEST_F(EvaluatorTest, KleeneAnd) {
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  auto false_and_null = Eval("FALSE AND (s IS NULL AND x > 999)");
  (void)false_and_null;
  auto a = Eval("b AND x IS NULL");
  // row0: b=true, x not null -> true AND false = false
  EXPECT_FALSE(a->IsNull(0));
  EXPECT_FALSE(a->bool_at(0));
  // row2: b NULL, x NOT null -> NULL AND false = false
  EXPECT_FALSE(a->IsNull(2));
  EXPECT_FALSE(a->bool_at(2));
  auto c = Eval("b AND y IS NULL");
  // row2: b NULL AND true -> NULL
  EXPECT_TRUE(c->IsNull(2));
}

TEST_F(EvaluatorTest, KleeneOr) {
  auto a = Eval("b OR y IS NULL");
  // row2: b=NULL, y IS NULL=true -> NULL OR true = true.
  EXPECT_FALSE(a->IsNull(2));
  EXPECT_TRUE(a->bool_at(2));
  auto c = Eval("b OR x IS NULL");
  // row1: b=false, x IS NULL=true -> true.
  EXPECT_TRUE(c->bool_at(1));
  // row2: b=NULL, x=-3 not null -> NULL OR false = NULL.
  EXPECT_TRUE(c->IsNull(2));
}

TEST_F(EvaluatorTest, ComparisonWithNullIsNull) {
  auto col = Eval("x > 0");
  EXPECT_TRUE(col->bool_at(0));
  EXPECT_TRUE(col->IsNull(1));
  EXPECT_FALSE(col->bool_at(2));
}

TEST_F(EvaluatorTest, StringOrderingComparison) {
  auto col = Eval("s < 'b'");
  EXPECT_TRUE(col->bool_at(0));   // "abc" < "b"
  EXPECT_TRUE(col->bool_at(1));   // "" < "b"
  EXPECT_TRUE(col->IsNull(2));
}

TEST_F(EvaluatorTest, MixedTypeOrderingRejected) {
  auto expr = Parser::ParseExpression("s > 5");
  ASSERT_TRUE(expr.ok());
  VisitExprMutable(expr->get(), [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      e->column_index = 2;
      e->resolved_type = DataType::kString;
    }
  });
  auto col = EvaluateExpr(**expr, batch_, &registry_);
  EXPECT_FALSE(col.ok());
}

TEST_F(EvaluatorTest, CaseWithoutElseYieldsNull) {
  auto col = Eval("CASE WHEN x > 5 THEN 1 END");
  EXPECT_EQ(col->int_at(0), 1);
  EXPECT_TRUE(col->IsNull(2));  // x=-3 matches nothing, no ELSE
}

TEST_F(EvaluatorTest, CoalescePicksFirstNonNull) {
  auto col = Eval("COALESCE(y, 99)");
  EXPECT_DOUBLE_EQ(col->double_at(0), 2.5);
  EXPECT_DOUBLE_EQ(col->double_at(2), 99.0);
}

TEST_F(EvaluatorTest, InWithNullNeedle) {
  auto col = Eval("x IN (10, -3)");
  EXPECT_TRUE(col->bool_at(0));
  EXPECT_TRUE(col->IsNull(1));  // NULL IN (...) -> NULL
  EXPECT_TRUE(col->bool_at(2));
}

TEST_F(EvaluatorTest, NotInNegates) {
  auto col = Eval("x NOT IN (10)");
  EXPECT_FALSE(col->bool_at(0));
  EXPECT_TRUE(col->bool_at(2));
}

TEST_F(EvaluatorTest, CastStringToNumberErrors) {
  auto expr = Parser::ParseExpression("CAST(s AS INT)");
  ASSERT_TRUE(expr.ok());
  VisitExprMutable(expr->get(), [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      e->column_index = 2;
      e->resolved_type = DataType::kString;
    }
  });
  auto col = EvaluateExpr(**expr, batch_, &registry_);
  EXPECT_FALSE(col.ok());  // "abc" is not a number
}

TEST_F(EvaluatorTest, BoolParticipatesInArithmetic) {
  auto col = Eval("b + 1");
  EXPECT_EQ(col->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(col->double_at(0), 2.0);
  EXPECT_DOUBLE_EQ(col->double_at(1), 1.0);
}

TEST_F(EvaluatorTest, ConstantEvaluation) {
  auto expr = Parser::ParseExpression("2 * (3 + 4)");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(IsConstantExpr(**expr));
  auto v = EvaluateConstant(**expr, &registry_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 14);
  auto with_col = Parser::ParseExpression("x + 1");
  EXPECT_FALSE(IsConstantExpr(**with_col));
}

// ---------------------------------------------------------------------------
// Compiled predicates vs. EvaluateExpr
// ---------------------------------------------------------------------------

/// Differential harness for PredicateProgram: over seeded random batches
/// (dense and selection views) with NULLs, NaN, +-0.0, BIGINTs around 2^53
/// and mixed-type columns, every program must select exactly the rows
/// where EvaluateExpr's mask of the whole predicate is TRUE, and fail with
/// the same Status whenever that evaluation fails.
class PredicateProgramDifferentialTest : public ::testing::Test {
 protected:
  PredicateProgramDifferentialTest() {
    FunctionRegistry::RegisterBuiltins(&registry_);
    schema_ = Schema({ColumnDef{"i", DataType::kInt64, true},
                      ColumnDef{"d", DataType::kDouble, true},
                      ColumnDef{"b", DataType::kBool, true},
                      ColumnDef{"s", DataType::kString, true},
                      ColumnDef{"i2", DataType::kInt64, true},
                      ColumnDef{"d2", DataType::kDouble, true},
                      ColumnDef{"s2", DataType::kString, true}});
  }

  RecordBatch RandomBatch(Random* rng, size_t rows) const {
    static constexpr int64_t kTwo53 = int64_t{1} << 53;
    const std::vector<int64_t> ints = {-3, -1, 0, 1, 2, 3, 7,
                                       kTwo53 - 1, kTwo53, kTwo53 + 1,
                                       -kTwo53};
    const std::vector<double> doubles = {
        std::numeric_limits<double>::quiet_NaN(),
        0.0, -0.0, 1.0, 1.5, -1.0, 2.0, 3.0, 9007199254740992.0,
        std::numeric_limits<double>::infinity()};
    const std::vector<std::string> strings = {"", "a", "ab", "abc", "b",
                                              "B", "1", "2.5", "x"};
    RecordBatch batch(schema_);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < schema_.num_columns(); ++c) {
        if (rng->Uniform(5) == 0) {
          row.push_back(Value::Null());
          continue;
        }
        switch (schema_.column(c).type) {
          case DataType::kInt64:
            row.push_back(Value::Int(ints[rng->Uniform(ints.size())]));
            break;
          case DataType::kDouble:
            row.push_back(
                Value::Double(doubles[rng->Uniform(doubles.size())]));
            break;
          case DataType::kBool:
            row.push_back(Value::Bool(rng->Uniform(2) == 0));
            break;
          case DataType::kString:
            row.push_back(
                Value::String(strings[rng->Uniform(strings.size())]));
            break;
        }
      }
      EXPECT_TRUE(batch.AppendRow(row).ok());
    }
    return batch;
  }

  /// A random ascending selection over `batch` (possibly empty).
  static RecordBatch RandomView(Random* rng, const RecordBatch& batch) {
    std::vector<uint32_t> sel;
    const uint64_t keep_one_in = 1 + rng->Uniform(4);
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      if (rng->Uniform(keep_one_in) == 0) {
        sel.push_back(static_cast<uint32_t>(r));
      }
    }
    return batch.SelectView(std::move(sel));
  }

  /// Parses, binds against the schema and folds constant subtrees the way
  /// the optimizer does before a predicate reaches lowering.
  ExprPtr Bind(const std::string& text) {
    auto parsed = Parser::ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    if (!parsed.ok()) return nullptr;
    ExprPtr expr = std::move(*parsed);
    VisitExprMutable(expr.get(), [&](Expr* e) {
      if (e->kind != ExprKind::kColumnRef) return;
      auto idx = schema_.FindColumn(e->column_name);
      ASSERT_TRUE(idx.has_value()) << e->column_name;
      e->column_index = static_cast<int>(*idx);
      e->resolved_type = schema_.column(*idx).type;
    });
    Fold(&expr);
    return expr;
  }

  void Fold(ExprPtr* e) {
    if ((*e)->kind != ExprKind::kLiteral && IsConstantExpr(**e)) {
      auto value = EvaluateConstant(**e, &registry_);
      if (value.ok()) {
        *e = Expr::MakeLiteral(*value);
        return;
      }
    }
    for (auto& child : (*e)->children) {
      if (child) Fold(&child);
    }
  }

  /// Checks one predicate on one batch against the EvaluateExpr oracle.
  void ExpectMatchesOracle(const Expr& predicate, const RecordBatch& input) {
    const PredicateProgram program(predicate, schema_);
    auto got = EvaluatePredicate(program, input, &registry_);
    auto mask = EvaluateExpr(predicate, input, &registry_);
    if (!mask.ok()) {
      ASSERT_FALSE(got.ok()) << predicate.ToString();
      EXPECT_EQ(got.status().ToString(), mask.status().ToString())
          << predicate.ToString();
      return;
    }
    ASSERT_TRUE(got.ok()) << predicate.ToString() << ": "
                          << got.status().ToString();
    std::vector<uint32_t> want;
    for (size_t r = 0; r < input.num_rows(); ++r) {
      if (!(*mask)->IsNull(r) && (*mask)->AsDouble(r) != 0.0) {
        want.push_back(static_cast<uint32_t>(r));
      }
    }
    EXPECT_EQ(*got, want) << predicate.ToString() << " over "
                          << input.num_rows() << " rows"
                          << (input.has_selection() ? " (view)" : "");
  }

  FunctionRegistry registry_;
  Schema schema_;
};

/// Conjuncts the program must run as kernels: every shape the classifier
/// recognises, over every column kind, literals on either side.
const std::vector<std::string>& KernelConjuncts() {
  static const std::vector<std::string> conjuncts = {
      "i = 2", "2 = i", "i <> 3", "i < 3", "i <= -1", "i > 1", "i >= 7",
      "3 > i", "-1 >= i", "i = 9007199254740993", "i > 9007199254740992",
      "i = 2.0", "i < 1.5", "i = TRUE", "d = 0", "d = -0.0", "d <> 1.5",
      "d >= -0.0", "d < 2", "1.5 < d", "d = CAST('nan' AS DOUBLE)",
      "d <> CAST('nan' AS DOUBLE)", "d < CAST('inf' AS DOUBLE)",
      "d = 9007199254740993", "b = TRUE", "b <> FALSE", "b > 0", "b < 0.5",
      "s = 'ab'", "s <> 'b'", "s < 'ab'", "'b' > s", "s >= 'a'", "s > ''",
      "i < i2", "i2 >= i", "i = d", "d > d2", "d2 <> i", "b = i", "s = s2",
      "s2 < s", "s >= s2", "i BETWEEN -1 AND 2",
      "i NOT BETWEEN 0 AND 3", "d BETWEEN -0.0 AND 1.5",
      "d NOT BETWEEN 0 AND 2", "i BETWEEN 1.5 AND 9007199254740992",
      "b BETWEEN 0 AND 0.5", "s BETWEEN 'a' AND 'b'",
      "s NOT BETWEEN 'ab' AND 'b'", "s BETWEEN 1 AND 2",
      "i BETWEEN 'a' AND 3", "i IN (1, 2, 9007199254740993)",
      "i IN (2.0, TRUE)", "i NOT IN (0, 1.0, 'x')", "i IN (NULL, 3)",
      "d IN (1.5, 0, -1)", "d NOT IN (2, CAST('nan' AS DOUBLE))",
      "b IN (TRUE, 2)", "b NOT IN (0)", "s IN ('a', 'abc', 1)",
      "s NOT IN ('', 'x')", "i IS NULL", "i IS NOT NULL", "d IS NULL",
      "s IS NOT NULL", "b IS NULL", "d", "b", "i",
  };
  return conjuncts;
}

/// Conjuncts the program must leave to EvaluateExpr.
const std::vector<std::string>& ResidualConjuncts() {
  static const std::vector<std::string> conjuncts = {
      "i + 1 > 2", "s LIKE 'a%'", "NOT (i = 1)", "(i = 1 OR d > 0)",
      "s = 1", "i <> 'x'", "s", "ABS(d) > 1", "CAST(i AS DOUBLE) > 0.5",
      "i = NULL", "d IN (d2, 1.5)", "i BETWEEN i2 AND 3",
      "CASE WHEN i > 0 THEN TRUE ELSE FALSE END", "i * 2 = i2",
      "COALESCE(i, 0) >= 0", "TRUE", "1 = 1",
  };
  return conjuncts;
}

TEST_F(PredicateProgramDifferentialTest, ClassifiesEveryKernelShape) {
  for (const std::string& text : KernelConjuncts()) {
    ExprPtr e = Bind(text);
    ASSERT_NE(e, nullptr);
    PredicateProgram program(*e, schema_);
    EXPECT_EQ(program.num_kernels(), 1u) << text;
    EXPECT_EQ(program.num_residual(), 0u) << text;
  }
  for (const std::string& text : ResidualConjuncts()) {
    ExprPtr e = Bind(text);
    ASSERT_NE(e, nullptr);
    PredicateProgram program(*e, schema_);
    EXPECT_EQ(program.num_kernels(), 0u) << text;
    EXPECT_EQ(program.num_residual(), 1u) << text;
  }
  ExprPtr range = Bind("i >= 1 AND i < 3 AND s LIKE 'a%'");
  PredicateProgram program(*range, schema_);
  EXPECT_EQ(program.num_kernels(), 2u);
  EXPECT_EQ(program.num_residual(), 1u);
}

TEST_F(PredicateProgramDifferentialTest, SingleConjunctsMatchEvaluateExpr) {
  Random rng(7);
  for (int round = 0; round < 4; ++round) {
    RecordBatch dense = RandomBatch(&rng, 257);
    RecordBatch view = RandomView(&rng, dense);
    for (const auto* list : {&KernelConjuncts(), &ResidualConjuncts()}) {
      for (const std::string& text : *list) {
        ExprPtr e = Bind(text);
        ASSERT_NE(e, nullptr);
        ExpectMatchesOracle(*e, dense);
        ExpectMatchesOracle(*e, view);
      }
    }
  }
}

TEST_F(PredicateProgramDifferentialTest, RandomConjunctionsMatchEvaluateExpr) {
  std::vector<std::string> atoms = KernelConjuncts();
  atoms.insert(atoms.end(), ResidualConjuncts().begin(),
               ResidualConjuncts().end());
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    RecordBatch dense = RandomBatch(&rng, 64 + rng.Uniform(200));
    RecordBatch view = RandomView(&rng, dense);
    for (int q = 0; q < 25; ++q) {
      // 2-5 atoms, grouped at random so SplitConjuncts sees left-deep,
      // right-deep and bushy AND trees.
      std::string text = atoms[rng.Uniform(atoms.size())];
      const uint64_t extra = 1 + rng.Uniform(4);
      for (uint64_t k = 0; k < extra; ++k) {
        const std::string& atom = atoms[rng.Uniform(atoms.size())];
        text = rng.Uniform(2) == 0 ? "(" + text + ") AND " + atom
                                   : atom + " AND (" + text + ")";
      }
      ExprPtr e = Bind(text);
      ASSERT_NE(e, nullptr);
      ExpectMatchesOracle(*e, dense);
      ExpectMatchesOracle(*e, view);
    }
  }
}

TEST_F(PredicateProgramDifferentialTest, FailingResidualKeepsItsStatus) {
  // `s` holds non-numeric strings, so CAST(s AS INT) fails on some row.
  // The kernels ahead of it may rule out every bad row (or every row);
  // the CAST still sees the rows an unfiltered evaluation sees and fails
  // the same way. A type error (string ordered against a number) fails
  // even when no row survives to reach it.
  const std::vector<std::string> predicates = {
      "CAST(s AS INT) > 0",
      "s = '1' AND CAST(s AS INT) > 0",
      "i = 12345 AND CAST(s AS INT) > 0",
      "CAST(s AS INT) > 0 AND i = 2",
      "CAST(s2 AS DOUBLE) > 0 AND i = 2 AND CAST(s AS INT) > 0",
      "i = 2 AND CAST(s AS INT) > 0 AND CAST(s2 AS DOUBLE) > 0",
      "i = 12345 AND s > 5",
      "s > 5 AND CAST(s AS INT) > 0",
      "CAST(s AS INT) > 0 AND s > 5",
      "(i = 1 OR CAST(s AS BIGINT) = 1) AND d > 0",
  };
  Random rng(99);
  RecordBatch dense = RandomBatch(&rng, 300);
  RecordBatch view = RandomView(&rng, dense);
  for (const std::string& text : predicates) {
    ExprPtr e = Bind(text);
    ASSERT_NE(e, nullptr);
    auto whole = EvaluateExpr(*e, dense, &registry_);
    EXPECT_FALSE(whole.ok()) << text << " should fail on this batch";
    ExpectMatchesOracle(*e, dense);
    ExpectMatchesOracle(*e, view);
  }
}

// ---------------------------------------------------------------------------
// Optimizer rewrites
// ---------------------------------------------------------------------------

class OptimizerRewriteTest : public ::testing::Test {
 protected:
  OptimizerRewriteTest() : engine_(&db_, MakeOptions()) {
    EXPECT_TRUE(engine_
                    .Execute("CREATE TABLE t (a INT, b DOUBLE, c VARCHAR)")
                    .ok());
    EXPECT_TRUE(engine_
                    .Execute("CREATE TABLE u (a2 INT, d DOUBLE)")
                    .ok());
  }

  static EngineOptions MakeOptions() {
    EngineOptions options;
    options.num_threads = 1;
    return options;
  }

  std::string Plan(const std::string& sql) {
    auto result = engine_.Execute("EXPLAIN " + sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->plan_text : "";
  }

  storage::Database db_;
  SqlEngine engine_;
};

TEST_F(OptimizerRewriteTest, ConstantFoldingInPredicate) {
  std::string plan = Plan("SELECT a FROM t WHERE a > 2 + 3");
  EXPECT_NE(plan.find("(a > 5)"), std::string::npos) << plan;
}

TEST_F(OptimizerRewriteTest, FilterMergesThroughProjection) {
  // The WHERE references a projected alias source column; the filter
  // lands below the projection directly over the scan.
  std::string plan = Plan("SELECT a + 1 AS a1 FROM t WHERE a > 3");
  size_t filter_pos = plan.find("Filter");
  size_t project_pos = plan.find("Project");
  ASSERT_NE(filter_pos, std::string::npos);
  ASSERT_NE(project_pos, std::string::npos);
  EXPECT_GT(filter_pos, project_pos) << plan;
}

TEST_F(OptimizerRewriteTest, JoinPredicatePushdownSplitsSides) {
  std::string plan = Plan(
      "SELECT t.a FROM t JOIN u ON t.a = u.a2 "
      "WHERE t.b > 1 AND u.d < 5");
  // Both single-side conjuncts sink below the join: two filters, each
  // directly above its scan.
  EXPECT_NE(plan.find("Filter((t.b > 1"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter((u.d < 5"), std::string::npos) << plan;
}

TEST_F(OptimizerRewriteTest, ScanNarrowedToUsedColumns) {
  std::string plan = Plan("SELECT a FROM t WHERE b > 0");
  EXPECT_NE(plan.find("cols=[a,b]"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("c]"), std::string::npos) << plan;
}

TEST_F(OptimizerRewriteTest, SplitAndCombineConjuncts) {
  auto expr = Parser::ParseExpression("a > 1 AND b < 2 AND c = 'x'");
  ASSERT_TRUE(expr.ok());
  auto conjuncts = SplitConjuncts(std::move(*expr));
  EXPECT_EQ(conjuncts.size(), 3u);
  ExprPtr combined = CombineConjuncts(std::move(conjuncts));
  auto reparsed =
      Parser::ParseExpression("a > 1 AND b < 2 AND c = 'x'");
  EXPECT_TRUE(combined->Equals(**reparsed));
}

TEST_F(OptimizerRewriteTest, EmptyConjunctsBecomeTrue) {
  ExprPtr combined = CombineConjuncts({});
  EXPECT_EQ(combined->kind, ExprKind::kLiteral);
  EXPECT_TRUE(combined->literal.bool_value());
}

}  // namespace
}  // namespace flock::sql
