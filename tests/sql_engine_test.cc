#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/cancel.h"
#include "common/string_util.h"
#include "sql/engine.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace flock::sql {
namespace {

using storage::DataType;
using storage::Database;
using storage::Value;

class SqlEngineTest : public ::testing::Test {
 protected:
  SqlEngineTest() : engine_(&db_, MakeOptions()) {
    Exec("CREATE TABLE emp (id INT, name VARCHAR, dept VARCHAR, "
         "salary DOUBLE, age INT)");
    Exec("INSERT INTO emp VALUES "
         "(1, 'alice', 'eng', 120.0, 34), "
         "(2, 'bob', 'eng', 95.5, 28), "
         "(3, 'carol', 'sales', 80.0, 45), "
         "(4, 'dave', 'sales', 85.0, 31), "
         "(5, 'erin', 'hr', 60.0, 52), "
         "(6, 'frank', 'eng', NULL, 23)");
  }

  static EngineOptions MakeOptions() {
    EngineOptions options;
    options.num_threads = 2;
    return options;
  }

  QueryResult Exec(const std::string& sql) {
    auto result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  Database db_;
  SqlEngine engine_;
};

TEST_F(SqlEngineTest, SelectStar) {
  auto r = Exec("SELECT * FROM emp");
  EXPECT_EQ(r.batch.num_rows(), 6u);
  EXPECT_EQ(r.batch.num_columns(), 5u);
}

TEST_F(SqlEngineTest, SelectWithWhere) {
  auto r = Exec("SELECT name FROM emp WHERE dept = 'eng' AND salary > 100");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  EXPECT_EQ(r.batch.column(0)->string_at(0), "alice");
}

TEST_F(SqlEngineTest, NullComparisonRejectsRow) {
  // frank has NULL salary; NULL > 10 is unknown, row filtered out.
  auto r = Exec("SELECT name FROM emp WHERE salary > 10");
  EXPECT_EQ(r.batch.num_rows(), 5u);
}

TEST_F(SqlEngineTest, IsNullPredicate) {
  auto r = Exec("SELECT name FROM emp WHERE salary IS NULL");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  EXPECT_EQ(r.batch.column(0)->string_at(0), "frank");
  auto r2 = Exec("SELECT COUNT(*) FROM emp WHERE salary IS NOT NULL");
  EXPECT_EQ(r2.batch.column(0)->int_at(0), 5);
}

TEST_F(SqlEngineTest, ArithmeticProjection) {
  auto r = Exec("SELECT salary * 2 + 1 AS s2 FROM emp WHERE id = 1");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(r.batch.column(0)->double_at(0), 241.0);
  EXPECT_EQ(r.batch.schema().column(0).name, "s2");
}

TEST_F(SqlEngineTest, IntegerDivisionIsDouble) {
  auto r = Exec("SELECT 7 / 2");
  EXPECT_DOUBLE_EQ(r.batch.column(0)->double_at(0), 3.5);
}

TEST_F(SqlEngineTest, OrderByDesc) {
  auto r = Exec("SELECT name FROM emp WHERE salary IS NOT NULL "
                "ORDER BY salary DESC");
  ASSERT_EQ(r.batch.num_rows(), 5u);
  EXPECT_EQ(r.batch.column(0)->string_at(0), "alice");
  EXPECT_EQ(r.batch.column(0)->string_at(4), "erin");
}

TEST_F(SqlEngineTest, OrderByMultipleKeys) {
  auto r = Exec("SELECT name, dept FROM emp ORDER BY dept ASC, name DESC");
  ASSERT_EQ(r.batch.num_rows(), 6u);
  EXPECT_EQ(r.batch.column(0)->string_at(0), "frank");  // eng, desc name
}

TEST_F(SqlEngineTest, LimitOffset) {
  auto r = Exec("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 3");
  ASSERT_EQ(r.batch.num_rows(), 2u);
  EXPECT_EQ(r.batch.column(0)->int_at(0), 4);
  EXPECT_EQ(r.batch.column(0)->int_at(1), 5);
}

TEST_F(SqlEngineTest, GroupByWithAggregates) {
  auto r = Exec("SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal "
                "FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_EQ(r.batch.num_rows(), 3u);
  // eng: alice, bob, frank (frank's NULL salary excluded from AVG).
  EXPECT_EQ(r.batch.column(0)->string_at(0), "eng");
  EXPECT_EQ(r.batch.column(1)->int_at(0), 3);
  EXPECT_NEAR(r.batch.column(2)->double_at(0), (120.0 + 95.5) / 2, 1e-9);
}

TEST_F(SqlEngineTest, GlobalAggregateOverEmptyResult) {
  auto r = Exec("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  EXPECT_EQ(r.batch.column(0)->int_at(0), 0);
  EXPECT_TRUE(r.batch.column(1)->IsNull(0));
}

TEST_F(SqlEngineTest, HavingFiltersGroups) {
  auto r = Exec("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept "
                "HAVING COUNT(*) > 1 ORDER BY dept");
  ASSERT_EQ(r.batch.num_rows(), 2u);
  EXPECT_EQ(r.batch.column(0)->string_at(0), "eng");
  EXPECT_EQ(r.batch.column(0)->string_at(1), "sales");
}

TEST_F(SqlEngineTest, MinMaxAggregates) {
  auto r = Exec("SELECT MIN(age), MAX(age) FROM emp");
  EXPECT_EQ(r.batch.column(0)->int_at(0), 23);
  EXPECT_EQ(r.batch.column(1)->int_at(0), 52);
}

TEST_F(SqlEngineTest, SelectDistinct) {
  auto r = Exec("SELECT DISTINCT dept FROM emp ORDER BY dept");
  ASSERT_EQ(r.batch.num_rows(), 3u);
}

TEST_F(SqlEngineTest, LikeOperator) {
  auto r = Exec("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY id");
  // alice, carol, dave, frank
  ASSERT_EQ(r.batch.num_rows(), 4u);
  auto r2 = Exec("SELECT name FROM emp WHERE name LIKE '_ob'");
  ASSERT_EQ(r2.batch.num_rows(), 1u);
  EXPECT_EQ(r2.batch.column(0)->string_at(0), "bob");
}

TEST_F(SqlEngineTest, InAndBetween) {
  auto r = Exec("SELECT COUNT(*) FROM emp WHERE dept IN ('eng', 'hr')");
  EXPECT_EQ(r.batch.column(0)->int_at(0), 4);
  auto r2 = Exec("SELECT COUNT(*) FROM emp WHERE age BETWEEN 30 AND 50");
  EXPECT_EQ(r2.batch.column(0)->int_at(0), 3);
  auto r3 = Exec("SELECT COUNT(*) FROM emp WHERE age NOT BETWEEN 30 AND 50");
  EXPECT_EQ(r3.batch.column(0)->int_at(0), 3);
}

TEST_F(SqlEngineTest, CaseExpression) {
  auto r = Exec("SELECT name, CASE WHEN age < 30 THEN 'young' "
                "WHEN age < 50 THEN 'mid' ELSE 'senior' END AS bucket "
                "FROM emp ORDER BY id");
  EXPECT_EQ(r.batch.column(1)->string_at(0), "mid");     // alice 34
  EXPECT_EQ(r.batch.column(1)->string_at(1), "young");   // bob 28
  EXPECT_EQ(r.batch.column(1)->string_at(4), "senior");  // erin 52
}

TEST_F(SqlEngineTest, CastExpression) {
  auto r = Exec("SELECT CAST(salary AS INT) FROM emp WHERE id = 2");
  EXPECT_EQ(r.batch.column(0)->int_at(0), 96);  // 95.5 rounds
}

TEST_F(SqlEngineTest, ScalarFunctions) {
  auto r = Exec("SELECT ABS(-3.5), UPPER('abc'), LENGTH('hello')");
  EXPECT_DOUBLE_EQ(r.batch.column(0)->double_at(0), 3.5);
  EXPECT_EQ(r.batch.column(1)->string_at(0), "ABC");
  EXPECT_EQ(r.batch.column(2)->int_at(0), 5);
}

TEST_F(SqlEngineTest, InnerJoin) {
  Exec("CREATE TABLE dept (dname VARCHAR, floor INT)");
  Exec("INSERT INTO dept VALUES ('eng', 4), ('sales', 2)");
  auto r = Exec(
      "SELECT e.name, d.floor FROM emp e JOIN dept d ON e.dept = d.dname "
      "ORDER BY e.id");
  ASSERT_EQ(r.batch.num_rows(), 5u);  // hr has no dept row
  EXPECT_EQ(r.batch.column(1)->int_at(0), 4);
}

TEST_F(SqlEngineTest, LeftJoinPadsNulls) {
  Exec("CREATE TABLE dept2 (dname VARCHAR, floor INT)");
  Exec("INSERT INTO dept2 VALUES ('eng', 4)");
  auto r = Exec(
      "SELECT e.name, d.floor FROM emp e LEFT JOIN dept2 d "
      "ON e.dept = d.dname ORDER BY e.id");
  ASSERT_EQ(r.batch.num_rows(), 6u);
  EXPECT_FALSE(r.batch.column(1)->IsNull(0));  // alice/eng
  EXPECT_TRUE(r.batch.column(1)->IsNull(2));   // carol/sales
}

TEST_F(SqlEngineTest, JoinWithGroupBy) {
  Exec("CREATE TABLE dept3 (dname VARCHAR, floor INT)");
  Exec("INSERT INTO dept3 VALUES ('eng', 4), ('sales', 2), ('hr', 1)");
  auto r = Exec(
      "SELECT d.floor, COUNT(*) AS n FROM emp e "
      "JOIN dept3 d ON e.dept = d.dname GROUP BY d.floor ORDER BY d.floor");
  ASSERT_EQ(r.batch.num_rows(), 3u);
  EXPECT_EQ(r.batch.column(0)->int_at(2), 4);
  EXPECT_EQ(r.batch.column(1)->int_at(2), 3);
}

TEST_F(SqlEngineTest, CrossJoinCardinality) {
  Exec("CREATE TABLE two (x INT)");
  Exec("INSERT INTO two VALUES (1), (2)");
  auto r = Exec("SELECT COUNT(*) FROM emp CROSS JOIN two");
  EXPECT_EQ(r.batch.column(0)->int_at(0), 12);
}

TEST_F(SqlEngineTest, UpdateWithWhere) {
  auto r = Exec("UPDATE emp SET salary = salary + 10 WHERE dept = 'eng' "
                "AND salary IS NOT NULL");
  EXPECT_EQ(r.rows_affected, 2u);
  auto check = Exec("SELECT salary FROM emp WHERE id = 1");
  EXPECT_DOUBLE_EQ(check.batch.column(0)->double_at(0), 130.0);
}

TEST_F(SqlEngineTest, DeleteWithWhere) {
  auto r = Exec("DELETE FROM emp WHERE age > 40");
  EXPECT_EQ(r.rows_affected, 2u);
  auto check = Exec("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(check.batch.column(0)->int_at(0), 4);
}

TEST_F(SqlEngineTest, DmlQualifierMustNameTheTable) {
  Exec("CREATE TABLE t2 (x INT, y INT)");
  Exec("INSERT INTO t2 VALUES (10, 1), (20, 2)");
  for (const char* sql : {"UPDATE t2 SET x = 99 WHERE nosuch.x = 20",
                          "UPDATE t2 SET x = nosuch.y WHERE x = 20",
                          "UPDATE t2 SET y = 7, x = nosuch.y",
                          "DELETE FROM t2 WHERE nosuch.x = 20"}) {
    auto result = engine_.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound) << sql;
  }
  auto rows = Exec("SELECT x, y FROM t2 ORDER BY x");
  ASSERT_EQ(rows.batch.num_rows(), 2u);
  EXPECT_EQ(rows.batch.column(0)->int_at(0), 10);
  EXPECT_EQ(rows.batch.column(0)->int_at(1), 20);
  EXPECT_EQ(rows.batch.column(1)->int_at(0), 1);
  EXPECT_EQ(rows.batch.column(1)->int_at(1), 2);
  // The table's own name qualifies, in any case.
  EXPECT_EQ(Exec("UPDATE t2 SET x = T2.y + 90 WHERE t2.x = 20")
                .rows_affected,
            1u);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t2 WHERE x = 92")
                .batch.column(0)
                ->int_at(0),
            1);
  EXPECT_EQ(Exec("DELETE FROM t2 WHERE t2.y = 1").rows_affected, 1u);
}

TEST_F(SqlEngineTest, InsertSelect) {
  Exec("CREATE TABLE names (n VARCHAR)");
  auto r = Exec("INSERT INTO names SELECT name FROM emp WHERE dept = 'eng'");
  EXPECT_EQ(r.rows_affected, 3u);
}

TEST_F(SqlEngineTest, InsertColumnSubsetPadsNull) {
  Exec("INSERT INTO emp (id, name) VALUES (7, 'gus')");
  auto r = Exec("SELECT dept FROM emp WHERE id = 7");
  EXPECT_TRUE(r.batch.column(0)->IsNull(0));
}

TEST_F(SqlEngineTest, ExplainShowsPlan) {
  auto r = Exec("EXPLAIN SELECT name FROM emp WHERE salary > 100");
  EXPECT_NE(r.plan_text.find("Scan(emp"), std::string::npos);
  EXPECT_NE(r.plan_text.find("Filter"), std::string::npos);
}

TEST_F(SqlEngineTest, ProjectionPruningNarrowsScan) {
  auto r = Exec("EXPLAIN SELECT name FROM emp WHERE salary > 100");
  // Scan should list only name+salary after pruning.
  EXPECT_NE(r.plan_text.find("cols=[name,salary]"), std::string::npos)
      << r.plan_text;
}

TEST_F(SqlEngineTest, ExplainShowsPhysicalPlan) {
  auto r = Exec("EXPLAIN SELECT name FROM emp WHERE salary > 100");
  EXPECT_NE(r.plan_text.find("== Physical Plan =="), std::string::npos)
      << r.plan_text;
  EXPECT_NE(r.plan_text.find("TableScan(emp"), std::string::npos)
      << r.plan_text;
  EXPECT_NE(r.plan_text.find("width="), std::string::npos) << r.plan_text;
  // Plain EXPLAIN does not execute, so no timings appear.
  EXPECT_EQ(r.plan_text.find("time="), std::string::npos) << r.plan_text;
}

TEST_F(SqlEngineTest, ExplainShowsJoinAndAggregateOperators) {
  Exec("CREATE TABLE dept_info (dept VARCHAR, floor INT)");
  auto r = Exec(
      "EXPLAIN SELECT emp.dept, COUNT(*) FROM emp "
      "JOIN dept_info ON emp.dept = dept_info.dept GROUP BY emp.dept");
  EXPECT_NE(r.plan_text.find("HashJoinProbe"), std::string::npos)
      << r.plan_text;
  EXPECT_NE(r.plan_text.find("HashJoinBuild"), std::string::npos)
      << r.plan_text;
  EXPECT_NE(r.plan_text.find("HashAggregate"), std::string::npos)
      << r.plan_text;
}

TEST_F(SqlEngineTest, ExplainAnalyzeReportsOperatorMetrics) {
  auto r = Exec("EXPLAIN ANALYZE SELECT name FROM emp WHERE salary > 100");
  // ANALYZE executes the plan and annotates operators with row counts and
  // wall time.
  EXPECT_NE(r.plan_text.find("time="), std::string::npos) << r.plan_text;
  EXPECT_NE(r.plan_text.find("in="), std::string::npos) << r.plan_text;
  EXPECT_NE(r.plan_text.find("out="), std::string::npos) << r.plan_text;
  ASSERT_FALSE(r.operator_metrics.empty());
  // The scan (last snapshot, deepest operator) read all 6 emp rows.
  const auto& scan = r.operator_metrics.back();
  EXPECT_EQ(scan.rows_in, 6u);
}

TEST_F(SqlEngineTest, ExplainAnalyzeReportsFilterKernelSplit) {
  // Two conjuncts compile to typed kernels, the LIKE stays residual; the
  // plain Filter(...) label is unchanged.
  auto r = Exec(
      "EXPLAIN ANALYZE SELECT name FROM emp "
      "WHERE salary > 100 AND 200 >= salary AND name LIKE 'a%'");
  EXPECT_NE(r.plan_text.find("Filter("), std::string::npos) << r.plan_text;
  EXPECT_NE(r.plan_text.find(" kernels=2 residual=1]"), std::string::npos)
      << r.plan_text;
  auto plain = Exec("EXPLAIN SELECT name FROM emp WHERE salary > 100");
  EXPECT_EQ(plain.plan_text.find("kernels="), std::string::npos)
      << plain.plan_text;
}

TEST_F(SqlEngineTest, SelectSurfacesOperatorMetrics) {
  auto r = Exec("SELECT name FROM emp WHERE salary > 100");
  ASSERT_FALSE(r.operator_metrics.empty());
  uint64_t total_out = 0;
  for (const auto& m : r.operator_metrics) total_out += m.rows_out;
  EXPECT_GT(total_out, 0u);
  // Root operator emits exactly the result rows.
  EXPECT_EQ(r.operator_metrics.front().rows_out, r.batch.num_rows());
}

TEST_F(SqlEngineTest, ErrorsSurfaceAsStatus) {
  EXPECT_EQ(engine_.Execute("SELECT nope FROM emp").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.Execute("SELECT * FROM missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.Execute("SELEC 1").status().code(),
            StatusCode::kParseError);
}

TEST_F(SqlEngineTest, AmbiguousColumnRejected) {
  Exec("CREATE TABLE e2 (id INT, v INT)");
  Exec("INSERT INTO e2 VALUES (1, 10)");
  auto bad = engine_.Execute(
      "SELECT id FROM emp JOIN e2 ON emp.id = e2.id");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlEngineTest, SelectWithoutFrom) {
  auto r = Exec("SELECT 1 + 2 AS three, 'x'");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  EXPECT_EQ(r.batch.column(0)->int_at(0), 3);
  EXPECT_EQ(r.batch.column(1)->string_at(0), "x");
}

TEST_F(SqlEngineTest, ParallelMatchesSerialOnLargeScan) {
  Exec("CREATE TABLE big (k INT, v DOUBLE)");
  // Insert 10,000 rows via batched INSERTs.
  for (int chunk = 0; chunk < 10; ++chunk) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = 0; i < 1000; ++i) {
      int id = chunk * 1000 + i;
      if (i > 0) sql += ", ";
      sql += StrCat("(", std::to_string(id)) + ", " +
             std::to_string((id * 37) % 1000) + ".5)";
    }
    Exec(sql);
  }
  auto parallel = Exec("SELECT COUNT(*), SUM(v) FROM big WHERE v > 250");
  engine_.set_num_threads(1);
  auto serial = Exec("SELECT COUNT(*), SUM(v) FROM big WHERE v > 250");
  EXPECT_EQ(parallel.batch.column(0)->int_at(0),
            serial.batch.column(0)->int_at(0));
  EXPECT_DOUBLE_EQ(parallel.batch.column(1)->double_at(0),
                   serial.batch.column(1)->double_at(0));
}

// --- parser-level checks -------------------------------------------------

TEST(ParserTest, PredictParsesAsFunction) {
  auto stmt = Parser::Parse(
      "SELECT PREDICT(churn_model, age, salary) FROM emp");
  ASSERT_TRUE(stmt.ok());
  const auto& select = static_cast<const SelectStatement&>(**stmt);
  ASSERT_EQ(select.select_list.size(), 1u);
  const Expr& e = *select.select_list[0].expr;
  EXPECT_EQ(e.kind, ExprKind::kFunction);
  EXPECT_EQ(e.function_name, "PREDICT");
  EXPECT_EQ(e.children.size(), 3u);
}

TEST(ParserTest, CreateModelStatement) {
  auto stmt = Parser::Parse("CREATE MODEL m FROM 'pipeline v1'");
  ASSERT_TRUE(stmt.ok());
  const auto& create = static_cast<const CreateModelStatement&>(**stmt);
  EXPECT_EQ(create.model_name, "m");
  EXPECT_EQ(create.definition, "pipeline v1");
}

TEST(ParserTest, StringEscapes) {
  auto e = Parser::ParseExpression("'it''s'");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->literal.string_value(), "it's");
}

TEST(ParserTest, CommentsSkipped) {
  auto stmt = Parser::Parse("SELECT 1 -- trailing comment\n");
  EXPECT_TRUE(stmt.ok());
}

TEST(PlanCacheTest, NormalizeSqlCollapsesLayoutAndCase) {
  EXPECT_EQ(NormalizeSql("  SELECT  id\n\tFROM emp ; "),
            "select id from emp");
  EXPECT_EQ(NormalizeSql("SELECT id FROM EMP"),
            NormalizeSql("select id from emp"));
  // A string literal is a slot; its text, case and inner spacing kept, is
  // the slot's parameter.
  EXPECT_EQ(NormalizeSql("SELECT 'It  IS' FROM emp"), "select ?s from emp");
  EXPECT_EQ(LexStatement("SELECT 'It  IS' FROM emp")->params,
            std::vector<Value>{Value::String("It  IS")});
  // Different literals share the shape and differ in parameters.
  EXPECT_EQ(NormalizeSql("SELECT * FROM emp WHERE name = 'a'"),
            NormalizeSql("SELECT * FROM emp WHERE name = 'b'"));
}

TEST(LexStatementTest, LiteralsBecomeTypedSlots) {
  auto lexed = LexStatement(
      "SELECT x FROM t WHERE id=5 AND y = 5.0 AND s = 'a''b' AND z IN "
      "(1, 2.5e1) LIMIT 10");
  ASSERT_TRUE(lexed.ok()) << lexed.status().ToString();
  EXPECT_EQ(lexed->key,
            "select x from t where id=?i and y = ?d and s = ?s and z in "
            "(?i, ?d) limit ?i");
  const std::vector<Value> params = {Value::Int(5),      Value::Double(5.0),
                                     Value::String("a'b"), Value::Int(1),
                                     Value::Double(25.0), Value::Int(10)};
  EXPECT_EQ(lexed->params, params);
  for (const Token& token : lexed->tokens) {
    if (token.type == TokenType::kNumber ||
        token.type == TokenType::kString) {
      EXPECT_EQ(lexed->params[token.slot].ToString(),
                token.type == TokenType::kString
                    ? token.text
                    : params[token.slot].ToString());
    }
  }
  // An IN list of another length is another shape.
  EXPECT_NE(NormalizeSql("SELECT x FROM t WHERE z IN (1, 2)"),
            NormalizeSql("SELECT x FROM t WHERE z IN (1, 2, 3)"));
  // Integers are exact; one beyond BIGINT is a DOUBLE.
  auto big = LexStatement("SELECT 9007199254740993, 9223372036854775808");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->key, "select ?i, ?d");
  EXPECT_EQ(big->params[0].int_value(), 9007199254740993LL);
  EXPECT_EQ(big->params[1].double_value(), 9223372036854775808.0);
  // A script numbers each statement's slots from 0.
  auto script = LexScript("SELECT 1, 'x'; SELECT 2");
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(script->size(), 2u);
  EXPECT_EQ((*script)[1].key, "select ?i");
  EXPECT_EQ((*script)[1].tokens[1].slot, 0u);
  EXPECT_EQ((*script)[1].params, std::vector<Value>{Value::Int(2)});
}

TEST(LexStatementTest, KeyJoinsTokenTextsAtTheirSourceBoundaries) {
  auto lexed = LexStatement("SELECT  COUNT(*)\nFROM Emp -- hot\n;");
  ASSERT_TRUE(lexed.ok()) << lexed.status().ToString();
  EXPECT_EQ(lexed->key, "select count(*) from emp");
  // A quoted identifier is one token: `--` inside it is no comment.
  EXPECT_EQ(NormalizeSql("SELECT \"a--b\" FROM t1"),
            "select \"a--b\" from t1");
  EXPECT_NE(NormalizeSql("SELECT \"a--b\" FROM t1"),
            NormalizeSql("SELECT \"a--b\" FROM t2"));
  // Text that does not lex has no key.
  EXPECT_EQ(NormalizeSql("SELECT 'unterminated FROM t"), "");
  EXPECT_EQ(LexStatement("SELECT 'unterminated FROM t").status().code(),
            StatusCode::kParseError);
}

TEST(LexStatementTest, StatementClassComesFromTheFirstTokens) {
  const struct {
    const char* sql;
    bool read_only;
    bool explain_analyze;
  } kCases[] = {
      {"SELECT 1", true, false},
      {"-- note\nSELECT 1", true, false},
      {"  explain analyze SELECT 1", true, true},
      {"-- why slow?\nEXPLAIN -- really\nANALYZE SELECT 1", true, true},
      {"EXPLAIN SELECT 1", true, false},
      {"INSERT INTO t VALUES (1)", false, false},
      {"-- SELECT\nDELETE FROM t", false, false},
      {"selected FROM t", false, false},
      {"\"SELECT\" FROM t", false, false},
      {"", false, false},
  };
  for (const auto& c : kCases) {
    auto lexed = LexStatement(c.sql);
    ASSERT_TRUE(lexed.ok()) << c.sql;
    EXPECT_EQ(lexed->read_only, c.read_only) << c.sql;
    EXPECT_EQ(lexed->explain_analyze, c.explain_analyze) << c.sql;
  }
}

TEST(LexStatementTest, TokenSpansIndexTheSource) {
  const std::string sql = "SELECT 'it''s', \"Q\" <> 1.5e3 FROM t;";
  auto lexed = LexStatement(sql);
  ASSERT_TRUE(lexed.ok()) << lexed.status().ToString();
  const std::vector<std::string> spans = {"SELECT", "'it''s'", ",",
                                          "\"Q\"",  "<>",      "1.5e3",
                                          "FROM",   "t",       ";"};
  ASSERT_EQ(lexed->tokens.size(), spans.size() + 1);
  for (size_t t = 0; t < spans.size(); ++t) {
    const Token& token = lexed->tokens[t];
    EXPECT_EQ(sql.substr(token.offset, token.end - token.offset), spans[t]);
  }
  EXPECT_EQ(lexed->tokens[1].text, "it's");
  EXPECT_EQ(lexed->tokens[3].text, "Q");
  EXPECT_EQ(lexed->tokens.back().type, TokenType::kEof);
  EXPECT_EQ(lexed->tokens.back().offset, sql.size());
}

TEST(LexScriptTest, CutsAtSemicolonTokensOnly) {
  const std::string script =
      "CREATE TABLE t (a INT, s VARCHAR);\n"
      "INSERT INTO t VALUES (1, 'x;y') -- one; two\n;;"
      "  SELECT \"a;b\" FROM t ; explain analyze SELECT s FROM T";
  auto stmts = LexScript(script);
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  ASSERT_EQ(stmts->size(), 4u);
  EXPECT_EQ((*stmts)[0].sql, "CREATE TABLE t (a INT, s VARCHAR)");
  EXPECT_EQ((*stmts)[1].sql, "INSERT INTO t VALUES (1, 'x;y')");
  EXPECT_EQ((*stmts)[2].sql, "SELECT \"a;b\" FROM t");
  EXPECT_EQ((*stmts)[3].sql, "explain analyze SELECT s FROM T");
  // Each statement lexes as LexStatement would lex its text alone, so its
  // spans index its own text and the parser sees one statement.
  for (const LexedStatement& stmt : *stmts) {
    auto alone = LexStatement(stmt.sql);
    ASSERT_TRUE(alone.ok()) << stmt.sql;
    EXPECT_EQ(stmt.key, alone->key);
    EXPECT_EQ(stmt.read_only, alone->read_only) << stmt.sql;
    EXPECT_EQ(stmt.explain_analyze, alone->explain_analyze) << stmt.sql;
    ASSERT_EQ(stmt.tokens.size(), alone->tokens.size()) << stmt.sql;
    for (size_t t = 0; t < stmt.tokens.size(); ++t) {
      EXPECT_EQ(stmt.tokens[t].type, alone->tokens[t].type);
      EXPECT_EQ(stmt.tokens[t].offset, alone->tokens[t].offset);
      EXPECT_EQ(stmt.tokens[t].end, alone->tokens[t].end);
    }
    EXPECT_TRUE(Parser::Parse(stmt.tokens).ok()) << stmt.sql;
  }
  EXPECT_FALSE((*stmts)[1].read_only);
  EXPECT_TRUE((*stmts)[3].explain_analyze);
  // Nothing but separators and comments is no statement; text that does
  // not lex fails before any statement is returned.
  auto empty = LexScript(" ; -- nothing\n;");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(LexScript("SELECT 1; SELECT 'open").status().code(),
            StatusCode::kParseError);
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  PlanCache cache(2);
  auto plan = [] { return std::make_unique<LogicalPlan>(); };
  cache.Insert("a", plan());
  cache.Insert("b", plan());
  EXPECT_NE(cache.Lookup("a"), nullptr);  // refresh "a" -> LRU is "b"
  cache.Insert("c", plan());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_GE(stats.invalidations, 2u);  // eviction of "b" + Clear()
}

TEST(PlanCacheTest, LookupReturnsPrivateClones) {
  PlanCache cache(4);
  cache.Insert("k", std::make_unique<LogicalPlan>());
  PlanPtr first = cache.Lookup("k");
  PlanPtr second = cache.Lookup("k");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first.get(), second.get());
}

TEST_F(SqlEngineTest, PlanCacheHitSkipsPlanningAndMatchesResults) {
  QueryResult cold = Exec("SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  EXPECT_FALSE(cold.from_plan_cache);
  QueryResult warm =
      Exec("select  dept, count(*)\nFROM emp GROUP BY dept;");
  EXPECT_TRUE(warm.from_plan_cache);
  EXPECT_EQ(cold.batch.num_rows(), warm.batch.num_rows());
  PlanCacheStats stats = engine_.plan_cache()->stats();
  EXPECT_GE(stats.hits, 1u);
}

TEST_F(SqlEngineTest, PlanCacheSeesLiveDataAfterDml) {
  QueryResult before = Exec("SELECT COUNT(*) FROM emp WHERE dept = 'hr'");
  Exec("INSERT INTO emp VALUES (7, 'gina', 'hr', 70.0, 41)");
  QueryResult after = Exec("SELECT COUNT(*) FROM emp WHERE dept = 'hr'");
  EXPECT_TRUE(after.from_plan_cache);
  EXPECT_EQ(after.batch.column(0)->GetValue(0).int_value(),
            before.batch.column(0)->GetValue(0).int_value() + 1);
}

TEST_F(SqlEngineTest, DdlInvalidatesPlanCache) {
  Exec("CREATE TABLE tmp (x INT)");
  Exec("INSERT INTO tmp VALUES (1), (2)");
  QueryResult sum = Exec("SELECT SUM(x) FROM tmp");
  EXPECT_EQ(sum.batch.column(0)->int_at(0), 3);
  Exec("SELECT SUM(x) FROM tmp");  // now cached
  Exec("DROP TABLE tmp");
  EXPECT_FALSE(engine_.Execute("SELECT SUM(x) FROM tmp").ok())
      << "dropped table must not serve a stale cached plan";
  Exec("CREATE TABLE tmp (x INT)");
  Exec("INSERT INTO tmp VALUES (10), (20), (30)");
  QueryResult fresh = Exec("SELECT SUM(x) FROM tmp");
  EXPECT_FALSE(fresh.from_plan_cache);
  EXPECT_EQ(fresh.batch.column(0)->int_at(0), 60);
}

TEST_F(SqlEngineTest, QuotedIdentifiersWithDashesKeepDistinctPlans) {
  Exec("CREATE TABLE t1 (\"a--b\" INT)");
  Exec("CREATE TABLE t2 (\"a--b\" INT)");
  Exec("INSERT INTO t1 VALUES (1)");
  Exec("INSERT INTO t2 VALUES (2)");
  QueryResult first = Exec("SELECT \"a--b\" FROM t1");
  QueryResult second = Exec("SELECT \"a--b\" FROM t2");
  ASSERT_EQ(first.batch.num_rows(), 1u);
  ASSERT_EQ(second.batch.num_rows(), 1u);
  EXPECT_EQ(first.batch.column(0)->int_at(0), 1);
  EXPECT_EQ(second.batch.column(0)->int_at(0), 2);
  EXPECT_FALSE(second.from_plan_cache);
  EXPECT_TRUE(Exec("select \"A--B\" from T2 -- again").from_plan_cache);
}

TEST_F(SqlEngineTest, ExplainAnalyzeReportsPlanCacheCounters) {
  Exec("SELECT id FROM emp WHERE salary > 90");
  Exec("SELECT id FROM emp WHERE salary > 90");
  QueryResult explained =
      Exec("EXPLAIN ANALYZE SELECT id FROM emp WHERE salary > 90");
  EXPECT_NE(explained.plan_text.find("Plan Cache"), std::string::npos);
  EXPECT_NE(explained.plan_text.find("hits="), std::string::npos);
}

TEST(PlanCacheEngineTest, DisabledCacheNeverHits) {
  Database db;
  EngineOptions options;
  options.enable_plan_cache = false;
  SqlEngine engine(&db, options);
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO t VALUES (1)").ok());
  for (int i = 0; i < 3; ++i) {
    auto result = engine.Execute("SELECT x FROM t");
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->from_plan_cache);
  }
  EXPECT_EQ(engine.plan_cache()->stats().hits, 0u);
}

TEST(ParserTest, ErrorsAreParseErrors) {
  EXPECT_EQ(Parser::Parse("SELECT FROM").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Parser::Parse("INSERT INTO").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Parser::ParseExpression("1 +").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Parser::ParseExpression("1e999").status().code(),
            StatusCode::kParseError);
}

TEST(ParserTest, SubnormalLiteralKeepsItsValue) {
  // A %.17g-printed subnormal (e.g. a saturated sigmoid score used as a
  // threshold) must parse back to the same double.
  auto e = Parser::ParseExpression("1.5368782843524641e-308");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ((*e)->literal.AsDouble(), 1.5368782843524641e-308);
}

TEST_F(SqlEngineTest, PreCancelledTokenFailsBeforeExecution) {
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  ExecOptions options;
  options.cancel = token;
  auto result = engine_.Execute("SELECT * FROM emp", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // DML is checked before the statement starts too: a killed session's
  // queued INSERT must not mutate anything.
  auto dml = engine_.Execute("INSERT INTO emp VALUES "
                             "(7, 'zed', 'eng', 50.0, 30)", options);
  ASSERT_FALSE(dml.ok());
  EXPECT_EQ(dml.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM emp").batch.column(0)->int_at(0), 6);
}

void BuildWideCrossJoin(SqlEngine* engine) {
  for (const char* name : {"biga", "bigb", "bigc"}) {
    ASSERT_TRUE(
        engine->Execute(std::string("CREATE TABLE ") + name + " (x INT)")
            .ok());
    std::string insert = std::string("INSERT INTO ") + name + " VALUES ";
    for (int i = 0; i < 1000; ++i) {
      if (i > 0) insert += ", ";
      insert += StrCat("(", std::to_string(i)) + ")";
    }
    ASSERT_TRUE(engine->Execute(insert).ok());
  }
}

constexpr const char* kWideCrossJoin =
    "SELECT COUNT(*) FROM biga CROSS JOIN bigb CROSS JOIN bigc";

TEST_F(SqlEngineTest, DeadlineInterruptsLargeCrossJoin) {
  // A billion-combination nested-loop cross join: never finishes inside
  // the deadline, so the morsel/row poll must surface kDeadlineExceeded.
  BuildWideCrossJoin(&engine_);
  ExecOptions options;
  options.cancel = CancelToken::WithDeadline(50.0);
  auto result = engine_.Execute(kWideCrossJoin, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

TEST_F(SqlEngineTest, MidScanKillStopsCrossJoinQuickly) {
  BuildWideCrossJoin(&engine_);
  CancelToken token = CancelToken::Cancellable();
  ExecOptions options;
  options.cancel = token;
  std::thread killer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  auto result = engine_.Execute(kWideCrossJoin, options);
  killer.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  // The kill was honoured promptly: the engine noticed within the
  // acceptance budget, not at the end of the join.
  EXPECT_LT(token.CancelLatencyMs(), 100.0);
}

}  // namespace
}  // namespace flock::sql
