// Property-based SQL engine tests (TEST_P sweeps over random seeds):
//  * optimizer equivalence — the rule optimizer must never change results;
//  * parallelism equivalence — thread count / morsel size must not either;
//  * LIKE agrees with a brute-force reference matcher;
//  * expression printing round-trips through the parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/random.h"
#include "common/string_util.h"
#include "sql/engine.h"
#include "sql/evaluator.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace flock::sql {
namespace {

using storage::DataType;
using storage::Database;
using storage::Value;

/// Renders a result batch as a sorted multiset of row strings (order-
/// insensitive comparison).
std::vector<std::string> Canonicalize(const storage::RecordBatch& batch) {
  std::vector<std::string> rows;
  rows.reserve(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::ostringstream out;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c)->GetValue(r);
      // Round doubles to tolerate association-order float noise.
      if (!v.is_null() && v.type() == DataType::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", v.double_value());
        out << buf << "|";
      } else {
        out << v.ToString() << "|";
      }
    }
    rows.push_back(out.str());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Builds a deterministic random table and returns seeded query strings.
class QueryFuzzer {
 public:
  explicit QueryFuzzer(uint64_t seed) : rng_(seed) {}

  void PopulateDatabase(Database* db) {
    sql::EngineOptions options;
    options.num_threads = 1;
    SqlEngine setup(db, options);
    ASSERT_TRUE(setup
                    .Execute("CREATE TABLE t (a INT, b DOUBLE, "
                             "c VARCHAR, d BOOL, g INT)")
                    .ok());
    const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 500; ++i) {
      if (i > 0) insert += ", ";
      bool null_b = rng_.NextBool(0.1);
      insert += StrCat("(", std::to_string(rng_.UniformInt(-50, 50))) + ", " +
                (null_b ? std::string("NULL")
                        : FormatDouble(rng_.UniformDouble(-10, 10), 3)) +
                ", '" + words[rng_.Uniform(5)] + "', " +
                (rng_.NextBool() ? "TRUE" : "FALSE") + ", " +
                std::to_string(rng_.UniformInt(0, 5)) + ")";
    }
    ASSERT_TRUE(setup.Execute(insert).ok());
  }

  std::string RandomScalar() {
    switch (rng_.Uniform(6)) {
      case 0:
        return "a";
      case 1:
        return "b";
      case 2:
        return std::to_string(rng_.UniformInt(-20, 20));
      case 3:
        return "a + " + std::to_string(rng_.UniformInt(1, 5));
      case 4:
        return "b * 2";
      default:
        return "a % 7";
    }
  }

  std::string RandomPredicate(int depth = 0) {
    if (depth < 2 && rng_.NextBool(0.4)) {
      std::string op = rng_.NextBool() ? " AND " : " OR ";
      return "(" + RandomPredicate(depth + 1) + op +
             RandomPredicate(depth + 1) + ")";
    }
    switch (rng_.Uniform(6)) {
      case 0:
        return RandomScalar() + " > " + RandomScalar();
      case 1:
        return RandomScalar() + " <= " +
               std::to_string(rng_.UniformInt(-10, 10));
      case 2:
        return "c LIKE '%a%'";
      case 3:
        return "b IS NOT NULL";
      case 4:
        return "a IN (1, 2, 3, " +
               std::to_string(rng_.UniformInt(-5, 5)) + ")";
      default:
        return "a BETWEEN " + std::to_string(rng_.UniformInt(-30, 0)) +
               " AND " + std::to_string(rng_.UniformInt(1, 30));
    }
  }

  std::string RandomQuery() {
    std::string sql = "SELECT ";
    if (rng_.NextBool(0.3)) {
      // Aggregate query.
      sql += "g, COUNT(*), SUM(b), MIN(a), MAX(a) FROM t";
      if (rng_.NextBool(0.7)) sql += " WHERE " + RandomPredicate();
      sql += " GROUP BY g";
      if (rng_.NextBool(0.4)) sql += " HAVING COUNT(*) > 2";
      return sql;
    }
    sql += RandomScalar() + ", " + RandomScalar() + ", c FROM t";
    if (rng_.NextBool(0.8)) sql += " WHERE " + RandomPredicate();
    if (rng_.NextBool(0.3)) {
      sql += " ORDER BY a, c";
      if (rng_.NextBool(0.5)) {
        sql += " LIMIT " + std::to_string(rng_.UniformInt(1, 50));
      }
    }
    return sql;
  }

 private:
  Random rng_;
};

class SqlPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlPropertyTest, OptimizerPreservesResults) {
  Database db;
  QueryFuzzer fuzzer(GetParam());
  fuzzer.PopulateDatabase(&db);

  sql::EngineOptions options;
  options.num_threads = 1;
  SqlEngine engine(&db, options);
  for (int q = 0; q < 25; ++q) {
    std::string sql = fuzzer.RandomQuery();
    engine.set_enable_optimizer(false);
    auto naive = engine.Execute(sql);
    engine.set_enable_optimizer(true);
    auto optimized = engine.Execute(sql);
    ASSERT_TRUE(naive.ok()) << sql << ": " << naive.status().ToString();
    ASSERT_TRUE(optimized.ok())
        << sql << ": " << optimized.status().ToString();
    // LIMIT without full ORDER BY may legitimately pick different rows;
    // only compare row counts there.
    if (sql.find("LIMIT") != std::string::npos) {
      EXPECT_EQ(naive->batch.num_rows(), optimized->batch.num_rows())
          << sql;
      continue;
    }
    EXPECT_EQ(Canonicalize(naive->batch), Canonicalize(optimized->batch))
        << sql;
  }
}

TEST_P(SqlPropertyTest, ParallelismPreservesResults) {
  Database db;
  QueryFuzzer fuzzer(GetParam() ^ 0xBEEF);
  fuzzer.PopulateDatabase(&db);

  sql::EngineOptions serial_options;
  serial_options.num_threads = 1;
  SqlEngine serial(&db, serial_options);
  sql::EngineOptions parallel_options;
  parallel_options.num_threads = 4;
  parallel_options.morsel_size = 64;  // stress morsel boundaries
  SqlEngine parallel(&db, parallel_options);

  QueryFuzzer query_gen(GetParam() ^ 0xF00D);
  for (int q = 0; q < 15; ++q) {
    std::string sql = query_gen.RandomQuery();
    if (sql.find("LIMIT") != std::string::npos) continue;
    auto a = serial.Execute(sql);
    auto b = parallel.Execute(sql);
    ASSERT_TRUE(a.ok()) << sql;
    ASSERT_TRUE(b.ok()) << sql;
    EXPECT_EQ(Canonicalize(a->batch), Canonicalize(b->batch)) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// LIKE reference property
// ---------------------------------------------------------------------------

bool ReferenceLike(const std::string& text, const std::string& pattern,
                   size_t t = 0, size_t p = 0) {
  if (p == pattern.size()) return t == text.size();
  if (pattern[p] == '%') {
    for (size_t skip = 0; skip + t <= text.size(); ++skip) {
      if (ReferenceLike(text, pattern, t + skip, p + 1)) return true;
    }
    return false;
  }
  if (t == text.size()) return false;
  if (pattern[p] == '_' || pattern[p] == text[t]) {
    return ReferenceLike(text, pattern, t + 1, p + 1);
  }
  return false;
}

class LikePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LikePropertyTest, MatchesReferenceImplementation) {
  Random rng(GetParam());
  const char* alphabet = "ab%_";
  for (int i = 0; i < 500; ++i) {
    std::string text, pattern;
    size_t text_len = rng.Uniform(8);
    size_t pattern_len = rng.Uniform(6);
    for (size_t c = 0; c < text_len; ++c) {
      text.push_back("ab"[rng.Uniform(2)]);
    }
    for (size_t c = 0; c < pattern_len; ++c) {
      pattern.push_back(alphabet[rng.Uniform(4)]);
    }
    EXPECT_EQ(LikeMatch(text, pattern), ReferenceLike(text, pattern))
        << "text='" << text << "' pattern='" << pattern << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LikePropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Expression print/parse round-trip
// ---------------------------------------------------------------------------

class ExprRoundTripTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ExprPtr RandomExpr(Random* rng, int depth = 0) {
    if (depth >= 3 || rng->NextBool(0.35)) {
      switch (rng->Uniform(4)) {
        // Literals stay non-negative: "-5" round-trips as unary negation,
        // which is a different (equivalent) tree.
        case 0:
          return Expr::MakeLiteral(Value::Int(rng->UniformInt(0, 99)));
        case 1:
          return Expr::MakeLiteral(
              Value::Double(rng->UniformInt(0, 99) / 4.0));
        case 2:
          return Expr::MakeLiteral(Value::String("s"));
        default:
          return Expr::MakeColumnRef("", "x");
      }
    }
    switch (rng->Uniform(5)) {
      case 0: {
        BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                          BinaryOp::kLt, BinaryOp::kEq, BinaryOp::kAnd};
        return Expr::MakeBinary(ops[rng->Uniform(6)],
                                RandomExpr(rng, depth + 1),
                                RandomExpr(rng, depth + 1));
      }
      case 1:
        return Expr::MakeUnary(rng->NextBool() ? UnaryOp::kNot
                                               : UnaryOp::kNeg,
                               RandomExpr(rng, depth + 1));
      case 2: {
        std::vector<ExprPtr> args;
        args.push_back(RandomExpr(rng, depth + 1));
        return Expr::MakeFunction("ABS", std::move(args));
      }
      case 3:
        return Expr::MakeIsNull(RandomExpr(rng, depth + 1),
                                rng->NextBool());
      default:
        return Expr::MakeCast(RandomExpr(rng, depth + 1),
                              rng->NextBool() ? DataType::kInt64
                                              : DataType::kDouble);
    }
  }
};

TEST_P(ExprRoundTripTest, ToStringReparsesToEqualTree) {
  Random rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    ExprPtr original = RandomExpr(&rng);
    std::string text = original->ToString();
    auto reparsed = Parser::ParseExpression(text);
    ASSERT_TRUE(reparsed.ok())
        << text << " -> " << reparsed.status().ToString();
    EXPECT_TRUE(original->Equals(**reparsed))
        << "original: " << text
        << "\nreparsed: " << (*reparsed)->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprRoundTripTest,
                         ::testing::Values(7, 17, 27, 37));

}  // namespace
}  // namespace flock::sql
