// Seeded mutation test for the SQL text entry points: LexStatement,
// Parser::Parse and lifecycle::RewritePredictCalls. A corpus of
// statements taken from the other suites is mutated (byte flips,
// truncation, splices, token swaps) with a fixed seed and a bounded
// iteration count, and every mutant must satisfy three invariants:
//
//  * every entry point returns (a Status or a string), with no crash,
//    UB or hang — the sanitizer builds check the "no UB" part;
//  * a statement that lexes has a key that, with its parameters written
//    back into its slots, lexes back to the same tokens (names up to
//    case, numbers by value; a trailing ';' is not part of the key);
//  * RewritePredictCalls changes only model-argument tokens.
//
// Carries the `fuzz` ctest label (scripts/check.sh runs it under ASan).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "lifecycle/rollout.h"
#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace flock::sql {
namespace {

constexpr int kIterations = 20000;  // per mutation kind
const char kModel[] = "churn";
const char kReplacement[] = "'churn#candidate'";

const std::vector<std::string>& Corpus() {
  static const auto* corpus = new std::vector<std::string>{
      "SELECT * FROM emp",
      "SELECT name FROM emp WHERE dept = 'eng' AND salary > 100",
      "  SELECT  id\n\tFROM emp ; ",
      "SELECT 'It  IS' FROM emp",
      "SELECT 'don''t', X FROM t",
      "SELECT id-- comment\nFROM t",
      "SELECT a - -1 FROM t",
      "SELECT \"a--b\" FROM t1",
      "select  dept, count(*)\nFROM emp GROUP BY dept;",
      "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 1 "
      "ORDER BY dept DESC LIMIT 2 OFFSET 1",
      "SELECT COUNT(*) FROM emp CROSS JOIN two",
      "SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count FROM customer c "
      "LEFT JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c.c_custkey",
      "SELECT CASE WHEN x > 1.5e3 THEN 'hi' ELSE NULL END FROM t "
      "WHERE y BETWEEN -2 AND .5 AND z IN (1, 2, 3) AND w IS NOT NULL",
      "SELECT CAST(x AS DOUBLE) FROM t WHERE name LIKE 'a%' AND x <> 2 "
      "AND y != 3 AND z <= 4 AND v >= 5",
      "INSERT INTO emp VALUES (7, 'gina', 'hr', 70.0, 41)",
      "INSERT INTO names SELECT name FROM emp WHERE dept = 'eng'",
      "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng' "
      "AND salary IS NOT NULL",
      "UPDATE t2 SET x = 99 WHERE nosuch.x = 20",
      "DELETE FROM emp WHERE age > 40",
      "CREATE TABLE users (id INT, age DOUBLE, plan VARCHAR)",
      "DROP TABLE tmp",
      "DROP MODEL churn",
      "EXPLAIN SELECT a FROM t",
      "-- why is this slow?\nEXPLAIN ANALYZE SELECT a FROM t",
      "SELECT x FROM t2 WHERE 'flock_audit' = 'flock_audit'",
      "SELECT name, version, created_by FROM flock_models",
      "SELECT PREDICT(churn, age) FROM users",
      "select predict( CHURN , age) from users",
      "SELECT PREDICT_GT(churn, age, 0.5) FROM users WHERE "
      "PREDICT_LE(churn, age, 0.9)",
      "SELECT PREDICT('churn', age) FROM users",
      "SELECT PREDICT(\"churn\", a) FROM t",
      "SELECT PREDICT(churn, a) FROM t -- don't\nWHERE PREDICT(churn, b) > 0.5",
      "SELECT PREDICT(other_model, age) FROM users",
      "SELECT name FROM t WHERE name = 'predict(churn'",
      "SELECT id, PREDICT(churn, age, income, tenure, clicks, plan) FROM "
      "users WHERE f0 > 0.2 AND PREDICT(churn, age, income) > 0.8",
      "UPDATE pts SET flagged = 1 WHERE PREDICT(scorer, x, y) > 0.5",
      "SELECT COUNT(*) FROM clickstream WHERE PREDICT_GT(churn, 0.8, f0, f1)",
  };
  return *corpus;
}

/// Equal up to the case of names: string literals compare exactly,
/// numbers by type and value (bitwise).
bool SameToken(const Token& a, const Token& b) {
  if (a.type != b.type) return false;
  if (a.type == TokenType::kString) return a.text == b.text;
  if (a.type == TokenType::kNumber) {
    return a.is_integer == b.is_integer &&
           (a.is_integer ? a.integer == b.integer
                         : std::bit_cast<uint64_t>(a.number) ==
                               std::bit_cast<uint64_t>(b.number));
  }
  return EqualsIgnoreCase(a.text, b.text);
}

/// `v` spelled as a SQL literal that lexes back to it. A DOUBLE is written
/// `.<17 digits>e<exp>`: it starts with '.' and ends in its exponent, so
/// it never runs into a neighbouring number the way the original text
/// did not.
std::string Literal(const storage::Value& v) {
  if (v.type() == storage::DataType::kInt64) {
    return std::to_string(v.int_value());
  }
  if (v.type() == storage::DataType::kDouble) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.16e", v.double_value());
    const std::string s = buf;  // d.dddde+XX
    const size_t e = s.find('e');
    return StrCat(".", s.substr(0, 1)) + s.substr(2, e - 2) + "e" +
           std::to_string(std::atoi(s.c_str() + e + 1) + 1);
  }
  std::string out = "'";
  for (char c : v.string_value()) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

/// `key` with each slot (`?i`, `?d`, `?s` outside a quoted name) replaced
/// by its parameter; "" when the slots and `params` do not line up.
std::string WithParams(const std::string& key,
                       const std::vector<storage::Value>& params) {
  std::string out;
  size_t next = 0;
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] == '"') {
      const size_t close = key.find('"', i + 1);
      if (close == std::string::npos) return "";
      out.append(key, i, close - i + 1);
      i = close;
    } else if (key[i] == '?') {
      if (i + 1 >= key.size() || next >= params.size()) return "";
      const char kind = key[++i];
      const storage::DataType want =
          kind == 'i'   ? storage::DataType::kInt64
          : kind == 'd' ? storage::DataType::kDouble
                        : storage::DataType::kString;
      if (params[next].type() != want) return "";
      out += Literal(params[next++]);
    } else {
      out += key[i];
    }
  }
  return next == params.size() ? out : "";
}

std::string Escaped(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char hex[5];
      std::snprintf(hex, sizeof(hex), "\\x%02x", c);
      out += hex;
    }
  }
  return out;
}

/// The key of a lexable statement, its parameters written back, lexes
/// back to its tokens.
std::string CheckKeyRoundTrip(const LexedStatement& lexed) {
  size_t kept = lexed.tokens.size() - 1;  // without kEof
  while (kept > 0 && lexed.tokens[kept - 1].type == TokenType::kSemicolon) {
    --kept;
  }
  const std::string text = WithParams(lexed.key, lexed.params);
  if (text.empty() && !lexed.key.empty()) {
    return "key slots do not match the parameters: " + Escaped(lexed.key);
  }
  StatusOr<LexedStatement> again = LexStatement(text);
  if (!again.ok()) return "key does not lex: " + again.status().ToString();
  if (again->tokens.size() != kept + 1) return "key lexes to a new count";
  for (size_t t = 0; t < kept; ++t) {
    if (!SameToken(lexed.tokens[t], again->tokens[t])) {
      return "key token " + std::to_string(t) + " differs";
    }
  }
  if (again->key != lexed.key) return "key is not a fixed point";
  if (again->read_only != lexed.read_only ||
      again->explain_analyze != lexed.explain_analyze) {
    return "key changes the statement class";
  }
  return "";
}

/// True when token t is the model argument of a PREDICT-family call
/// naming kModel.
bool IsModelArgument(const std::vector<Token>& tokens, size_t t) {
  if (t < 2) return false;
  const Token& call = tokens[t - 2];
  const Token& arg = tokens[t];
  return (call.type == TokenType::kKeyword ||
          call.type == TokenType::kIdentifier) &&
         IsPredictFunction(ToUpper(call.text)) &&
         tokens[t - 1].type == TokenType::kLParen &&
         (arg.type == TokenType::kIdentifier ||
          arg.type == TokenType::kString) &&
         EqualsIgnoreCase(arg.text, kModel);
}

/// The rewrite differs from its input only in model-argument tokens.
std::string CheckRewrite(const std::string& sql) {
  const std::string out =
      lifecycle::RewritePredictCalls(sql, kModel, kReplacement);
  StatusOr<std::vector<Token>> in = Tokenize(sql);
  if (!in.ok()) return out == sql ? "" : "rewrote text that does not lex";
  StatusOr<std::vector<Token>> rewritten = Tokenize(out);
  if (!rewritten.ok()) return "rewrite does not lex: " + Escaped(out);
  if (rewritten->size() != in->size()) {
    return "rewrite changed the token count: " + Escaped(out);
  }
  bool any = false;
  for (size_t t = 0; t < in->size(); ++t) {
    const Token& before = (*in)[t];
    const Token& after = (*rewritten)[t];
    if (IsModelArgument(*in, t)) {
      any = true;
      if (after.type != TokenType::kString ||
          after.text != "churn#candidate") {
        return "model argument " + std::to_string(t) + " not rewritten";
      }
    } else if (after.type != before.type || after.text != before.text) {
      return "token " + std::to_string(t) + " changed: " + Escaped(out);
    }
  }
  if (!any && out != sql) return "rewrote a statement with no model call";
  return "";
}

/// Runs every entry point on `sql` and returns the first broken
/// invariant, or "".
std::string CheckStatement(const std::string& sql) {
  StatusOr<LexedStatement> lexed = LexStatement(sql);
  const bool parsed_text = Parser::Parse(sql).ok();
  if (lexed.ok()) {
    if (Parser::Parse(lexed->tokens).ok() != parsed_text) {
      return "parsing the tokens and the text disagree";
    }
    std::string broken = CheckKeyRoundTrip(*lexed);
    if (!broken.empty()) return broken;
  } else if (parsed_text) {
    return "text that does not lex parsed";
  }
  return CheckRewrite(sql);
}

enum class Mutation { kByteFlip, kTruncate, kSplice, kTokenSwap };

/// Bytes that change how SQL lexes: quotes, comment starts, operators,
/// digits, exponent markers, whitespace, NUL and a high byte.
char InterestingByte(Random* rng) {
  static const char kBytes[] = "'\"-()*;,.<>=!e0 \n\t_aZ";
  const uint64_t pick = rng->Uniform(sizeof(kBytes) + 1);
  if (pick == sizeof(kBytes) - 1) return '\0';
  if (pick == sizeof(kBytes)) return static_cast<char>(0xff);
  return kBytes[pick];
}

std::string Mutate(const std::string& sql, Mutation kind, Random* rng) {
  const std::vector<std::string>& corpus = Corpus();
  std::string out = sql;
  switch (kind) {
    case Mutation::kByteFlip: {
      const uint64_t flips = 1 + rng->Uniform(3);
      for (uint64_t f = 0; f < flips && !out.empty(); ++f) {
        const size_t at = rng->Uniform(out.size());
        if (rng->NextBool()) {
          out[at] = static_cast<char>(out[at] ^ (1u << rng->Uniform(8)));
        } else {
          out[at] = InterestingByte(rng);
        }
      }
      break;
    }
    case Mutation::kTruncate:
      out.resize(rng->Uniform(out.size() + 1));
      break;
    case Mutation::kSplice: {
      const std::string& other = corpus[rng->Uniform(corpus.size())];
      out = out.substr(0, rng->Uniform(out.size() + 1)) +
            other.substr(rng->Uniform(other.size() + 1));
      break;
    }
    case Mutation::kTokenSwap: {
      StatusOr<std::vector<Token>> tokens = Tokenize(out);
      if (!tokens.ok() || tokens->size() < 3) break;
      size_t a = rng->Uniform(tokens->size() - 1);
      size_t b = rng->Uniform(tokens->size() - 1);
      if (a == b) break;
      if (a > b) std::swap(a, b);
      const Token& ta = (*tokens)[a];
      const Token& tb = (*tokens)[b];
      out = sql.substr(0, ta.offset) +
            sql.substr(tb.offset, tb.end - tb.offset) +
            sql.substr(ta.end, tb.offset - ta.end) +
            sql.substr(ta.offset, ta.end - ta.offset) + sql.substr(tb.end);
      break;
    }
  }
  return out;
}

void RunCampaign(Mutation kind, uint64_t seed) {
  Random rng(seed);
  const std::vector<std::string>& corpus = Corpus();
  int failures = 0;
  for (int i = 0; i < kIterations && failures < 5; ++i) {
    std::string sql = corpus[rng.Uniform(corpus.size())];
    // Stack up to three mutations of one kind.
    const uint64_t rounds = 1 + rng.Uniform(3);
    for (uint64_t r = 0; r < rounds; ++r) sql = Mutate(sql, kind, &rng);
    const std::string broken = CheckStatement(sql);
    if (!broken.empty()) {
      ++failures;
      ADD_FAILURE() << broken << "\n  input: " << Escaped(sql)
                    << "\n  iteration " << i << ", seed " << seed;
    }
  }
}

TEST(SqlFuzzTest, CorpusSatisfiesTheInvariants) {
  for (const std::string& sql : Corpus()) {
    ASSERT_TRUE(LexStatement(sql).ok()) << sql;
    EXPECT_EQ(CheckStatement(sql), "") << sql;
  }
}

TEST(SqlFuzzTest, ByteFlips) { RunCampaign(Mutation::kByteFlip, 1); }

TEST(SqlFuzzTest, Truncations) { RunCampaign(Mutation::kTruncate, 2); }

TEST(SqlFuzzTest, Splices) { RunCampaign(Mutation::kSplice, 3); }

TEST(SqlFuzzTest, TokenSwaps) { RunCampaign(Mutation::kTokenSwap, 4); }

}  // namespace
}  // namespace flock::sql
