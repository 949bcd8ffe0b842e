#ifndef FLOCK_SQL_PARSER_H_
#define FLOCK_SQL_PARSER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace flock::sql {

/// Recursive-descent parser for Flock's SQL dialect.
///
/// Supported: SELECT (joins, GROUP BY/HAVING, ORDER BY, LIMIT/OFFSET,
/// DISTINCT), INSERT (VALUES and SELECT forms), UPDATE, DELETE,
/// CREATE/DROP TABLE, CREATE/DROP MODEL, EXPLAIN, scalar expressions with
/// CASE/IN/BETWEEN/LIKE/CAST/IS NULL, and function calls including
/// PREDICT(model, features...).
class Parser {
 public:
  /// Parses exactly one statement (a trailing ';' is allowed).
  static StatusOr<StatementPtr> Parse(const std::string& sql);

  /// Parses exactly one statement from already-lexed tokens (ending with
  /// kEof), so a caller that lexed the statement does not lex it again.
  static StatusOr<StatementPtr> Parse(const std::vector<Token>& tokens);

  /// Parses a standalone scalar expression (used in tests and by the policy
  /// engine's condition language).
  static StatusOr<ExprPtr> ParseExpression(const std::string& text);

 private:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();
  bool Check(TokenType t) const;
  bool CheckKeyword(const std::string& kw) const;
  bool MatchKeyword(const std::string& kw);
  bool Match(TokenType t);
  Status Expect(TokenType t, const std::string& what);
  Status ExpectKeyword(const std::string& kw);

  StatusOr<StatementPtr> ParseStatement();
  StatusOr<std::unique_ptr<SelectStatement>> ParseSelect();
  StatusOr<StatementPtr> ParseInsert();
  StatusOr<StatementPtr> ParseUpdate();
  StatusOr<StatementPtr> ParseDelete();
  StatusOr<StatementPtr> ParseCreate();
  StatusOr<StatementPtr> ParseDrop();

  StatusOr<TableRef> ParseTableRef();
  /// Reads the number after LIMIT or OFFSET (`clause`) and its slot.
  Status ParseCount(const char* clause, std::optional<int64_t>* value,
                    int* slot);

  // Expression precedence ladder.
  StatusOr<ExprPtr> ParseExpr();          // OR
  StatusOr<ExprPtr> ParseAnd();
  StatusOr<ExprPtr> ParseNot();
  StatusOr<ExprPtr> ParseComparison();    // = <> < <= > >= LIKE IN BETWEEN IS
  StatusOr<ExprPtr> ParseAdditive();
  StatusOr<ExprPtr> ParseMultiplicative();
  StatusOr<ExprPtr> ParseUnary();
  StatusOr<ExprPtr> ParsePrimary();

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_PARSER_H_
