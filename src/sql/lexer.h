#ifndef FLOCK_SQL_LEXER_H_
#define FLOCK_SQL_LEXER_H_

#include <string>
#include <vector>

#include "common/status_or.h"
#include "sql/token.h"
#include "storage/value.h"

namespace flock::sql {

/// Tokenizes a SQL string. Strings use single quotes with '' escapes;
/// comments are `-- ...` to end of line. The last token is kEof.
StatusOr<std::vector<Token>> Tokenize(const std::string& sql);

/// One statement, tokenized once. Every decision the engine makes about
/// a statement before parsing it (replica gate, lock mode, tracing,
/// plan-cache key, rollout routing) reads these fields, and on a
/// plan-cache miss the parser consumes `tokens`. A script is a run of
/// them (LexScript).
struct LexedStatement {
  std::string sql;            // the source text; token spans index it
  std::vector<Token> tokens;  // ends with kEof
  /// Plan-cache key: the statement's shape. Each token's source text,
  /// lower-cased, joined by one space wherever whitespace or a comment
  /// separated two tokens, except that every literal is replaced by a typed
  /// slot: `?i` for an integer, `?d` for any other number, `?s` for a
  /// string. A trailing ';' is dropped. Two statements share a key when
  /// they lex to the same tokens up to the case of names, a trailing ';'
  /// and the values of their literals (`params`):
  ///
  ///   "SELECT  COUNT(*) FROM T;"    ->  "select count(*) from t"
  ///   "SELECT id -- hot\nFROM t"    ->  "select id from t"
  ///   "SELECT 'don''t' FROM t"      ->  "select ?s from t"
  ///   "SELECT x FROM t WHERE id=5"  ->  "select x from t where id=?i"
  ///   "... WHERE id = 5.0"          ->  "... where id = ?d"
  ///   "SELECT \"a--b\" FROM t"      ->  "select \"a--b\" from t"
  ///
  /// So `id = 5` and `id = 5.0` keep distinct keys, and an IN list of
  /// another length is another shape.
  std::string key;
  /// The literal values, one per slot of `key`, in source order: a BIGINT
  /// for `?i`, a DOUBLE for `?d`, a VARCHAR for `?s`. Token::slot indexes
  /// it.
  std::vector<storage::Value> params;
  /// The first token is the keyword SELECT or EXPLAIN.
  bool read_only = false;
  /// The first two tokens are EXPLAIN ANALYZE.
  bool explain_analyze = false;
};

/// Tokenizes `sql` and derives the LexedStatement fields from the tokens.
/// Fails with the tokenizer's ParseError.
StatusOr<LexedStatement> LexStatement(const std::string& sql);

/// Tokenizes a script once and cuts it at its `;` tokens (a ';' in a
/// literal, quoted name or comment is none) into statements, skipping
/// empty ones. Each `sql` runs from the statement's first token to its
/// last. Fails with the tokenizer's ParseError.
StatusOr<std::vector<LexedStatement>> LexScript(const std::string& script);

}  // namespace flock::sql

#endif  // FLOCK_SQL_LEXER_H_
