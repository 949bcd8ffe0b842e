#ifndef FLOCK_SQL_TOKEN_H_
#define FLOCK_SQL_TOKEN_H_

#include <cstdint>
#include <string>

namespace flock::sql {

enum class TokenType {
  kIdentifier,
  kKeyword,
  kNumber,
  kString,
  // punctuation / operators
  kComma,
  kLParen,
  kRParen,
  kSemicolon,
  kDot,
  kStar,
  kPlus,
  kMinus,
  kSlash,
  kPercent,
  kEq,
  kNotEq,
  kLt,
  kLtEq,
  kGt,
  kGtEq,
  kEof,
};

struct Token {
  TokenType type = TokenType::kEof;
  /// Identifier as written, keyword upper-cased, number as written, string
  /// literal unescaped; empty for punctuation and kEof (see TokenSpelling).
  std::string text;
  double number = 0;     // numeric literal value
  int64_t integer = 0;   // exact value when is_integer
  bool is_integer = false;  // digits only, and within BIGINT range
  /// kNumber/kString: the literal's parameter slot, its index among the
  /// statement's number and string literals in source order.
  uint32_t slot = 0;
  size_t offset = 0;  // byte offset of the first character in the input
  size_t end = 0;     // byte offset one past the last character
};

/// The text of `token` for messages: its `text`, or the spelling of a
/// punctuation token ("(", "<=", ...); "" for kEof.
std::string TokenSpelling(const Token& token);

}  // namespace flock::sql

#endif  // FLOCK_SQL_TOKEN_H_
