#ifndef FLOCK_SQL_TOKEN_H_
#define FLOCK_SQL_TOKEN_H_

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
  std::string text;   // identifier/keyword (upper-cased for keywords) or raw
  double number = 0;  // numeric literal value
  bool is_integer = false;
  size_t offset = 0;  // byte offset of the first character in the input
  size_t end = 0;     // byte offset one past the last character
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_TOKEN_H_
