#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "common/string_util.h"

namespace flock::sql {

namespace {

const std::unordered_set<std::string>& KeywordSet() {
  static const auto* kKeywords = new std::unordered_set<std::string>{
      "SELECT", "FROM",   "WHERE",    "GROUP",  "BY",      "HAVING",
      "ORDER",  "LIMIT",  "OFFSET",   "ASC",    "DESC",    "AS",
      "AND",    "OR",     "NOT",      "IN",     "BETWEEN", "LIKE",
      "IS",     "NULL",   "TRUE",     "FALSE",  "CASE",    "WHEN",
      "THEN",   "ELSE",   "END",      "CAST",   "JOIN",    "INNER",
      "LEFT",   "RIGHT",  "OUTER",    "ON",     "CROSS",   "INSERT",
      "INTO",   "VALUES", "UPDATE",   "SET",    "DELETE",  "CREATE",
      "TABLE",  "DROP",   "MODEL",    "DISTINCT", "EXPLAIN", "WITH",
      "UNION",  "ALL",    "EXISTS",   "PRIMARY", "KEY",    "USING",
      "RUNTIME", "PREDICT", "ANALYZE"};
  return *kKeywords;
}

}  // namespace

bool IsKeyword(const std::string& upper) {
  return KeywordSet().count(upper) > 0;
}

StatusOr<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    // Identifiers / keywords.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      std::string word = sql.substr(start, i - start);
      std::string upper = ToUpper(word);
      if (IsKeyword(upper)) {
        tok.type = TokenType::kKeyword;
        tok.text = upper;
      } else {
        tok.type = TokenType::kIdentifier;
        tok.text = word;
      }
      tokens.push_back(std::move(tok));
      continue;
    }
    // Quoted identifiers "name".
    if (c == '"') {
      size_t start = ++i;
      while (i < n && sql[i] != '"') ++i;
      if (i >= n) {
        return Status::ParseError("unterminated quoted identifier");
      }
      tok.type = TokenType::kIdentifier;
      tok.text = sql.substr(start, i - start);
      ++i;
      tokens.push_back(std::move(tok));
      continue;
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      bool has_dot = false;
      bool has_exp = false;
      while (i < n) {
        char d = sql[i];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++i;
        } else if (d == '.' && !has_dot && !has_exp) {
          has_dot = true;
          ++i;
        } else if ((d == 'e' || d == 'E') && !has_exp) {
          has_exp = true;
          ++i;
          if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
        } else {
          break;
        }
      }
      std::string num = sql.substr(start, i - start);
      tok.type = TokenType::kNumber;
      tok.text = num;
      // strtod, not stod: a literal that underflows to a subnormal still
      // denotes the nearest double (stod throws on it); only overflow and
      // text holding no number are errors.
      errno = 0;
      char* end = nullptr;
      tok.number = std::strtod(num.c_str(), &end);
      if (end == num.c_str() || (errno == ERANGE && std::isinf(tok.number))) {
        return Status::ParseError("bad numeric literal: " + num);
      }
      tok.is_integer = !has_dot && !has_exp;
      tokens.push_back(std::move(tok));
      continue;
    }
    // Strings.
    if (c == '\'') {
      ++i;
      std::string text;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            text.push_back('\'');
            i += 2;
            continue;
          }
          break;
        }
        text.push_back(sql[i]);
        ++i;
      }
      if (i >= n) return Status::ParseError("unterminated string literal");
      ++i;  // closing quote
      tok.type = TokenType::kString;
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }
    // Operators & punctuation.
    auto push1 = [&](TokenType t) {
      tok.type = t;
      tok.text = std::string(1, c);
      ++i;
      tokens.push_back(tok);
    };
    switch (c) {
      case ',':
        push1(TokenType::kComma);
        break;
      case '(':
        push1(TokenType::kLParen);
        break;
      case ')':
        push1(TokenType::kRParen);
        break;
      case ';':
        push1(TokenType::kSemicolon);
        break;
      case '.':
        push1(TokenType::kDot);
        break;
      case '*':
        push1(TokenType::kStar);
        break;
      case '+':
        push1(TokenType::kPlus);
        break;
      case '-':
        push1(TokenType::kMinus);
        break;
      case '/':
        push1(TokenType::kSlash);
        break;
      case '%':
        push1(TokenType::kPercent);
        break;
      case '=':
        push1(TokenType::kEq);
        break;
      case '<':
        if (i + 1 < n && sql[i + 1] == '=') {
          tok.type = TokenType::kLtEq;
          tok.text = "<=";
          i += 2;
          tokens.push_back(tok);
        } else if (i + 1 < n && sql[i + 1] == '>') {
          tok.type = TokenType::kNotEq;
          tok.text = "<>";
          i += 2;
          tokens.push_back(tok);
        } else {
          push1(TokenType::kLt);
        }
        break;
      case '>':
        if (i + 1 < n && sql[i + 1] == '=') {
          tok.type = TokenType::kGtEq;
          tok.text = ">=";
          i += 2;
          tokens.push_back(tok);
        } else {
          push1(TokenType::kGt);
        }
        break;
      case '!':
        if (i + 1 < n && sql[i + 1] == '=') {
          tok.type = TokenType::kNotEq;
          tok.text = "!=";
          i += 2;
          tokens.push_back(tok);
        } else {
          return Status::ParseError("unexpected character '!' at offset " +
                                    std::to_string(i));
        }
        break;
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(i));
    }
  }
  Token eof;
  eof.type = TokenType::kEof;
  eof.offset = n;
  tokens.push_back(eof);
  return tokens;
}

}  // namespace flock::sql
