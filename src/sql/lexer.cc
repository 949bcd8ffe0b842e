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
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      // Identifiers / keywords.
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      std::string word = sql.substr(tok.offset, i - tok.offset);
      std::string upper = ToUpper(word);
      if (IsKeyword(upper)) {
        tok.type = TokenType::kKeyword;
        tok.text = std::move(upper);
      } else {
        tok.type = TokenType::kIdentifier;
        tok.text = std::move(word);
      }
    } else if (c == '"') {
      // Quoted identifiers "name".
      size_t start = ++i;
      while (i < n && sql[i] != '"') ++i;
      if (i >= n) {
        return Status::ParseError("unterminated quoted identifier");
      }
      tok.type = TokenType::kIdentifier;
      tok.text = sql.substr(start, i - start);
      ++i;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      // Numbers.
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
      tok.type = TokenType::kNumber;
      tok.text = sql.substr(tok.offset, i - tok.offset);
      // strtod, not stod: a literal that underflows to a subnormal still
      // denotes the nearest double (stod throws on it); only overflow and
      // text holding no number are errors.
      errno = 0;
      char* end = nullptr;
      tok.number = std::strtod(tok.text.c_str(), &end);
      if (end == tok.text.c_str() ||
          (errno == ERANGE && std::isinf(tok.number))) {
        return Status::ParseError("bad numeric literal: " + tok.text);
      }
      tok.is_integer = !has_dot && !has_exp;
    } else if (c == '\'') {
      // Strings; '' inside one is an escaped quote.
      ++i;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            tok.text.push_back('\'');
            i += 2;
            continue;
          }
          break;
        }
        tok.text.push_back(sql[i]);
        ++i;
      }
      if (i >= n) return Status::ParseError("unterminated string literal");
      ++i;  // closing quote
      tok.type = TokenType::kString;
    } else {
      // Operators & punctuation.
      const char next = i + 1 < n ? sql[i + 1] : '\0';
      size_t width = 1;
      switch (c) {
        case ',': tok.type = TokenType::kComma; break;
        case '(': tok.type = TokenType::kLParen; break;
        case ')': tok.type = TokenType::kRParen; break;
        case ';': tok.type = TokenType::kSemicolon; break;
        case '.': tok.type = TokenType::kDot; break;
        case '*': tok.type = TokenType::kStar; break;
        case '+': tok.type = TokenType::kPlus; break;
        case '-': tok.type = TokenType::kMinus; break;
        case '/': tok.type = TokenType::kSlash; break;
        case '%': tok.type = TokenType::kPercent; break;
        case '=': tok.type = TokenType::kEq; break;
        case '<':
          if (next == '=') {
            tok.type = TokenType::kLtEq;
            width = 2;
          } else if (next == '>') {
            tok.type = TokenType::kNotEq;
            width = 2;
          } else {
            tok.type = TokenType::kLt;
          }
          break;
        case '>':
          tok.type = next == '=' ? TokenType::kGtEq : TokenType::kGt;
          width = next == '=' ? 2 : 1;
          break;
        case '!':
          if (next == '=') {
            tok.type = TokenType::kNotEq;
            width = 2;
            break;
          }
          [[fallthrough]];
        default:
          return Status::ParseError(std::string("unexpected character '") +
                                    c + "' at offset " + std::to_string(i));
      }
      tok.text = sql.substr(i, width);
      i += width;
    }
    tok.end = i;
    tokens.push_back(std::move(tok));
  }
  Token eof;
  eof.type = TokenType::kEof;
  eof.offset = n;
  eof.end = n;
  tokens.push_back(eof);
  return tokens;
}

namespace {

/// Derives the key and the statement-class flags from `lexed->tokens`,
/// whose spans index `lexed->sql`.
void DeriveStatementFields(LexedStatement* lexed) {
  const std::string& sql = lexed->sql;
  const std::vector<Token>& tokens = lexed->tokens;
  size_t last = tokens.size() - 1;  // the kEof token
  while (last > 0 && tokens[last - 1].type == TokenType::kSemicolon) --last;
  lexed->key.reserve(sql.size());
  for (size_t t = 0; t < last; ++t) {
    const Token& tok = tokens[t];
    if (t > 0 && tok.offset > tokens[t - 1].end) lexed->key += ' ';
    if (tok.type == TokenType::kString) {
      lexed->key.append(sql, tok.offset, tok.end - tok.offset);
      continue;
    }
    for (size_t c = tok.offset; c < tok.end; ++c) {
      lexed->key += static_cast<char>(
          std::tolower(static_cast<unsigned char>(sql[c])));
    }
  }
  auto is_keyword = [&](size_t t, const char* kw) {
    return t < tokens.size() && tokens[t].type == TokenType::kKeyword &&
           tokens[t].text == kw;
  };
  lexed->read_only = is_keyword(0, "SELECT") || is_keyword(0, "EXPLAIN");
  lexed->explain_analyze =
      is_keyword(0, "EXPLAIN") && is_keyword(1, "ANALYZE");
}

}  // namespace

StatusOr<LexedStatement> LexStatement(const std::string& sql) {
  LexedStatement lexed;
  FLOCK_ASSIGN_OR_RETURN(lexed.tokens, Tokenize(sql));
  lexed.sql = sql;
  DeriveStatementFields(&lexed);
  return lexed;
}

StatusOr<std::vector<LexedStatement>> LexScript(const std::string& script) {
  FLOCK_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(script));
  std::vector<LexedStatement> out;
  size_t first = 0;  // first token of the current statement
  for (size_t t = 0; t < tokens.size(); ++t) {
    if (tokens[t].type != TokenType::kSemicolon &&
        tokens[t].type != TokenType::kEof) {
      continue;
    }
    if (t > first) {
      // Re-base the tokens onto the statement's own text; a kEof ends them.
      LexedStatement lexed;
      const size_t begin = tokens[first].offset;
      lexed.sql = script.substr(begin, tokens[t - 1].end - begin);
      lexed.tokens.assign(tokens.begin() + first, tokens.begin() + t);
      for (Token& tok : lexed.tokens) {
        tok.offset -= begin;
        tok.end -= begin;
      }
      Token eof;
      eof.offset = eof.end = lexed.sql.size();
      lexed.tokens.push_back(std::move(eof));
      DeriveStatementFields(&lexed);
      out.push_back(std::move(lexed));
    }
    first = t + 1;
  }
  return out;
}

}  // namespace flock::sql
