#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <unordered_set>

namespace flock::sql {

namespace {

/// Longest reserved word ("DISTINCT"): a longer word is an identifier
/// without a lookup.
constexpr size_t kLongestKeyword = 8;

bool IsKeyword(std::string_view upper) {
  static const auto* kKeywords = new std::unordered_set<std::string_view>{
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
  return kKeywords->count(upper) > 0;
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsWordStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Reads the tokens of a source text one at a time, numbering its
/// literals' parameter slots.
class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  /// Lexes the next token into `*tok` (kEof at the end of the input).
  /// `*gap` is set when whitespace or a comment precedes it.
  Status Next(Token* tok, bool* gap);

  /// Numbers the next literal's slot 0 (a script's next statement).
  void RestartSlots() { next_slot_ = 0; }

 private:
  Status LexNumber(Token* tok);
  Status LexString(Token* tok);
  Status LexPunctuation(Token* tok);

  const std::string& src_;
  size_t pos_ = 0;
  uint32_t next_slot_ = 0;
};

Status Lexer::Next(Token* tok, bool* gap) {
  const size_t n = src_.size();
  const size_t from = pos_;
  while (pos_ < n) {
    if (IsSpace(src_[pos_])) {
      ++pos_;
    } else if (src_[pos_] == '-' && pos_ + 1 < n && src_[pos_ + 1] == '-') {
      while (pos_ < n && src_[pos_] != '\n') ++pos_;  // line comment
    } else {
      break;
    }
  }
  *gap = pos_ > from;
  *tok = Token();
  tok->offset = pos_;
  if (pos_ >= n) {
    tok->type = TokenType::kEof;
    tok->end = n;
    return Status::OK();
  }
  const char c = src_[pos_];
  if (IsWordStart(c)) {
    // Identifiers / keywords. Only a short word needs the keyword lookup,
    // and it upper-cases into a stack buffer.
    while (pos_ < n && IsWordChar(src_[pos_])) ++pos_;
    const size_t len = pos_ - tok->offset;
    char upper[kLongestKeyword];
    bool keyword = len <= kLongestKeyword;
    if (keyword) {
      for (size_t k = 0; k < len; ++k) {
        upper[k] = static_cast<char>(
            std::toupper(static_cast<unsigned char>(src_[tok->offset + k])));
      }
      keyword = IsKeyword(std::string_view(upper, len));
    }
    if (keyword) {
      tok->type = TokenType::kKeyword;
      tok->text.assign(upper, len);
    } else {
      tok->type = TokenType::kIdentifier;
      tok->text.assign(src_, tok->offset, len);
    }
  } else if (c == '"') {
    // Quoted identifiers "name".
    const size_t start = ++pos_;
    while (pos_ < n && src_[pos_] != '"') ++pos_;
    if (pos_ >= n) {
      return Status::ParseError("unterminated quoted identifier");
    }
    tok->type = TokenType::kIdentifier;
    tok->text.assign(src_, start, pos_ - start);
    ++pos_;
  } else if (IsDigit(c) ||
             (c == '.' && pos_ + 1 < n && IsDigit(src_[pos_ + 1]))) {
    FLOCK_RETURN_NOT_OK(LexNumber(tok));
  } else if (c == '\'') {
    FLOCK_RETURN_NOT_OK(LexString(tok));
  } else {
    FLOCK_RETURN_NOT_OK(LexPunctuation(tok));
  }
  tok->end = pos_;
  if (tok->type == TokenType::kNumber || tok->type == TokenType::kString) {
    tok->slot = next_slot_++;
  }
  return Status::OK();
}

Status Lexer::LexNumber(Token* tok) {
  const size_t n = src_.size();
  bool has_dot = false;
  bool has_exp = false;
  while (pos_ < n) {
    const char d = src_[pos_];
    if (IsDigit(d)) {
      ++pos_;
    } else if (d == '.' && !has_dot && !has_exp) {
      has_dot = true;
      ++pos_;
    } else if ((d == 'e' || d == 'E') && !has_exp) {
      has_exp = true;
      ++pos_;
      if (pos_ < n && (src_[pos_] == '+' || src_[pos_] == '-')) ++pos_;
    } else {
      break;
    }
  }
  tok->type = TokenType::kNumber;
  tok->text.assign(src_, tok->offset, pos_ - tok->offset);
  if (!has_dot && !has_exp) {
    // An integer is exact; one beyond BIGINT is a DOUBLE literal.
    int64_t v = 0;
    bool fits = true;
    for (char d : tok->text) {
      fits = fits && !__builtin_mul_overflow(v, 10, &v) &&
             !__builtin_add_overflow(v, d - '0', &v);
    }
    if (fits) {
      tok->is_integer = true;
      tok->integer = v;
      tok->number = static_cast<double>(v);
      return Status::OK();
    }
  }
  // strtod, not stod: a literal that underflows to a subnormal still
  // denotes the nearest double (stod throws on it); only overflow and text
  // holding no number are errors.
  errno = 0;
  char* end = nullptr;
  tok->number = std::strtod(tok->text.c_str(), &end);
  if (end == tok->text.c_str() ||
      (errno == ERANGE && std::isinf(tok->number))) {
    return Status::ParseError("bad numeric literal: " + tok->text);
  }
  return Status::OK();
}

Status Lexer::LexString(Token* tok) {
  // Strings; '' inside one is an escaped quote.
  const size_t n = src_.size();
  ++pos_;
  while (true) {
    const size_t quote = src_.find('\'', pos_);
    if (quote == std::string::npos) {
      pos_ = n;
      return Status::ParseError("unterminated string literal");
    }
    tok->text.append(src_, pos_, quote - pos_);
    pos_ = quote + 1;
    if (pos_ < n && src_[pos_] == '\'') {
      tok->text.push_back('\'');
      ++pos_;
      continue;
    }
    break;
  }
  tok->type = TokenType::kString;
  return Status::OK();
}

Status Lexer::LexPunctuation(Token* tok) {
  const size_t n = src_.size();
  const char c = src_[pos_];
  const char next = pos_ + 1 < n ? src_[pos_ + 1] : '\0';
  size_t width = 1;
  switch (c) {
    case ',': tok->type = TokenType::kComma; break;
    case '(': tok->type = TokenType::kLParen; break;
    case ')': tok->type = TokenType::kRParen; break;
    case ';': tok->type = TokenType::kSemicolon; break;
    case '.': tok->type = TokenType::kDot; break;
    case '*': tok->type = TokenType::kStar; break;
    case '+': tok->type = TokenType::kPlus; break;
    case '-': tok->type = TokenType::kMinus; break;
    case '/': tok->type = TokenType::kSlash; break;
    case '%': tok->type = TokenType::kPercent; break;
    case '=': tok->type = TokenType::kEq; break;
    case '<':
      if (next == '=') {
        tok->type = TokenType::kLtEq;
        width = 2;
      } else if (next == '>') {
        tok->type = TokenType::kNotEq;
        width = 2;
      } else {
        tok->type = TokenType::kLt;
      }
      break;
    case '>':
      tok->type = next == '=' ? TokenType::kGtEq : TokenType::kGt;
      width = next == '=' ? 2 : 1;
      break;
    case '!':
      if (next == '=') {
        tok->type = TokenType::kNotEq;
        width = 2;
        break;
      }
      [[fallthrough]];
    default:
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' at offset " + std::to_string(pos_));
  }
  pos_ += width;
  return Status::OK();
}

/// Builds one LexedStatement from its tokens as they are lexed: the
/// tokens, the shape key and the parameter values in one pass.
class StatementWriter {
 public:
  /// `src` is the text the token spans index; `base` is subtracted from
  /// them (the statement's start within a script).
  StatementWriter(const std::string& src, size_t base, LexedStatement* out)
      : src_(src), base_(base), out_(out) {}

  void Add(Token tok, bool gap) {
    LexedStatement& st = *out_;
    if (tok.type == TokenType::kSemicolon) {
      if (trim_ == std::string::npos) trim_ = st.key.size();
    } else {
      trim_ = std::string::npos;
    }
    if (gap && !st.tokens.empty()) st.key += ' ';
    switch (tok.type) {
      case TokenType::kNumber:
        st.key += tok.is_integer ? "?i" : "?d";
        st.params.push_back(tok.is_integer
                                ? storage::Value::Int(tok.integer)
                                : storage::Value::Double(tok.number));
        break;
      case TokenType::kString:
        st.key += "?s";
        st.params.push_back(storage::Value::String(tok.text));
        break;
      default:
        for (size_t c = tok.offset; c < tok.end; ++c) {
          st.key += static_cast<char>(
              std::tolower(static_cast<unsigned char>(src_[c])));
        }
        break;
    }
    tok.offset -= base_;
    tok.end -= base_;
    st.tokens.push_back(std::move(tok));
  }

  /// Ends the statement at source offset `end`: appends kEof, drops a
  /// trailing ';' run from the key and derives the statement class.
  void Finish(size_t end) {
    LexedStatement& st = *out_;
    if (trim_ != std::string::npos) st.key.resize(trim_);
    Token eof;
    eof.offset = eof.end = end - base_;
    st.tokens.push_back(std::move(eof));
    auto is_keyword = [&](size_t t, const char* kw) {
      return t < st.tokens.size() &&
             st.tokens[t].type == TokenType::kKeyword &&
             st.tokens[t].text == kw;
    };
    st.read_only = is_keyword(0, "SELECT") || is_keyword(0, "EXPLAIN");
    st.explain_analyze = is_keyword(0, "EXPLAIN") && is_keyword(1, "ANALYZE");
  }

 private:
  const std::string& src_;
  size_t base_;
  LexedStatement* out_;
  size_t trim_ = std::string::npos;  // key length before a trailing ';' run
};

}  // namespace

std::string TokenSpelling(const Token& token) {
  if (!token.text.empty()) return token.text;
  switch (token.type) {
    case TokenType::kComma: return ",";
    case TokenType::kLParen: return "(";
    case TokenType::kRParen: return ")";
    case TokenType::kSemicolon: return ";";
    case TokenType::kDot: return ".";
    case TokenType::kStar: return "*";
    case TokenType::kPlus: return "+";
    case TokenType::kMinus: return "-";
    case TokenType::kSlash: return "/";
    case TokenType::kPercent: return "%";
    case TokenType::kEq: return "=";
    case TokenType::kNotEq: return "<>";
    case TokenType::kLt: return "<";
    case TokenType::kLtEq: return "<=";
    case TokenType::kGt: return ">";
    case TokenType::kGtEq: return ">=";
    default: return "";
  }
}

StatusOr<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  tokens.reserve(sql.size() / 4 + 2);
  Lexer lexer(sql);
  Token tok;
  bool gap = false;
  do {
    FLOCK_RETURN_NOT_OK(lexer.Next(&tok, &gap));
    tokens.push_back(tok);
  } while (tok.type != TokenType::kEof);
  return tokens;
}

StatusOr<LexedStatement> LexStatement(const std::string& sql) {
  LexedStatement lexed;
  lexed.sql = sql;
  lexed.tokens.reserve(sql.size() / 4 + 2);
  lexed.key.reserve(sql.size());
  Lexer lexer(lexed.sql);
  StatementWriter writer(lexed.sql, 0, &lexed);
  Token tok;
  bool gap = false;
  while (true) {
    FLOCK_RETURN_NOT_OK(lexer.Next(&tok, &gap));
    if (tok.type == TokenType::kEof) break;
    writer.Add(std::move(tok), gap);
  }
  writer.Finish(lexed.sql.size());
  return lexed;
}

StatusOr<std::vector<LexedStatement>> LexScript(const std::string& script) {
  std::vector<LexedStatement> out;
  Lexer lexer(script);
  Token tok;
  bool gap = false;
  while (true) {
    // One statement: its tokens up to a ';' or the end of the script,
    // re-based onto the statement's own text.
    LexedStatement lexed;
    std::optional<StatementWriter> writer;
    size_t begin = 0, end = 0;
    while (true) {
      FLOCK_RETURN_NOT_OK(lexer.Next(&tok, &gap));
      if (tok.type == TokenType::kEof || tok.type == TokenType::kSemicolon) {
        break;
      }
      if (!writer.has_value()) {
        begin = tok.offset;
        writer.emplace(script, begin, &lexed);
      }
      end = tok.end;
      writer->Add(std::move(tok), gap);
    }
    if (writer.has_value()) {
      writer->Finish(end);
      lexed.sql = script.substr(begin, end - begin);
      out.push_back(std::move(lexed));
      lexer.RestartSlots();
    }
    if (tok.type == TokenType::kEof) break;
  }
  return out;
}

}  // namespace flock::sql
