#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace flock::sql {

using storage::DataType;
using storage::Value;

StatusOr<StatementPtr> Parser::Parse(const std::string& sql) {
  FLOCK_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return Parse(tokens);
}

StatusOr<StatementPtr> Parser::Parse(const std::vector<Token>& tokens) {
  if (tokens.empty() || tokens.back().type != TokenType::kEof) {
    return Status::InvalidArgument("token list does not end with kEof");
  }
  Parser parser(tokens);
  FLOCK_ASSIGN_OR_RETURN(StatementPtr stmt, parser.ParseStatement());
  parser.Match(TokenType::kSemicolon);
  if (!parser.Check(TokenType::kEof)) {
    return Status::ParseError("trailing input after statement near '" +
                              TokenSpelling(parser.Peek()) + "'");
  }
  return stmt;
}

StatusOr<ExprPtr> Parser::ParseExpression(const std::string& text) {
  FLOCK_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(tokens);
  FLOCK_ASSIGN_OR_RETURN(ExprPtr e, parser.ParseExpr());
  if (!parser.Check(TokenType::kEof)) {
    return Status::ParseError("trailing input after expression");
  }
  return e;
}

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;
  return tokens_[i];
}

const Token& Parser::Advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::Check(TokenType t) const { return Peek().type == t; }

bool Parser::CheckKeyword(const std::string& kw) const {
  return Peek().type == TokenType::kKeyword && Peek().text == kw;
}

bool Parser::MatchKeyword(const std::string& kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::Match(TokenType t) {
  if (Check(t)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType t, const std::string& what) {
  if (!Check(t)) {
    return Status::ParseError("expected " + what + " near '" +
                              TokenSpelling(Peek()) + "' at offset " +
                              std::to_string(Peek().offset));
  }
  Advance();
  return Status::OK();
}

Status Parser::ExpectKeyword(const std::string& kw) {
  if (!CheckKeyword(kw)) {
    return Status::ParseError("expected " + kw + " near '" +
                              TokenSpelling(Peek()) + "'");
  }
  Advance();
  return Status::OK();
}

StatusOr<StatementPtr> Parser::ParseStatement() {
  if (CheckKeyword("EXPLAIN")) {
    Advance();
    bool analyze = false;
    if (CheckKeyword("ANALYZE")) {
      Advance();
      analyze = true;
    }
    FLOCK_ASSIGN_OR_RETURN(StatementPtr inner, ParseStatement());
    auto stmt = std::make_unique<ExplainStatement>();
    stmt->inner = std::move(inner);
    stmt->analyze = analyze;
    return StatementPtr(std::move(stmt));
  }
  if (CheckKeyword("SELECT")) {
    FLOCK_ASSIGN_OR_RETURN(auto select, ParseSelect());
    return StatementPtr(std::move(select));
  }
  if (CheckKeyword("INSERT")) return ParseInsert();
  if (CheckKeyword("UPDATE")) return ParseUpdate();
  if (CheckKeyword("DELETE")) return ParseDelete();
  if (CheckKeyword("CREATE")) return ParseCreate();
  if (CheckKeyword("DROP")) return ParseDrop();
  return Status::ParseError("unexpected start of statement: '" +
                            TokenSpelling(Peek()) + "'");
}

StatusOr<std::unique_ptr<SelectStatement>> Parser::ParseSelect() {
  FLOCK_RETURN_NOT_OK(ExpectKeyword("SELECT"));
  auto stmt = std::make_unique<SelectStatement>();
  stmt->distinct = MatchKeyword("DISTINCT");
  if (stmt->distinct) {
    // no-op; ALL is the default
  } else {
    MatchKeyword("ALL");
  }

  // Select list.
  while (true) {
    SelectItem item;
    if (Check(TokenType::kStar)) {
      Advance();
      item.expr = Expr::MakeStar();
    } else {
      FLOCK_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("AS")) {
        if (!Check(TokenType::kIdentifier) &&
            !Check(TokenType::kKeyword)) {
          return Status::ParseError("expected alias after AS");
        }
        item.alias = Advance().text;
      } else if (Check(TokenType::kIdentifier)) {
        item.alias = Advance().text;
      }
    }
    stmt->select_list.push_back(std::move(item));
    if (!Match(TokenType::kComma)) break;
  }

  if (MatchKeyword("FROM")) {
    FLOCK_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
    // Joins.
    while (true) {
      JoinClause join;
      if (MatchKeyword("CROSS")) {
        FLOCK_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        join.type = JoinType::kCross;
        FLOCK_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        stmt->joins.push_back(std::move(join));
        continue;
      }
      bool left = false;
      if (CheckKeyword("LEFT")) {
        Advance();
        MatchKeyword("OUTER");
        left = true;
      } else if (CheckKeyword("INNER")) {
        Advance();
      } else if (!CheckKeyword("JOIN")) {
        if (Match(TokenType::kComma)) {
          // Comma join == cross join.
          join.type = JoinType::kCross;
          FLOCK_ASSIGN_OR_RETURN(join.table, ParseTableRef());
          stmt->joins.push_back(std::move(join));
          continue;
        }
        break;
      }
      FLOCK_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      join.type = left ? JoinType::kLeft : JoinType::kInner;
      FLOCK_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      FLOCK_RETURN_NOT_OK(ExpectKeyword("ON"));
      FLOCK_ASSIGN_OR_RETURN(join.condition, ParseExpr());
      stmt->joins.push_back(std::move(join));
    }
  }

  if (MatchKeyword("WHERE")) {
    FLOCK_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }

  if (MatchKeyword("GROUP")) {
    FLOCK_RETURN_NOT_OK(ExpectKeyword("BY"));
    while (true) {
      FLOCK_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
      if (!Match(TokenType::kComma)) break;
    }
  }

  if (MatchKeyword("HAVING")) {
    FLOCK_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }

  if (MatchKeyword("ORDER")) {
    FLOCK_RETURN_NOT_OK(ExpectKeyword("BY"));
    while (true) {
      OrderByItem item;
      FLOCK_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        MatchKeyword("ASC");
      }
      stmt->order_by.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
  }

  if (MatchKeyword("LIMIT")) {
    FLOCK_RETURN_NOT_OK(ParseCount("LIMIT", &stmt->limit, &stmt->limit_slot));
  }
  if (MatchKeyword("OFFSET")) {
    FLOCK_RETURN_NOT_OK(
        ParseCount("OFFSET", &stmt->offset, &stmt->offset_slot));
  }

  return stmt;
}

Status Parser::ParseCount(const char* clause, std::optional<int64_t>* value,
                          int* slot) {
  if (!Check(TokenType::kNumber)) {
    return Status::ParseError(std::string("expected number after ") +
                              clause);
  }
  const Token& tok = Advance();
  if (tok.is_integer) {
    *value = tok.integer;
  } else if (tok.number >= -9.2e18 && tok.number <= 9.2e18) {
    *value = static_cast<int64_t>(tok.number);
  } else {
    return Status::ParseError(std::string(clause) + " out of range");
  }
  *slot = static_cast<int>(tok.slot);
  return Status::OK();
}

StatusOr<TableRef> Parser::ParseTableRef() {
  if (!Check(TokenType::kIdentifier)) {
    return Status::ParseError("expected table name near '" +
                              TokenSpelling(Peek()) + "'");
  }
  TableRef ref;
  ref.table_name = Advance().text;
  if (MatchKeyword("AS")) {
    if (!Check(TokenType::kIdentifier)) {
      return Status::ParseError("expected alias after AS");
    }
    ref.alias = Advance().text;
  } else if (Check(TokenType::kIdentifier)) {
    ref.alias = Advance().text;
  }
  return ref;
}

StatusOr<StatementPtr> Parser::ParseInsert() {
  FLOCK_RETURN_NOT_OK(ExpectKeyword("INSERT"));
  FLOCK_RETURN_NOT_OK(ExpectKeyword("INTO"));
  auto stmt = std::make_unique<InsertStatement>();
  if (!Check(TokenType::kIdentifier)) {
    return Status::ParseError("expected table name in INSERT");
  }
  stmt->table_name = Advance().text;

  if (Match(TokenType::kLParen)) {
    while (true) {
      if (!Check(TokenType::kIdentifier)) {
        return Status::ParseError("expected column name in INSERT list");
      }
      stmt->columns.push_back(Advance().text);
      if (!Match(TokenType::kComma)) break;
    }
    FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
  }

  if (CheckKeyword("SELECT")) {
    FLOCK_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    return StatementPtr(std::move(stmt));
  }

  FLOCK_RETURN_NOT_OK(ExpectKeyword("VALUES"));
  while (true) {
    FLOCK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    std::vector<ExprPtr> row;
    while (true) {
      FLOCK_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      row.push_back(std::move(e));
      if (!Match(TokenType::kComma)) break;
    }
    FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    stmt->rows.push_back(std::move(row));
    if (!Match(TokenType::kComma)) break;
  }
  return StatementPtr(std::move(stmt));
}

StatusOr<StatementPtr> Parser::ParseUpdate() {
  FLOCK_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
  auto stmt = std::make_unique<UpdateStatement>();
  if (!Check(TokenType::kIdentifier)) {
    return Status::ParseError("expected table name in UPDATE");
  }
  stmt->table_name = Advance().text;
  FLOCK_RETURN_NOT_OK(ExpectKeyword("SET"));
  while (true) {
    if (!Check(TokenType::kIdentifier)) {
      return Status::ParseError("expected column name in SET");
    }
    std::string col = Advance().text;
    FLOCK_RETURN_NOT_OK(Expect(TokenType::kEq, "'='"));
    FLOCK_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    stmt->assignments.emplace_back(std::move(col), std::move(e));
    if (!Match(TokenType::kComma)) break;
  }
  if (MatchKeyword("WHERE")) {
    FLOCK_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StatementPtr(std::move(stmt));
}

StatusOr<StatementPtr> Parser::ParseDelete() {
  FLOCK_RETURN_NOT_OK(ExpectKeyword("DELETE"));
  FLOCK_RETURN_NOT_OK(ExpectKeyword("FROM"));
  auto stmt = std::make_unique<DeleteStatement>();
  if (!Check(TokenType::kIdentifier)) {
    return Status::ParseError("expected table name in DELETE");
  }
  stmt->table_name = Advance().text;
  if (MatchKeyword("WHERE")) {
    FLOCK_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StatementPtr(std::move(stmt));
}

StatusOr<StatementPtr> Parser::ParseCreate() {
  FLOCK_RETURN_NOT_OK(ExpectKeyword("CREATE"));
  if (MatchKeyword("MODEL")) {
    auto stmt = std::make_unique<CreateModelStatement>();
    if (!Check(TokenType::kIdentifier)) {
      return Status::ParseError("expected model name");
    }
    stmt->model_name = Advance().text;
    FLOCK_RETURN_NOT_OK(ExpectKeyword("FROM"));
    if (!Check(TokenType::kString)) {
      return Status::ParseError(
          "expected serialized pipeline string after FROM");
    }
    stmt->definition = Advance().text;
    return StatementPtr(std::move(stmt));
  }
  FLOCK_RETURN_NOT_OK(ExpectKeyword("TABLE"));
  auto stmt = std::make_unique<CreateTableStatement>();
  if (!Check(TokenType::kIdentifier)) {
    return Status::ParseError("expected table name in CREATE TABLE");
  }
  stmt->table_name = Advance().text;
  FLOCK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
  while (true) {
    if (MatchKeyword("PRIMARY")) {
      // PRIMARY KEY (col, ...) — accepted and recorded as a no-op
      // constraint; Flock does not enforce uniqueness.
      FLOCK_RETURN_NOT_OK(ExpectKeyword("KEY"));
      FLOCK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      while (!Check(TokenType::kRParen)) Advance();
      FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    } else {
      if (!Check(TokenType::kIdentifier)) {
        return Status::ParseError("expected column name near '" +
                                  TokenSpelling(Peek()) + "'");
      }
      storage::ColumnDef def;
      def.name = Advance().text;
      if (!Check(TokenType::kIdentifier) && !Check(TokenType::kKeyword)) {
        return Status::ParseError("expected type for column " + def.name);
      }
      std::string type_name = Advance().text;
      FLOCK_ASSIGN_OR_RETURN(def.type, storage::DataTypeFromName(type_name));
      // Optional (n) length, e.g. VARCHAR(25), DECIMAL(15,2).
      if (Match(TokenType::kLParen)) {
        while (!Check(TokenType::kRParen) && !Check(TokenType::kEof)) {
          Advance();
        }
        FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      }
      // Optional NOT NULL.
      if (MatchKeyword("NOT")) {
        FLOCK_RETURN_NOT_OK(ExpectKeyword("NULL"));
        def.nullable = false;
      } else if (MatchKeyword("NULL")) {
        def.nullable = true;
      }
      stmt->schema.AddColumn(std::move(def));
    }
    if (!Match(TokenType::kComma)) break;
  }
  FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
  return StatementPtr(std::move(stmt));
}

StatusOr<StatementPtr> Parser::ParseDrop() {
  FLOCK_RETURN_NOT_OK(ExpectKeyword("DROP"));
  if (MatchKeyword("MODEL")) {
    auto stmt = std::make_unique<DropModelStatement>();
    if (!Check(TokenType::kIdentifier)) {
      return Status::ParseError("expected model name");
    }
    stmt->model_name = Advance().text;
    return StatementPtr(std::move(stmt));
  }
  FLOCK_RETURN_NOT_OK(ExpectKeyword("TABLE"));
  auto stmt = std::make_unique<DropTableStatement>();
  if (!Check(TokenType::kIdentifier)) {
    return Status::ParseError("expected table name in DROP TABLE");
  }
  stmt->table_name = Advance().text;
  return StatementPtr(std::move(stmt));
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

StatusOr<ExprPtr> Parser::ParseExpr() {
  FLOCK_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (MatchKeyword("OR")) {
    FLOCK_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = Expr::MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<ExprPtr> Parser::ParseAnd() {
  FLOCK_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (MatchKeyword("AND")) {
    FLOCK_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = Expr::MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<ExprPtr> Parser::ParseNot() {
  if (MatchKeyword("NOT")) {
    FLOCK_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return Expr::MakeUnary(UnaryOp::kNot, std::move(operand));
  }
  return ParseComparison();
}

StatusOr<ExprPtr> Parser::ParseComparison() {
  FLOCK_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  while (true) {
    BinaryOp op;
    if (Match(TokenType::kEq)) {
      op = BinaryOp::kEq;
    } else if (Match(TokenType::kNotEq)) {
      op = BinaryOp::kNotEq;
    } else if (Match(TokenType::kLtEq)) {
      op = BinaryOp::kLtEq;
    } else if (Match(TokenType::kLt)) {
      op = BinaryOp::kLt;
    } else if (Match(TokenType::kGtEq)) {
      op = BinaryOp::kGtEq;
    } else if (Match(TokenType::kGt)) {
      op = BinaryOp::kGt;
    } else if (CheckKeyword("LIKE") ||
               (CheckKeyword("NOT") && Peek(1).text == "LIKE")) {
      bool negated = MatchKeyword("NOT");
      FLOCK_RETURN_NOT_OK(ExpectKeyword("LIKE"));
      FLOCK_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      ExprPtr like = Expr::MakeBinary(BinaryOp::kLike, std::move(lhs),
                                      std::move(rhs));
      lhs = negated ? Expr::MakeUnary(UnaryOp::kNot, std::move(like))
                    : std::move(like);
      continue;
    } else if (CheckKeyword("IS")) {
      Advance();
      bool negated = MatchKeyword("NOT");
      FLOCK_RETURN_NOT_OK(ExpectKeyword("NULL"));
      lhs = Expr::MakeIsNull(std::move(lhs), negated);
      continue;
    } else if (CheckKeyword("IN") ||
               (CheckKeyword("NOT") && Peek(1).text == "IN")) {
      bool negated = MatchKeyword("NOT");
      FLOCK_RETURN_NOT_OK(ExpectKeyword("IN"));
      FLOCK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      auto in = std::make_unique<Expr>();
      in->kind = ExprKind::kIn;
      in->negated = negated;
      in->children.push_back(std::move(lhs));
      while (true) {
        FLOCK_ASSIGN_OR_RETURN(ExprPtr option, ParseExpr());
        in->children.push_back(std::move(option));
        if (!Match(TokenType::kComma)) break;
      }
      FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      lhs = std::move(in);
      continue;
    } else if (CheckKeyword("BETWEEN") ||
               (CheckKeyword("NOT") && Peek(1).text == "BETWEEN")) {
      bool negated = MatchKeyword("NOT");
      FLOCK_RETURN_NOT_OK(ExpectKeyword("BETWEEN"));
      FLOCK_ASSIGN_OR_RETURN(ExprPtr low, ParseAdditive());
      FLOCK_RETURN_NOT_OK(ExpectKeyword("AND"));
      FLOCK_ASSIGN_OR_RETURN(ExprPtr high, ParseAdditive());
      auto between = std::make_unique<Expr>();
      between->kind = ExprKind::kBetween;
      between->negated = negated;
      between->children.push_back(std::move(lhs));
      between->children.push_back(std::move(low));
      between->children.push_back(std::move(high));
      lhs = std::move(between);
      continue;
    } else {
      break;
    }
    FLOCK_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<ExprPtr> Parser::ParseAdditive() {
  FLOCK_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (Match(TokenType::kPlus)) {
      op = BinaryOp::kAdd;
    } else if (Match(TokenType::kMinus)) {
      op = BinaryOp::kSub;
    } else {
      break;
    }
    FLOCK_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<ExprPtr> Parser::ParseMultiplicative() {
  FLOCK_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (true) {
    BinaryOp op;
    if (Match(TokenType::kStar)) {
      op = BinaryOp::kMul;
    } else if (Match(TokenType::kSlash)) {
      op = BinaryOp::kDiv;
    } else if (Match(TokenType::kPercent)) {
      op = BinaryOp::kMod;
    } else {
      break;
    }
    FLOCK_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<ExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    FLOCK_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    return Expr::MakeUnary(UnaryOp::kNeg, std::move(operand));
  }
  if (Match(TokenType::kPlus)) {
    return ParseUnary();
  }
  return ParsePrimary();
}

StatusOr<ExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kNumber:
    case TokenType::kString: {
      Advance();
      ExprPtr literal = Expr::MakeLiteral(
          tok.type == TokenType::kString ? Value::String(tok.text)
          : tok.is_integer              ? Value::Int(tok.integer)
                                        : Value::Double(tok.number));
      literal->param_slot = static_cast<int>(tok.slot);
      return literal;
    }
    case TokenType::kLParen: {
      Advance();
      FLOCK_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return e;
    }
    case TokenType::kKeyword: {
      if (tok.text == "NULL") {
        Advance();
        return Expr::MakeLiteral(Value::Null());
      }
      if (tok.text == "TRUE") {
        Advance();
        return Expr::MakeLiteral(Value::Bool(true));
      }
      if (tok.text == "FALSE") {
        Advance();
        return Expr::MakeLiteral(Value::Bool(false));
      }
      if (tok.text == "CAST") {
        Advance();
        FLOCK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        FLOCK_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
        FLOCK_RETURN_NOT_OK(ExpectKeyword("AS"));
        if (!Check(TokenType::kIdentifier) && !Check(TokenType::kKeyword)) {
          return Status::ParseError("expected type name in CAST");
        }
        std::string type_name = Advance().text;
        FLOCK_ASSIGN_OR_RETURN(DataType type,
                               storage::DataTypeFromName(type_name));
        FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        return Expr::MakeCast(std::move(operand), type);
      }
      if (tok.text == "CASE") {
        Advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kCase;
        while (MatchKeyword("WHEN")) {
          FLOCK_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
          FLOCK_RETURN_NOT_OK(ExpectKeyword("THEN"));
          FLOCK_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
          e->children.push_back(std::move(when));
          e->children.push_back(std::move(then));
        }
        if (e->children.empty()) {
          return Status::ParseError("CASE requires at least one WHEN");
        }
        if (MatchKeyword("ELSE")) {
          FLOCK_ASSIGN_OR_RETURN(ExprPtr other, ParseExpr());
          e->children.push_back(std::move(other));
          e->has_else = true;
        }
        FLOCK_RETURN_NOT_OK(ExpectKeyword("END"));
        return StatusOr<ExprPtr>(std::move(e));
      }
      if (tok.text == "PREDICT") {
        // PREDICT(model_name, arg, ...) — the in-DBMS scoring intrinsic.
        Advance();
        FLOCK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        std::vector<ExprPtr> args;
        if (!Check(TokenType::kRParen)) {
          while (true) {
            FLOCK_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            args.push_back(std::move(arg));
            if (!Match(TokenType::kComma)) break;
          }
        }
        FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        return Expr::MakeFunction("PREDICT", std::move(args));
      }
      return Status::ParseError("unexpected keyword '" + TokenSpelling(tok) +
                                "' in expression");
    }
    case TokenType::kStar:
      Advance();
      return Expr::MakeStar();
    case TokenType::kIdentifier: {
      std::string first = Advance().text;
      // Function call?
      if (Check(TokenType::kLParen)) {
        Advance();
        std::vector<ExprPtr> args;
        bool distinct = MatchKeyword("DISTINCT");
        if (!Check(TokenType::kRParen)) {
          while (true) {
            if (Check(TokenType::kStar)) {
              Advance();
              args.push_back(Expr::MakeStar());
            } else {
              FLOCK_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
            }
            if (!Match(TokenType::kComma)) break;
          }
        }
        FLOCK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        ExprPtr fn = Expr::MakeFunction(first, std::move(args));
        fn->distinct = distinct;
        return fn;
      }
      // Qualified column: table.column
      if (Match(TokenType::kDot)) {
        if (Check(TokenType::kStar)) {
          Advance();
          // table.* — treated as bare * scoped by the planner.
          ExprPtr star = Expr::MakeStar();
          star->table_name = first;
          return star;
        }
        if (!Check(TokenType::kIdentifier)) {
          return Status::ParseError("expected column after '" + first +
                                    ".'");
        }
        std::string column = Advance().text;
        return Expr::MakeColumnRef(first, column);
      }
      return Expr::MakeColumnRef("", first);
    }
    default:
      return Status::ParseError("unexpected token '" + TokenSpelling(tok) +
                                "' in expression");
  }
}

}  // namespace flock::sql
