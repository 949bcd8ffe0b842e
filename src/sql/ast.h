#ifndef FLOCK_SQL_AST_H_
#define FLOCK_SQL_AST_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"

namespace flock::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,       // SELECT * or COUNT(*)
  kBinary,
  kUnary,
  kFunction,   // scalar or aggregate call, incl. PREDICT(model, ...)
  kCase,       // children: [when1, then1, ..., else?]; see has_else
  kIn,         // children: [needle, option1, option2, ...]
  kBetween,    // children: [value, low, high]
  kCast,
  kIsNull,     // children: [value]; negated => IS NOT NULL
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNotEq,
  kLt,
  kLtEq,
  kGt,
  kGtEq,
  kAnd,
  kOr,
  kLike,
};

enum class UnaryOp { kNeg, kNot };

const char* BinaryOpName(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One node in an expression tree.
///
/// A single struct (rather than a class hierarchy) keeps the rewriting
/// optimizer — including Flock's SQLxML cross-optimizer, which pattern-matches
/// and rebuilds these trees — straightforward: Clone/compare/mutate without
/// visitors.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  storage::Value literal;
  /// The statement parameter this literal was written as (its index among
  /// the statement's number and string literals, LexedStatement::params),
  /// or -1 when no literal of the statement text is its source (NULL,
  /// TRUE, a folded constant, a name a rewrite wrote). Clone keeps it, so
  /// a cached plan can take new values wherever a rewrite moved it.
  int param_slot = -1;

  // kColumnRef
  std::string table_name;   // optional qualifier
  std::string column_name;
  int column_index = -1;    // resolved by the planner; -1 = unbound
  storage::DataType resolved_type = storage::DataType::kInt64;

  // kBinary / kUnary
  BinaryOp bin_op = BinaryOp::kAdd;
  UnaryOp un_op = UnaryOp::kNeg;

  // kFunction
  std::string function_name;  // upper-cased
  bool distinct = false;

  // kCase
  bool has_else = false;

  // kCast
  storage::DataType cast_type = storage::DataType::kInt64;

  // kIsNull
  bool negated = false;  // also reused by NOT IN / NOT BETWEEN / NOT LIKE

  std::vector<ExprPtr> children;

  ExprPtr Clone() const;
  /// SQL-like rendering. With `shape`, every literal the statement text
  /// wrote (param_slot >= 0) renders as its typed slot, `?i`, `?d` or
  /// `?s`, as in LexedStatement::key.
  std::string ToString(bool shape = false) const;

  /// Structural equality (ignores resolved column indexes). Comparing two
  /// literals reads their values, so it pins their slots (PinScope) unless
  /// both are the same slot.
  bool Equals(const Expr& other) const;

  // -- constructors ---------------------------------------------------------
  static ExprPtr MakeLiteral(storage::Value v);
  static ExprPtr MakeColumnRef(std::string table, std::string column);
  static ExprPtr MakeStar();
  static ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
  static ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args);
  static ExprPtr MakeCast(ExprPtr operand, storage::DataType type);
  static ExprPtr MakeIsNull(ExprPtr operand, bool negated);
};

/// Records which statement parameters (Expr::param_slot) the planning of
/// one statement on this thread read the value of. A plan cached under the
/// statement's shape key (LexedStatement::key) holds for other values of
/// the unpinned slots only: every plan-time step whose outcome depends on
/// a literal's value pins its slot (constant folding, a model named by a
/// string, LIMIT/OFFSET, a column name spelled from literal text, Equals
/// between literals, compression narrowing a feature's range). Steps that
/// run at each execution (lowering, filtering, scoring) read the bound
/// values and pin nothing. Scopes nest; with none installed, pinning is a
/// no-op.
class PinScope {
 public:
  /// Installs a scope for a statement with `num_slots` parameters.
  explicit PinScope(size_t num_slots);
  ~PinScope();

  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

  /// One flag per slot: true when a step read its value.
  const std::vector<bool>& pinned() const { return pinned_; }

 private:
  friend void PinSlot(int slot);

  std::vector<bool> pinned_;
  PinScope* outer_;
};

/// Pins `slot` in the current thread's PinScope; -1 (no slot) is ignored.
void PinSlot(int slot);

/// Pins the slot of every literal in `e`.
void PinLiterals(const Expr& e);

/// True if `name` is one of COUNT/SUM/AVG/MIN/MAX.
bool IsAggregateFunction(const std::string& upper_name);

/// True if `name` is PREDICT or PREDICT_{GT,GE,LT,LE}: the scoring calls
/// whose first argument names a model, bare or quoted, not a column.
bool IsPredictFunction(const std::string& upper_name);

/// True if the tree contains an aggregate call.
bool ContainsAggregate(const Expr& e);

/// Invokes `fn` on every node in the tree (pre-order).
void VisitExpr(const Expr& e, const std::function<void(const Expr&)>& fn);
void VisitExprMutable(Expr* e, const std::function<void(Expr*)>& fn);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kDropTable,
  kCreateModel,
  kDropModel,
  kExplain,
};

struct Statement {
  virtual ~Statement() = default;
  virtual StatementKind kind() const = 0;
};
using StatementPtr = std::unique_ptr<Statement>;

struct TableRef {
  std::string table_name;
  std::string alias;  // empty = none
};

enum class JoinType { kInner, kLeft, kCross };

struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef table;
  ExprPtr condition;  // null for CROSS
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty = derive from expression
};

struct OrderByItem {
  ExprPtr expr;
  bool ascending = true;
};

struct SelectStatement : Statement {
  StatementKind kind() const override { return StatementKind::kSelect; }

  bool distinct = false;
  std::vector<SelectItem> select_list;
  std::optional<TableRef> from;          // SELECT 1 has no FROM
  std::vector<JoinClause> joins;
  ExprPtr where;                         // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;                        // may be null
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;
  std::optional<int64_t> offset;
  /// The parameter slots LIMIT and OFFSET were written as (-1 = none).
  int limit_slot = -1;
  int offset_slot = -1;
};

struct InsertStatement : Statement {
  StatementKind kind() const override { return StatementKind::kInsert; }

  std::string table_name;
  std::vector<std::string> columns;           // empty = all, in order
  std::vector<std::vector<ExprPtr>> rows;     // VALUES rows (literal exprs)
  std::unique_ptr<SelectStatement> select;    // INSERT ... SELECT
};

struct UpdateStatement : Statement {
  StatementKind kind() const override { return StatementKind::kUpdate; }

  std::string table_name;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // may be null
};

struct DeleteStatement : Statement {
  StatementKind kind() const override { return StatementKind::kDelete; }

  std::string table_name;
  ExprPtr where;  // may be null
};

struct CreateTableStatement : Statement {
  StatementKind kind() const override { return StatementKind::kCreateTable; }

  std::string table_name;
  storage::Schema schema;
};

struct DropTableStatement : Statement {
  StatementKind kind() const override { return StatementKind::kDropTable; }

  std::string table_name;
};

/// CREATE MODEL name FROM 'serialized-pipeline-text'
/// Deploys a model as a first-class database object (paper §4.1).
struct CreateModelStatement : Statement {
  StatementKind kind() const override { return StatementKind::kCreateModel; }

  std::string model_name;
  std::string definition;  // serialized ml::Pipeline text
};

struct DropModelStatement : Statement {
  StatementKind kind() const override { return StatementKind::kDropModel; }

  std::string model_name;
};

struct ExplainStatement : Statement {
  StatementKind kind() const override { return StatementKind::kExplain; }

  StatementPtr inner;
  bool analyze = false;  // EXPLAIN ANALYZE: execute and report metrics
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_AST_H_
