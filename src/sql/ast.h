// Abstract syntax tree for the decision-support SQL subset.
//
// The subset covers what the paper's workloads need: multi-way joins
// (comma-style and JOIN..ON), conjunctive/disjunctive predicates, equality /
// inequality / BETWEEN / IN-list comparisons, IN/EXISTS nested subqueries,
// the five standard aggregates, GROUP BY / HAVING / ORDER BY / LIMIT.
//
// Expressions use a single tagged struct rather than a class hierarchy: the
// consumer set is small (feature extraction, logical plan building,
// selectivity modeling) and a flat representation keeps those walks simple.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace qpp::sql {

struct SelectStmt;

enum class ExprKind {
  kColumnRef,   ///< [table.]column
  kLiteral,     ///< number or 'string'
  kStar,        ///< * (only inside COUNT(*) or SELECT *)
  kCompare,     ///< left <op> right
  kLogical,     ///< left AND/OR right
  kNot,         ///< NOT left
  kArith,       ///< left +|-|*|/ right
  kBetween,     ///< left BETWEEN lo AND hi
  kInList,      ///< left IN (literal, ...)
  kInSubquery,  ///< left [NOT] IN (SELECT ...)
  kExists,      ///< [NOT] EXISTS (SELECT ...)
  kAgg,         ///< SUM/COUNT/AVG/MIN/MAX([DISTINCT] arg | *)
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };
enum class AggFunc { kSum, kCount, kAvg, kMin, kMax };

const char* CompareOpName(CompareOp op);
const char* ArithOpName(ArithOp op);
const char* AggFuncName(AggFunc f);

struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kColumnRef
  std::string table;   ///< alias or table name; empty when unqualified
  std::string column;

  // kLiteral
  double num = 0.0;
  std::string str;
  bool is_string = false;
  bool is_integer = false;

  // kCompare / kLogical / kArith / kNot / kBetween / kInList / kAgg operand
  CompareOp cmp = CompareOp::kEq;
  ArithOp arith = ArithOp::kAdd;
  bool is_and = true;  ///< for kLogical: AND vs OR
  std::unique_ptr<Expr> left;
  std::unique_ptr<Expr> right;

  // kBetween
  std::unique_ptr<Expr> lo;
  std::unique_ptr<Expr> hi;

  // kInList: literal members
  std::vector<Expr> list;

  // kInSubquery / kExists
  std::shared_ptr<SelectStmt> subquery;
  bool negated = false;

  // kAgg
  AggFunc agg = AggFunc::kCount;
  bool distinct = false;

  Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;
  Expr(Expr&&) = default;
  Expr& operator=(Expr&&) = default;

  /// Deep copy.
  Expr Clone() const;

  /// Unparses to SQL text (round-trips through the parser).
  std::string ToString() const;
  /// Appends ToString() to `out`.
  void AppendTo(std::string* out) const;
};

/// An AND (or OR) node over two operands.
Expr MakeLogical(bool is_and, Expr left, Expr right);

struct SelectItem {
  Expr expr;
  std::string alias;  ///< empty when none
};

struct TableRef {
  std::string table;
  std::string alias;  ///< empty when none; lookups fall back to table name

  /// The name predicates use to reference this table.
  const std::string& EffectiveName() const {
    return alias.empty() ? table : alias;
  }
};

struct OrderItem {
  Expr expr;
  bool ascending = true;
};

/// A parsed SELECT statement.
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::unique_ptr<Expr> where;   ///< null when absent
  std::vector<Expr> group_by;
  std::unique_ptr<Expr> having;  ///< null when absent
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  SelectStmt() = default;
  SelectStmt(const SelectStmt&) = delete;
  SelectStmt& operator=(const SelectStmt&) = delete;
  SelectStmt(SelectStmt&&) = default;
  SelectStmt& operator=(SelectStmt&&) = default;

  /// Unparses to SQL text.
  std::string ToString() const;
};

/// The top-level AND conjuncts of a predicate tree, left to right, as
/// pointers into it.
std::vector<const Expr*> SplitConjuncts(const Expr& predicate);

}  // namespace qpp::sql
