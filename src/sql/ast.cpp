#include "sql/ast.h"

#include <charconv>

#include "common/check.h"
#include "common/str_util.h"

namespace qpp::sql {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum: return "SUM";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "?";
}

namespace {

std::unique_ptr<Expr> ClonePtr(const std::unique_ptr<Expr>& p) {
  if (!p) return nullptr;
  return std::make_unique<Expr>(p->Clone());
}

void AppendInt(long long v, std::string* out) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

/// An integer literal as "%lld" of its long long value, any other number
/// as "%.12g".
void AppendNumber(double num, bool is_integer, std::string* out) {
  if (is_integer && num >= -0x1p63 && num < 0x1p63) {
    AppendInt(static_cast<long long>(num), out);
  } else if (is_integer) {
    // Beyond long long: the double's exact integer value.
    out->append(StrFormat("%.0f", num));
  } else {
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof buf, num,
                                    std::chars_format::general, 12)
                          .ptr;
    out->append(buf, static_cast<size_t>(end - buf));
  }
}

void CollectConjuncts(const Expr& predicate, std::vector<const Expr*>* out) {
  if (predicate.kind == ExprKind::kLogical && predicate.is_and) {
    QPP_CHECK(predicate.left && predicate.right);
    CollectConjuncts(*predicate.left, out);
    CollectConjuncts(*predicate.right, out);
    return;
  }
  out->push_back(&predicate);
}

}  // namespace

Expr Expr::Clone() const {
  Expr e;
  e.kind = kind;
  e.table = table;
  e.column = column;
  e.num = num;
  e.str = str;
  e.is_string = is_string;
  e.is_integer = is_integer;
  e.cmp = cmp;
  e.arith = arith;
  e.is_and = is_and;
  e.left = ClonePtr(left);
  e.right = ClonePtr(right);
  e.lo = ClonePtr(lo);
  e.hi = ClonePtr(hi);
  e.list.reserve(list.size());
  for (const Expr& x : list) e.list.push_back(x.Clone());
  e.subquery = subquery;  // subqueries are shared (immutable after parse)
  e.negated = negated;
  e.agg = agg;
  e.distinct = distinct;
  return e;
}

std::string Expr::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Expr::AppendTo(std::string* out) const {
  switch (kind) {
    case ExprKind::kColumnRef:
      if (!table.empty()) {
        out->append(table);
        out->push_back('.');
      }
      out->append(column);
      break;
    case ExprKind::kLiteral:
      if (is_string) {
        out->push_back('\'');
        for (char c : str) {
          out->push_back(c);
          if (c == '\'') out->push_back('\'');
        }
        out->push_back('\'');
      } else {
        AppendNumber(num, is_integer, out);
      }
      break;
    case ExprKind::kStar:
      out->push_back('*');
      break;
    case ExprKind::kCompare:
      left->AppendTo(out);
      out->push_back(' ');
      out->append(CompareOpName(cmp));
      out->push_back(' ');
      right->AppendTo(out);
      break;
    case ExprKind::kLogical:
      out->push_back('(');
      left->AppendTo(out);
      out->append(is_and ? " AND " : " OR ");
      right->AppendTo(out);
      out->push_back(')');
      break;
    case ExprKind::kNot:
      out->append("NOT (");
      left->AppendTo(out);
      out->push_back(')');
      break;
    case ExprKind::kArith:
      out->push_back('(');
      left->AppendTo(out);
      out->push_back(' ');
      out->append(ArithOpName(arith));
      out->push_back(' ');
      right->AppendTo(out);
      out->push_back(')');
      break;
    case ExprKind::kBetween:
      left->AppendTo(out);
      out->append(" BETWEEN ");
      lo->AppendTo(out);
      out->append(" AND ");
      hi->AppendTo(out);
      break;
    case ExprKind::kInList:
      left->AppendTo(out);
      out->append(" IN (");
      for (size_t i = 0; i < list.size(); ++i) {
        if (i > 0) out->append(", ");
        list[i].AppendTo(out);
      }
      out->push_back(')');
      break;
    case ExprKind::kInSubquery:
      left->AppendTo(out);
      out->append(negated ? " NOT IN (" : " IN (");
      out->append(subquery->ToString());
      out->push_back(')');
      break;
    case ExprKind::kExists:
      out->append(negated ? "NOT EXISTS (" : "EXISTS (");
      out->append(subquery->ToString());
      out->push_back(')');
      break;
    case ExprKind::kAgg:
      out->append(AggFuncName(agg));
      out->push_back('(');
      if (distinct) out->append("DISTINCT ");
      if (left) {
        left->AppendTo(out);
      } else {
        out->push_back('*');
      }
      out->push_back(')');
      break;
  }
}

Expr MakeLogical(bool is_and, Expr left, Expr right) {
  Expr e;
  e.kind = ExprKind::kLogical;
  e.is_and = is_and;
  e.left = std::make_unique<Expr>(std::move(left));
  e.right = std::make_unique<Expr>(std::move(right));
  return e;
}

std::string SelectStmt::ToString() const {
  std::string out;
  out.append("SELECT ");
  if (distinct) out.append("DISTINCT ");
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.append(", ");
    items[i].expr.AppendTo(&out);
    if (!items[i].alias.empty()) {
      out.append(" AS ");
      out.append(items[i].alias);
    }
  }
  out.append(" FROM ");
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(from[i].table);
    if (!from[i].alias.empty()) {
      out.push_back(' ');
      out.append(from[i].alias);
    }
  }
  if (where) {
    out.append(" WHERE ");
    where->AppendTo(&out);
  }
  if (!group_by.empty()) {
    out.append(" GROUP BY ");
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out.append(", ");
      group_by[i].AppendTo(&out);
    }
  }
  if (having) {
    out.append(" HAVING ");
    having->AppendTo(&out);
  }
  if (!order_by.empty()) {
    out.append(" ORDER BY ");
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out.append(", ");
      order_by[i].expr.AppendTo(&out);
      if (!order_by[i].ascending) out.append(" DESC");
    }
  }
  if (limit) {
    out.append(" LIMIT ");
    AppendInt(*limit, &out);
  }
  return out;
}

std::vector<const Expr*> SplitConjuncts(const Expr& predicate) {
  std::vector<const Expr*> out;
  CollectConjuncts(predicate, &out);
  return out;
}

}  // namespace qpp::sql
