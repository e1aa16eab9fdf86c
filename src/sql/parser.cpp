#include "sql/parser.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "common/str_util.h"
#include "sql/lexer.h"

namespace qpp::sql {

namespace {

/// Parser state: a token cursor plus the first error encountered.
/// All Parse* methods return by value and set ok_=false on error; callers
/// must check ok() before trusting results (helpers bail out early).
///
/// Every Parse* method that returns an expression also leaves its tree
/// height (operator levels, 0 for a leaf) in height_; ParseSelect leaves
/// the height of the statement's deepest expression. Both the heights and
/// the descent depth_ are bounded by kMaxExprDepth (see parser.h).
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::shared_ptr<SelectStmt>> ParseStatement() {
    auto stmt = std::make_shared<SelectStmt>();
    ParseSelect(stmt.get());
    if (!ok_) return Status::Error(error_);
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      Fail("unexpected trailing input: " + Peek().ToString());
      return Status::Error(error_);
    }
    return stmt;
  }

 private:
  // Nodes are built on the heap where they will live, so the recursion
  // holds pointers rather than expression bodies.
  using ExprPtr = std::unique_ptr<Expr>;

  static ExprPtr NewExpr(ExprKind kind) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    return e;
  }

  static ExprPtr NewBinary(ExprKind kind, ExprPtr left, ExprPtr right) {
    ExprPtr e = NewExpr(kind);
    e->left = std::move(left);
    e->right = std::move(right);
    return e;
  }

  void ParseSelect(SelectStmt* stmt) {
    int stmt_height = 0;
    const auto note = [&] { stmt_height = std::max(stmt_height, height_); };
    int where_height = 0;
    const auto append_where = [&](ExprPtr cond) {
      if (stmt->where == nullptr) {
        stmt->where = std::move(cond);
        where_height = height_;
        return;
      }
      stmt->where = NewBinary(ExprKind::kLogical, std::move(stmt->where),
                              std::move(cond));
      where_height = Above(where_height, height_);
    };
    if (!ExpectKeyword("SELECT")) return;
    if (Peek().IsKeyword("DISTINCT")) {
      stmt->distinct = true;
      Advance();
    }
    // Select list.
    while (true) {
      SelectItem& item = stmt->items.emplace_back();
      if (Peek().IsSymbol("*")) {
        Advance();
        item.expr.kind = ExprKind::kStar;
      } else {
        ExprPtr e = ParseExpr();
        if (!ok_) return;
        item.expr = std::move(*e);
        note();
        if (Peek().IsKeyword("AS")) {
          Advance();
          item.alias = ExpectIdentifier();
          if (!ok_) return;
        } else if (Peek().type == TokenType::kIdentifier) {
          item.alias = TakeText();
        }
      }
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    if (!ExpectKeyword("FROM")) return;
    // FROM list with comma joins and JOIN..ON.
    stmt->from.push_back(ParseTableRef());
    if (!ok_) return;
    while (true) {
      if (Peek().IsSymbol(",")) {
        Advance();
        stmt->from.push_back(ParseTableRef());
        if (!ok_) return;
        continue;
      }
      if (Peek().IsKeyword("JOIN") || Peek().IsKeyword("INNER") ||
          Peek().IsKeyword("LEFT")) {
        if (Peek().IsKeyword("INNER") || Peek().IsKeyword("LEFT")) Advance();
        if (!ExpectKeyword("JOIN")) return;
        stmt->from.push_back(ParseTableRef());
        if (!ok_) return;
        if (!ExpectKeyword("ON")) return;
        ExprPtr cond = ParseExpr();
        if (!ok_) return;
        append_where(std::move(cond));
        if (!ok_) return;
        continue;
      }
      break;
    }
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      ExprPtr cond = ParseExpr();
      if (!ok_) return;
      append_where(std::move(cond));
      if (!ok_) return;
    }
    height_ = where_height;
    note();
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      if (!ExpectKeyword("BY")) return;
      while (true) {
        ExprPtr g = ParseExpr();
        if (!ok_) return;
        stmt->group_by.push_back(std::move(*g));
        note();
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (Peek().IsKeyword("HAVING")) {
      Advance();
      stmt->having = ParseExpr();
      if (!ok_) return;
      note();
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      if (!ExpectKeyword("BY")) return;
      while (true) {
        OrderItem& item = stmt->order_by.emplace_back();
        ExprPtr e = ParseExpr();
        if (!ok_) return;
        item.expr = std::move(*e);
        note();
        if (Peek().IsKeyword("ASC")) {
          Advance();
        } else if (Peek().IsKeyword("DESC")) {
          item.ascending = false;
          Advance();
        }
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (Peek().IsKeyword("LIMIT")) {
      Advance();
      const Token& t = Peek();
      if (t.type != TokenType::kInteger) {
        Fail("expected integer after LIMIT, got " + t.ToString());
        return;
      }
      // An integer token is all digits, so the one failure is overflow.
      int64_t limit = 0;
      const char* end = t.text.data() + t.text.size();
      const std::from_chars_result read =
          std::from_chars(t.text.data(), end, limit);
      if (read.ec != std::errc() || read.ptr != end) {
        Fail("LIMIT out of range: " + t.text);
        return;
      }
      stmt->limit = limit;
      Advance();
    }
    height_ = stmt_height;
  }

  TableRef ParseTableRef() {
    TableRef ref;
    ref.table = ExpectIdentifier();
    if (!ok_) return ref;
    if (Peek().IsKeyword("AS")) {
      Advance();
      ref.alias = ExpectIdentifier();
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = TakeText();
    }
    return ref;
  }

  // expr := or_expr
  ExprPtr ParseExpr() { return ParseOr(); }

  ExprPtr ParseOr() {
    ExprPtr left = ParseAnd();
    int h = height_;
    while (ok_ && Peek().IsKeyword("OR")) {
      Advance();
      ExprPtr right = ParseAnd();
      if (!ok_) return left;
      left = NewBinary(ExprKind::kLogical, std::move(left), std::move(right));
      left->is_and = false;
      h = Above(h, height_);
    }
    height_ = h;
    return left;
  }

  ExprPtr ParseAnd() {
    ExprPtr left = ParseNot();
    int h = height_;
    while (ok_ && Peek().IsKeyword("AND")) {
      Advance();
      ExprPtr right = ParseNot();
      if (!ok_) return left;
      left = NewBinary(ExprKind::kLogical, std::move(left), std::move(right));
      h = Above(h, height_);
    }
    height_ = h;
    return left;
  }

  ExprPtr ParseNot() {
    if (Peek().IsKeyword("NOT") && !PeekAhead(1).IsKeyword("EXISTS")) {
      Advance();
      if (!Descend()) return nullptr;
      ExprPtr e = NewExpr(ExprKind::kNot);
      e->left = ParseNot();
      --depth_;
      height_ = Above(height_, 0);
      return e;
    }
    return ParsePredicate();
  }

  ExprPtr ParsePredicate() {
    if (Peek().IsKeyword("EXISTS") ||
        (Peek().IsKeyword("NOT") && PeekAhead(1).IsKeyword("EXISTS"))) {
      ExprPtr e = NewExpr(ExprKind::kExists);
      if (Peek().IsKeyword("NOT")) {
        e->negated = true;
        Advance();
      }
      Advance();  // EXISTS
      if (!ExpectSymbol("(")) return e;
      e->subquery = ParseSubquery();
      if (!ok_) return e;
      height_ = Above(height_, 0);
      ExpectSymbol(")");
      return e;
    }

    ExprPtr left = ParseAdditive();
    if (!ok_) return left;
    const int left_height = height_;

    if (Peek().IsKeyword("BETWEEN")) {
      Advance();
      ExprPtr e = NewExpr(ExprKind::kBetween);
      e->left = std::move(left);
      e->lo = ParseAdditive();
      if (!ok_) return e;
      const int lo_height = height_;
      if (!ExpectKeyword("AND")) return e;
      e->hi = ParseAdditive();
      if (!ok_) return e;
      height_ = Above(std::max(left_height, lo_height), height_);
      return e;
    }

    bool negated = false;
    if (Peek().IsKeyword("NOT") && PeekAhead(1).IsKeyword("IN")) {
      negated = true;
      Advance();
    }
    if (Peek().IsKeyword("IN")) {
      Advance();
      if (!ExpectSymbol("(")) return left;
      if (Peek().IsKeyword("SELECT")) {
        ExprPtr e = NewExpr(ExprKind::kInSubquery);
        e->negated = negated;
        e->left = std::move(left);
        e->subquery = ParseSubquery();
        if (!ok_) return e;
        height_ = Above(left_height, height_);
        ExpectSymbol(")");
        return e;
      }
      ExprPtr e = NewExpr(ExprKind::kInList);
      e->negated = negated;
      e->left = std::move(left);
      while (true) {
        ExprPtr lit = ParseFactor();
        if (!ok_) return e;
        if (lit->kind != ExprKind::kLiteral) {
          Fail("IN list members must be literals");
          return e;
        }
        e->list.push_back(std::move(*lit));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      height_ = Above(left_height, 0);
      ExpectSymbol(")");
      return e;
    }
    if (negated) {
      Fail("expected IN after NOT");
      return left;
    }

    // Optional comparison.
    CompareOp op;
    if (PeekCompareOp(&op)) {
      Advance();
      ExprPtr right = ParseAdditive();
      if (!ok_) return left;
      height_ = Above(left_height, height_);
      ExprPtr e =
          NewBinary(ExprKind::kCompare, std::move(left), std::move(right));
      e->cmp = op;
      return e;
    }
    height_ = left_height;
    return left;
  }

  ExprPtr ParseAdditive() {
    ExprPtr left = ParseTerm();
    int h = height_;
    while (ok_ && (Peek().IsSymbol("+") || Peek().IsSymbol("-"))) {
      const ArithOp op =
          Peek().IsSymbol("+") ? ArithOp::kAdd : ArithOp::kSub;
      Advance();
      ExprPtr right = ParseTerm();
      if (!ok_) return left;
      left = NewBinary(ExprKind::kArith, std::move(left), std::move(right));
      left->arith = op;
      h = Above(h, height_);
    }
    height_ = h;
    return left;
  }

  ExprPtr ParseTerm() {
    ExprPtr left = ParseFactor();
    int h = height_;
    while (ok_ && (Peek().IsSymbol("*") || Peek().IsSymbol("/"))) {
      const ArithOp op =
          Peek().IsSymbol("*") ? ArithOp::kMul : ArithOp::kDiv;
      Advance();
      ExprPtr right = ParseFactor();
      if (!ok_) return left;
      left = NewBinary(ExprKind::kArith, std::move(left), std::move(right));
      left->arith = op;
      h = Above(h, height_);
    }
    height_ = h;
    return left;
  }

  ExprPtr ParseFactor() {
    height_ = 0;
    const Token& t = Peek();
    if (t.type == TokenType::kInteger || t.type == TokenType::kNumber) {
      ExprPtr e = NewExpr(ExprKind::kLiteral);
      e->num = t.number;
      e->is_integer = t.type == TokenType::kInteger;
      Advance();
      return e;
    }
    if (t.type == TokenType::kString) {
      ExprPtr e = NewExpr(ExprKind::kLiteral);
      e->str = TakeText();
      e->is_string = true;
      return e;
    }
    if (t.IsSymbol("-")) {
      Advance();
      if (!Descend()) return nullptr;
      ExprPtr inner = ParseFactor();
      --depth_;
      if (!ok_) return inner;
      if (inner->kind == ExprKind::kLiteral && !inner->is_string) {
        inner->num = -inner->num;
        return inner;
      }
      ExprPtr zero = NewExpr(ExprKind::kLiteral);
      zero->is_integer = true;
      ExprPtr e =
          NewBinary(ExprKind::kArith, std::move(zero), std::move(inner));
      e->arith = ArithOp::kSub;
      height_ = Above(height_, 0);
      return e;
    }
    if (t.IsSymbol("(")) {
      Advance();
      if (!Descend()) return nullptr;
      ExprPtr inner = ParseExpr();
      --depth_;
      if (!ok_) return inner;
      ExpectSymbol(")");
      return inner;
    }
    if (t.type == TokenType::kKeyword &&
        (t.text == "SUM" || t.text == "COUNT" || t.text == "AVG" ||
         t.text == "MIN" || t.text == "MAX")) {
      ExprPtr e = NewExpr(ExprKind::kAgg);
      if (t.text == "SUM") e->agg = AggFunc::kSum;
      else if (t.text == "COUNT") e->agg = AggFunc::kCount;
      else if (t.text == "AVG") e->agg = AggFunc::kAvg;
      else if (t.text == "MIN") e->agg = AggFunc::kMin;
      else e->agg = AggFunc::kMax;
      Advance();
      if (!ExpectSymbol("(")) return e;
      if (Peek().IsKeyword("DISTINCT")) {
        e->distinct = true;
        Advance();
      }
      if (Peek().IsSymbol("*")) {
        Advance();  // COUNT(*): left stays null
      } else {
        if (!Descend()) return e;
        e->left = ParseExpr();
        --depth_;
        if (!ok_) return e;
      }
      height_ = Above(height_, 0);
      ExpectSymbol(")");
      return e;
    }
    if (t.type == TokenType::kIdentifier) {
      std::string first = TakeText();
      if (Peek().IsSymbol(".")) {
        Advance();
        if (Peek().IsSymbol("*")) {
          Advance();
          ExprPtr e = NewExpr(ExprKind::kStar);
          e->table = std::move(first);
          return e;
        }
        ExprPtr e = NewExpr(ExprKind::kColumnRef);
        e->table = std::move(first);
        e->column = ExpectIdentifier();
        return e;
      }
      ExprPtr e = NewExpr(ExprKind::kColumnRef);
      e->column = std::move(first);
      return e;
    }
    Fail("unexpected token: " + t.ToString());
    return nullptr;
  }

  /// A parenthesized subquery's statement, one descent level down; leaves
  /// its deepest expression's height in height_.
  std::shared_ptr<SelectStmt> ParseSubquery() {
    if (!Descend()) return nullptr;
    auto sub = std::make_shared<SelectStmt>();
    ParseSelect(sub.get());
    --depth_;
    return sub;
  }

  bool PeekCompareOp(CompareOp* op) {
    const Token& t = Peek();
    if (t.type != TokenType::kSymbol) return false;
    if (t.text == "=") *op = CompareOp::kEq;
    else if (t.text == "<>") *op = CompareOp::kNe;
    else if (t.text == "<") *op = CompareOp::kLt;
    else if (t.text == "<=") *op = CompareOp::kLe;
    else if (t.text == ">") *op = CompareOp::kGt;
    else if (t.text == ">=") *op = CompareOp::kGe;
    else return false;
    return true;
  }

  /// The height of an operator over operands of heights `a` and `b`.
  int Above(int a, int b) {
    const int h = std::max(a, b) + 1;
    if (h > kMaxExprDepth) FailTooDeep();
    return h;
  }

  /// Opens one descent level; false (with the error set) past the bound.
  /// Every caller that gets true closes the level with --depth_.
  bool Descend() {
    if (depth_ >= kMaxExprDepth) {
      FailTooDeep();
      return false;
    }
    ++depth_;
    return true;
  }

  void FailTooDeep() {
    Fail(StrFormat("expression nests deeper than %d levels (kMaxExprDepth)",
                   kMaxExprDepth));
  }

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAhead(size_t n) const {
    const size_t i = std::min(pos_ + n, tokens_.size() - 1);
    return tokens_[i];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  /// Moves the current token's text out (nothing reads a consumed token)
  /// and advances.
  std::string TakeText() {
    std::string text = std::move(tokens_[pos_].text);
    Advance();
    return text;
  }

  bool ExpectKeyword(const char* kw) {
    if (!ok_) return false;
    if (!Peek().IsKeyword(kw)) {
      Fail(std::string("expected ") + kw + ", got " + Peek().ToString());
      return false;
    }
    Advance();
    return true;
  }

  bool ExpectSymbol(const char* sym) {
    if (!ok_) return false;
    if (!Peek().IsSymbol(sym)) {
      Fail(std::string("expected '") + sym + "', got " + Peek().ToString());
      return false;
    }
    Advance();
    return true;
  }

  std::string ExpectIdentifier() {
    if (!ok_) return "";
    if (Peek().type != TokenType::kIdentifier) {
      Fail("expected identifier, got " + Peek().ToString());
      return "";
    }
    return TakeText();
  }

  void Fail(const std::string& message) {
    if (ok_) {
      ok_ = false;
      error_ = StrFormat("parse error at offset %zu: %s", Peek().position,
                         message.c_str());
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
  int height_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<std::shared_ptr<SelectStmt>> Parse(const std::string& text) {
  Result<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseStatement();
}

}  // namespace qpp::sql
