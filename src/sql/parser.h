// Recursive-descent parser for the SQL subset (see ast.h for coverage).
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "sql/ast.h"

namespace qpp::sql {

/// How deep a statement's expressions may nest. Two counts are bounded by
/// it, because the parser and every later walk over the tree (binding,
/// cloning, unparsing, estimation, destruction) recurse through them:
///  - the tree: each operator is one level above its deepest operand, so
///    an n-term left-deep chain (`a AND b AND ...`, `1 + 1 + ...`) is n - 1
///    levels above its first term, and a subquery's expressions sit below
///    the IN or EXISTS that holds them;
///  - the parser's descent: each parenthesis, NOT, unary minus, aggregate
///    argument and subquery opens one level.
/// The deepest expression of the bundled workloads has 8 levels.
inline constexpr int kMaxExprDepth = 256;

/// Parses a single SELECT statement. An optional trailing semicolon is
/// accepted; any other trailing content is an error, and so are a LIMIT
/// beyond int64 and expressions deeper than kMaxExprDepth.
Result<std::shared_ptr<SelectStmt>> Parse(const std::string& text);

}  // namespace qpp::sql
