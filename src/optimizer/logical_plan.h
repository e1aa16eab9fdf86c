// Logical query representation: base relations with pushed-down selections,
// a join graph, aggregation/sort/limit properties, and (decorrelated)
// subqueries as semi-joined derived relations.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "sql/ast.h"

namespace qpp::optimizer {

/// A selection predicate bound to one base relation.
struct BoundSelection {
  sql::Expr expr;          ///< the (cloned) predicate text
  std::string column;      ///< primary column referenced (for stats lookup)
  /// Stable key identifying this predicate's semantics (column + op +
  /// constants); hashing it seeds the hidden true-selectivity model so that
  /// identical predicates behave identically across queries.
  std::string semantic_key;
};

/// An edge of the join graph between two relations (by index).
struct BoundJoin {
  size_t left_rel = 0;
  size_t right_rel = 0;
  std::string left_column;
  std::string right_column;
  bool equi = true;
  /// Semi-join edges come from IN/EXISTS subqueries: the left side's rows
  /// are filtered, not multiplied.
  bool semi = false;
  std::string semantic_key;
};

struct LogicalPlan;

/// A relation in the FROM list: either a catalog base table or a derived
/// relation wrapping a subquery's own logical plan.
struct LogicalRelation {
  std::string table;            ///< catalog table name (base relations)
  /// The catalog's table (base relations), found once when the FROM entry
  /// is checked; null for derived relations.
  const catalog::Table* catalog_table = nullptr;
  std::string alias;            ///< effective name predicates use
  std::vector<BoundSelection> selections;
  std::shared_ptr<LogicalPlan> derived;  ///< non-null for subquery relations

  bool IsDerived() const { return derived != nullptr; }
};

/// The bound logical query.
struct LogicalPlan {
  const catalog::Catalog* catalog = nullptr;
  std::vector<LogicalRelation> relations;
  std::vector<BoundJoin> joins;

  size_t num_group_columns = 0;
  /// Resolved GROUP BY columns (relation index, column name) — used to
  /// estimate group counts from column NDVs.
  std::vector<std::pair<size_t, std::string>> group_column_refs;
  size_t num_aggregates = 0;
  bool distinct = false;
  size_t num_sort_columns = 0;
  std::optional<int64_t> limit;
  /// Residual predicates (e.g. OR trees spanning relations, HAVING): modeled
  /// as a post-join filter with a default selectivity per predicate.
  size_t num_residual_predicates = 0;

  /// Output width heuristic, bytes per result row.
  double output_width = 64.0;
};

/// Binds a parsed statement against a catalog: resolves table/column names,
/// pushes selections to their relations, builds the join graph, and
/// decorrelates IN/EXISTS subqueries into semi-joined derived relations.
/// Fails on unknown tables/columns or predicates it cannot classify.
Result<LogicalPlan> BuildLogicalPlan(const sql::SelectStmt& stmt,
                                     const catalog::Catalog& catalog);

}  // namespace qpp::optimizer
