// The query optimizer: SQL text -> parallel physical plan with estimated
// (and hidden true) cardinalities, plus an abstract cost estimate.
//
// Plan shape mirrors the Neoview plans shown in the paper's Fig. 9:
// partitioned scans under `partitioning` nodes, broadcast (`split`) inners
// for nested-loop joins, `exchange` repartitioning around hash joins and
// aggregation, and a final exchange+root pair composing the result on the
// coordinator. The degree of parallelism influences physical operator
// choice (broadcast becomes costlier with more nodes), so different system
// configurations genuinely produce different plans — an effect the paper
// observed when moving from the 4-node to the 32-node system.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/cardinality.h"
#include "optimizer/logical_plan.h"
#include "optimizer/physical_plan.h"

namespace qpp::optimizer {

/// Default hidden-data-truth seed; experiments share it so that the same
/// predicate is "true" the same way everywhere.
constexpr uint64_t kDefaultWorldSeed = 0x5EEDF00DCAFEBEEFull;

/// Base row budget for broadcasting a nested-join inner; divided by
/// OptimizerOptions::nodes_used, so bigger systems broadcast less eagerly.
inline constexpr double kBroadcastRowBudget = 50000.0;

struct OptimizerOptions {
  uint64_t world_seed = kDefaultWorldSeed;
  /// Number of processors the plan will run on (operator choice input).
  int nodes_used = 4;
};

class Optimizer {
 public:
  Optimizer(const catalog::Catalog* catalog, OptimizerOptions options = {});

  /// Parses, binds, and plans a SQL statement.
  Result<PhysicalPlan> Plan(const std::string& sql_text) const;

  /// Plans an already-parsed statement. `sql_text` is kept on the plan for
  /// reporting and to seed per-query noise.
  Result<PhysicalPlan> Plan(const sql::SelectStmt& stmt,
                            const std::string& sql_text) const;

 private:
  struct Fragment {
    std::unique_ptr<PhysicalNode> node;
    double est_rows = 0.0;
    double true_rows = 0.0;
    double width = 8.0;
  };

  /// Plans one logical (sub)query into a fragment (no root/final exchange).
  Fragment PlanLogical(const LogicalPlan& plan) const;

  Fragment PlanRelation(const LogicalPlan& plan, size_t rel_index) const;

  const catalog::Catalog* catalog_;
  OptimizerOptions options_;
  CardinalityModel cards_;
};

}  // namespace qpp::optimizer
