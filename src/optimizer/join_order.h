// Join-order search over the logical join graph.
//
// Left-deep enumeration: exact dynamic programming over connected subsets
// for up to kDpRelationLimit relations, greedy smallest-intermediate-first
// beyond. Cost is the classic sum of estimated intermediate cardinalities.
// Semi-joined (subquery) relations are constrained to join after the outer
// relation they filter.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/cardinality.h"
#include "optimizer/logical_plan.h"

namespace qpp::optimizer {

/// Maximum relation count for exact DP (12 -> 4096 subsets).
constexpr size_t kDpRelationLimit = 12;

/// The chosen left-deep order: a permutation of relation indices. The
/// physical planner joins them left to right, applying every join edge whose
/// endpoints are both available.
struct JoinOrder {
  std::vector<size_t> sequence;
  double estimated_cost = 0.0;  ///< sum of intermediate estimated rows
};

/// The effective NDVs of one join edge's two columns, for join selectivity.
struct JoinEdgeNdv {
  double left = 0.0;   ///< of BoundJoin::left_column
  double right = 0.0;  ///< of BoundJoin::right_column
};

/// Effective NDV of `column` of relation `rel`: the catalog NDV of a base
/// column (100 when unknown), and for a derived relation, whose output rows
/// are roughly unique, 0.7 × its estimated rows `est_cards[rel]`, at least 1.
double EffectiveNdv(const LogicalPlan& plan, size_t rel,
                    const std::string& column,
                    const std::vector<double>& est_cards);

/// EffectiveNdv of both columns of every join edge, index-aligned with
/// `plan.joins`. `est_cards` is index-aligned with `plan.relations`.
std::vector<JoinEdgeNdv> JoinEdgeNdvs(const LogicalPlan& plan,
                                      const std::vector<double>& est_cards);

/// The join edges applicable when relation `r` joins an already-joined set,
/// with NDVs oriented set-side ("set") vs joining-relation-side ("rel").
struct EdgeBundle {
  std::vector<const BoundJoin*> edges;
  std::vector<double> set_ndvs;
  std::vector<double> rel_ndvs;
};

/// Fills `out` with the edges between relation `r` and the set for which
/// `in_set(i)` is true. `ndvs` is JoinEdgeNdvs of the plan.
template <typename InSet>
void CollectJoinEdges(const LogicalPlan& plan, size_t r, const InSet& in_set,
                      const std::vector<JoinEdgeNdv>& ndvs, EdgeBundle* out) {
  out->edges.clear();
  out->set_ndvs.clear();
  out->rel_ndvs.clear();
  for (size_t k = 0; k < plan.joins.size(); ++k) {
    const BoundJoin& j = plan.joins[k];
    if (j.right_rel == r && in_set(j.left_rel)) {
      out->edges.push_back(&j);
      out->set_ndvs.push_back(ndvs[k].left);
      out->rel_ndvs.push_back(ndvs[k].right);
    } else if (j.left_rel == r && in_set(j.right_rel)) {
      out->edges.push_back(&j);
      out->set_ndvs.push_back(ndvs[k].right);
      out->rel_ndvs.push_back(ndvs[k].left);
    }
  }
}

/// Computes a join order. `ndvs` is JoinEdgeNdvs of the plan.
JoinOrder OrderJoins(const LogicalPlan& plan, const CardinalityModel& model,
                     const std::vector<double>& est_cards,
                     const std::vector<JoinEdgeNdv>& ndvs);

}  // namespace qpp::optimizer
