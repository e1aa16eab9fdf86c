// Dual cardinality estimation: the optimizer's estimates and the hidden
// ground truth.
//
// The reproduced paper leans on the gap between what the optimizer *thinks*
// cardinalities are (which feeds the query-plan feature vector) and what the
// engine *actually* processes (which drives the measured metrics). We model
// both sides:
//
//  * kEstimate — a System-R style estimator: 1/NDV equality selectivity,
//    range interpolation against min/max, independence across predicates,
//    1/max(NDV) equi-join selectivity. This is what a real optimizer
//    computes from catalog statistics.
//  * kTrue — the estimate perturbed by a *deterministic* per-predicate error
//    factor seeded from the predicate's semantic key (column, operator,
//    constants) plus a world seed, with correlation damping across
//    conjuncts. Determinism matters twice: the same predicate behaves
//    identically wherever it appears (so nearest-neighbor learning has
//    signal), and every experiment is reproducible.
//
// Error magnitudes follow the folk wisdom the paper cites (skewed data and
// erroneous estimates): equality predicates on non-key columns err the most
// (value skew), range predicates less, key ranges least; join errors are
// small for FK->PK edges and large otherwise.
#pragma once

#include <cstdint>
#include <string>

#include "catalog/catalog.h"
#include "optimizer/logical_plan.h"

namespace qpp::optimizer {

enum class CardMode {
  kEstimate,  ///< what the optimizer believes (feature-vector input)
  kTrue,      ///< what the engine actually sees (metrics input)
};

/// One quantity as the optimizer estimates it and as the engine sees it.
struct DualValue {
  double estimate = 0.0;  ///< CardMode::kEstimate
  double truth = 0.0;     ///< CardMode::kTrue
};

class CardinalityModel {
 public:
  /// `world_seed` fixes the hidden data truth; two models with the same seed
  /// agree on every true selectivity.
  explicit CardinalityModel(uint64_t world_seed) : world_seed_(world_seed) {}

  /// Selectivity of one bound selection predicate against its table, in
  /// both modes (the estimate of a histogram-covered predicate is drawn
  /// around its truth, so one pass yields both).
  DualValue SelectionSelectivity(const catalog::Table& table,
                                 const BoundSelection& sel) const;

  /// Combined selectivity of all selections on a base relation. In kTrue
  /// mode, multi-predicate conjunctions are damped (exponent < 1) to model
  /// correlated columns defeating the optimizer's independence assumption.
  DualValue RelationSelectivity(const LogicalRelation& rel) const;

  /// Rows surviving the relation's selections. Base relations only
  /// (derived relations are planned recursively by the optimizer).
  DualValue RelationCardinality(const LogicalRelation& rel) const;

  /// Per-edge join selectivity factor. `left_ndv`/`right_ndv` are the
  /// effective NDVs of the join columns (pass 0 for unknown).
  double JoinEdgeSelectivity(const BoundJoin& join, double left_ndv,
                             double right_ndv, CardMode mode) const;

  /// Output cardinality of joining two inputs across `edges`. Semi-join
  /// edges cap the output at the left input's cardinality.
  double JoinOutputCardinality(double left_card, double right_card,
                               const std::vector<const BoundJoin*>& edges,
                               const std::vector<double>& left_ndvs,
                               const std::vector<double>& right_ndvs,
                               CardMode mode) const;

  /// Group count for GROUP BY over `input_card` rows with the given group
  /// column NDVs.
  double GroupCardinality(double input_card,
                          const std::vector<double>& group_ndvs,
                          CardMode mode, const std::string& key) const;

  /// Selectivity applied per residual (unclassifiable) predicate.
  static constexpr double kResidualSelectivity = 1.0 / 3.0;

 private:
  /// Deterministic standard-normal draw keyed by the predicate semantics:
  /// seeded from the hash of `key + "#" + salt`.
  double SeededGaussian(const std::string& key, const char* salt) const;

  uint64_t world_seed_;
};

}  // namespace qpp::optimizer
