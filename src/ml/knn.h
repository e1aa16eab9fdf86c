// Nearest-neighbor lookup in the KCCA projection space (paper Section VI-E).
//
// Three design knobs, each swept by a table in the paper:
//  * distance metric (Table I): Euclidean vs cosine — Euclidean wins;
//  * neighbor count k (Table II): 3..7 — negligible differences, 3 chosen;
//  * neighbor weighting (Table III): equal vs 3:2:1 vs distance-
//    proportional — no consistent winner, equal chosen.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace qpp::ml {

enum class DistanceKind { kEuclidean, kCosine };
enum class NeighborWeighting { kEqual, kRankRatio, kInverseDistance };

struct Neighbor {
  size_t index = 0;
  double distance = 0.0;
};

/// The k nearest rows of `points` to `query`, ascending by (distance,
/// index): the exact brute scan, every row's distance (SIMD lanes or the
/// scalar oracle, bit-identical) followed by a selection of the k
/// smallest. ml::KdTree returns the same neighbors from its index.
std::vector<Neighbor> FindNearest(const linalg::Matrix& points,
                                  const linalg::Vector& query, size_t k,
                                  DistanceKind metric);

/// Batch form: the k nearest rows of `points` for every row of `queries`.
/// Result i is bit-identical to FindNearest(points, queries.Row(i), ...) —
/// both run the same single-query implementation (including the SIMD
/// dispatch), the batch only amortizes the per-row vector allocations,
/// reuses one candidate buffer per chunk of queries, and hoists the
/// query-independent point norms out of the loop (cosine). Query chunks
/// run in parallel on the qpp::par pool (deterministic: identical results
/// at every thread count; tests/knn_oracle_test.cpp compares every batch
/// row it makes against FindNearest bitwise). Used by
/// core::Predictor::PredictBatch when the model has no k-d tree index.
std::vector<std::vector<Neighbor>> FindNearestBatch(
    const linalg::Matrix& points, const linalg::Matrix& queries, size_t k,
    DistanceKind metric);

/// Weighted average of the value rows selected by the neighbors, under
/// weights normalized to sum 1: kEqual gives each neighbor 1/k, kRankRatio
/// k : k-1 : ... : 1 by nearness (the paper's 3:2:1 for k = 3), and
/// kInverseDistance 1/(d + eps). Throws qpp::CheckFailure on an empty
/// neighbor list.
linalg::Vector WeightedAverage(const std::vector<Neighbor>& neighbors,
                               const linalg::Matrix& values,
                               NeighborWeighting weighting);

/// WeightedAverage into caller-owned storage (`out` must hold
/// values.cols() doubles). Identical arithmetic (WeightedAverage is this
/// plus a Vector wrapper); the allocation-free form the batch prediction
/// assembly uses — weights live on the stack for k <= 32.
void WeightedAverageTo(const std::vector<Neighbor>& neighbors,
                       const linalg::Matrix& values,
                       NeighborWeighting weighting, double* out);

}  // namespace qpp::ml
