// Exact k-d tree over the rows of a matrix, for Euclidean nearest-neighbor
// queries in the projected KCCA subspace (paper Section VI-E picks k = 3
// Euclidean neighbors there; the projection keeps num_dims ~ 16 of the
// canonical directions, low enough for axis-aligned splitting to prune).
//
// "Exact" is meant bitwise: FindNearest returns the same neighbors, in the
// same (distance, index) order, with byte-identical distances, as the
// brute-force ml::FindNearest over the same matrix. That holds because
//  * the k-nearest result set is uniquely determined by the strict total
//    order (distance, index) — indices are unique — so any algorithm that
//    visits every non-losing candidate and compares with that order
//    reproduces it exactly, regardless of visit order;
//  * candidate distances are std::sqrt of the identical ascending-j
//    squared-sum chain the brute kernel computes (SIMD lane sqrt is
//    correctly rounded, so the lane form matches too);
//  * subtree pruning is conservative under floating point: the region
//    lower bound is accumulated with the same ascending-axis s += t*t
//    chain, and each axis term is dominated, in computed arithmetic, by
//    the corresponding term of any subtree point's distance chain
//    (rounding is monotone), so computed bound <= computed distance holds
//    exactly and a subtree is skipped only when every point in it would
//    lose *strictly* on distance (bound > current worst — never on ties,
//    which must fall through to the index comparison).
//
// The search is always a branch-and-bound descent. Pruning adapts to the
// data by itself: the paper's plan features cluster by template, so on the
// Experiment-1 model (n = 1027, 16 and 28 dims) the descent scans 4-6x
// fewer points than a sweep over every leaf, although the classic
// n >= 2^dims rule says axis pruning should not pay there. On i.i.d.
// Gaussian points of that shape a full sweep would win instead, by 8-15%
// (docs/PERFORMANCE.md).
//
// tests/kdtree_test.cpp pins this equivalence against the brute oracle
// over randomized point sets with duplicates and exact ties.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "ml/knn.h"

namespace qpp::ml {

class KdTree {
 public:
  KdTree() = default;

  /// Builds the tree over a copy of the rows of `points` (row-major;
  /// reordered internally, with a map back to original row indices).
  /// Deterministic: splits the widest-extent axis (ties to the lowest
  /// axis) at the median under the strict (coordinate, row index) order.
  /// An empty matrix yields an empty tree.
  void Build(const linalg::Matrix& points);

  /// Drops the tree back to empty.
  void Clear();

  bool empty() const { return n_ == 0; }
  size_t dims() const { return dims_; }

  /// The min(k, rows built) nearest rows to `query`, ascending by
  /// (distance, index) — bit-identical to
  /// ml::FindNearest(points, query, k, DistanceKind::kEuclidean).
  /// Requires a non-empty tree, k >= 1, and query.size() == dims().
  std::vector<Neighbor> FindNearest(const linalg::Vector& query,
                                    size_t k) const;

  /// Raw-pointer form for hot paths (query must have dims() elements);
  /// result is appended into *out after a clear.
  void FindNearestRaw(const double* query, size_t k,
                      std::vector<Neighbor>* out) const;

 private:
  struct Node {
    size_t axis = 0;     ///< split axis; kLeafSentinel marks a leaf
    double split = 0.0;  ///< splitting coordinate on `axis`
    size_t left = 0;     ///< internal: child node ids; leaf: [begin, end)
    size_t right = 0;    ///< into the reordered point storage
  };
  struct Kept;  // the (distance, sq, index) top-k state, in kdtree.cpp

  size_t BuildRange(const double* src, std::vector<size_t>* perm, size_t lo,
                    size_t hi);
  void ScanLeaf(size_t lo, size_t hi, const double* query, bool use_simd,
                Kept* kept) const;
  void Search(size_t node_id, const double* query, size_t kk, bool use_simd,
              Kept* kept, double* off) const;

  size_t n_ = 0;
  size_t dims_ = 0;
  /// Rows in tree order, one column-major tile per leaf (element (r, j) of
  /// a leaf [lo, hi) at [lo*dims_ + j*(hi-lo) + (r-lo)]) so the leaf scan
  /// runs on contiguous vector loads. Same doubles as the row-major form —
  /// the layout never changes a result.
  std::vector<double> pts_;
  std::vector<size_t> idx_;   ///< tree-order row -> original row index
  std::vector<Node> nodes_;   ///< nodes_[0] is the root when n_ > 0
};

}  // namespace qpp::ml
