#include "ml/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "par/simd.h"
#include "par/simd_lanes.h"

namespace qpp::ml {

namespace {

constexpr size_t kLeafSentinel = std::numeric_limits<size_t>::max();
/// Points per leaf: one 4-way-interleaved SIMD tile
/// (simd::SquaredDistanceTile4), so a full leaf scans at peak throughput
/// with no scalar tail. Small enough that the tree still prunes most of
/// the set. Leaf size changes the tree shape but never the result — the
/// search is exact under the strict (distance, index) order regardless.
constexpr size_t kLeafSize = simd::kTileRows;

/// The exact brute-force chain over one column-major tile row: ascending-j
/// sum of squared differences, reading element (r, j) at tile[j*rows + r].
/// Same values in the same order as the row-major scalar scan — only the
/// address arithmetic differs.
double SquaredDistanceTileRow(const double* tile, size_t rows, size_t r,
                              const double* q, size_t dims) {
  double s = 0.0;
  for (size_t j = 0; j < dims; ++j) {
    const double d = tile[j * rows + r] - q[j];
    s += d * d;
  }
  return s;
}

}  // namespace

/// Top-k state under the strict total order (distance, index). The tree
/// visits candidates in arbitrary index order, so a candidate that ties the
/// worst kept distance can still win on its smaller index: every
/// equal-distance case must fall through to the index comparison.
struct KdTree::Kept {
  double* d;    ///< ascending (distance, index)
  double* sq;   ///< squared distance of the same entries
  size_t* idx;  ///< original row indices
  size_t kk;    ///< capacity (the effective k)
  size_t count = 0;

  double WorstDistance() const { return d[count - 1]; }

  void Insert(size_t i, double dist, double s) {
    size_t pos = count;
    while (pos > 0 &&
           (d[pos - 1] > dist || (d[pos - 1] == dist && idx[pos - 1] > i))) {
      d[pos] = d[pos - 1];
      sq[pos] = sq[pos - 1];
      idx[pos] = idx[pos - 1];
      --pos;
    }
    d[pos] = dist;
    sq[pos] = s;
    idx[pos] = i;
    ++count;
  }

  /// Offers candidate (original index i, squared distance s). The sqrt is
  /// skipped only when the candidate provably loses: s > worst.sq implies
  /// dist >= worst.distance, which settles it outright unless the
  /// candidate could win an exact distance tie by index (i < worst index)
  /// — that rare case pays for the sqrt and checks.
  void Consider(size_t i, double s) {
    if (count == kk) {
      const double worst_d = d[count - 1];
      const size_t worst_i = idx[count - 1];
      if (s > sq[count - 1]) {
        if (i > worst_i) return;
        const double dist = std::sqrt(s);
        if (dist > worst_d || (dist == worst_d && i > worst_i)) return;
        --count;
        Insert(i, dist, s);
        return;
      }
      const double dist = std::sqrt(s);
      if (dist > worst_d || (dist == worst_d && i > worst_i)) return;
      --count;
      Insert(i, dist, s);
    } else {
      Insert(i, std::sqrt(s), s);
    }
  }
};

void KdTree::Clear() {
  n_ = 0;
  dims_ = 0;
  pts_.clear();
  idx_.clear();
  nodes_.clear();
}

void KdTree::Build(const linalg::Matrix& points) {
  Clear();
  if (points.rows() == 0) return;
  n_ = points.rows();
  dims_ = points.cols();
  QPP_CHECK(dims_ > 0);
  const double* src = points.data().data();
  std::vector<size_t> perm(n_);
  for (size_t i = 0; i < n_; ++i) perm[i] = i;
  nodes_.reserve(2 * (n_ / kLeafSize + 1));
  BuildRange(src, &perm, 0, n_);
  // Materialize the rows in tree order, each leaf stored as one
  // column-major tile (simd::kTileRows layout): leaf [lo, hi) occupies
  // pts_[lo*dims .. hi*dims) with element (r, j) at
  // pts_[lo*dims + j*(hi-lo) + (r-lo)]. The leaf scan then runs on
  // contiguous full-width vector loads instead of strided gathers.
  pts_.resize(n_ * dims_);
  for (const Node& node : nodes_) {
    if (node.axis != kLeafSentinel) continue;
    const size_t count = node.right - node.left;
    double* tile = pts_.data() + node.left * dims_;
    for (size_t r = 0; r < count; ++r) {
      const double* row = src + perm[node.left + r] * dims_;
      for (size_t j = 0; j < dims_; ++j) tile[j * count + r] = row[j];
    }
  }
  idx_ = std::move(perm);
}

size_t KdTree::BuildRange(const double* src, std::vector<size_t>* perm,
                          size_t lo, size_t hi) {
  const size_t node_id = nodes_.size();
  nodes_.emplace_back();
  if (hi - lo <= kLeafSize) {
    nodes_[node_id].axis = kLeafSentinel;
    nodes_[node_id].left = lo;
    nodes_[node_id].right = hi;
    return node_id;
  }
  // Widest-extent axis, ties to the lowest axis index.
  size_t axis = 0;
  double best_extent = -1.0;
  for (size_t a = 0; a < dims_; ++a) {
    double mn = src[(*perm)[lo] * dims_ + a];
    double mx = mn;
    for (size_t r = lo + 1; r < hi; ++r) {
      const double v = src[(*perm)[r] * dims_ + a];
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    const double extent = mx - mn;
    if (extent > best_extent) {
      best_extent = extent;
      axis = a;
    }
  }
  // Median under the strict (coordinate, original index) order: unique
  // pivot, so the split is always balanced even when every coordinate is
  // identical (duplicates degrade to index order, not to a degenerate
  // one-sided recursion).
  const size_t mid = lo + (hi - lo) / 2;
  std::nth_element(perm->begin() + static_cast<ptrdiff_t>(lo),
                   perm->begin() + static_cast<ptrdiff_t>(mid),
                   perm->begin() + static_cast<ptrdiff_t>(hi),
                   [&](size_t a, size_t b) {
                     const double ca = src[a * dims_ + axis];
                     const double cb = src[b * dims_ + axis];
                     return ca < cb || (ca == cb && a < b);
                   });
  const double split = src[(*perm)[mid] * dims_ + axis];
  // Left rows satisfy coord <= split, right rows coord >= split (the
  // median itself goes right) — the invariant the query bound relies on.
  const size_t left = BuildRange(src, perm, lo, mid);
  const size_t right = BuildRange(src, perm, mid, hi);
  nodes_[node_id].axis = axis;
  nodes_[node_id].split = split;
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

void KdTree::ScanLeaf(size_t lo, size_t hi, const double* query,
                      bool use_simd, Kept* kept) const {
  const double* tile = pts_.data() + lo * dims_;
  const size_t count = hi - lo;
  size_t r = 0;
  if (use_simd) {
    for (; r + 4 * simd::kLanes <= count; r += 4 * simd::kLanes) {
      simd::VecD acc[4];
      simd::SquaredDistanceTile4(tile, count, r, query, dims_, acc);
      if (kept->count == kept->kk) {
        // Whole-block reject. Unlike the brute scan's gate (ascending
        // visit order, ties always lose), a lane with s > worst.sq can
        // still win here: sqrt may round s onto exactly worst.distance,
        // and a smaller original index then wins the tie. So a block is
        // skipped only when no lane beats the worst squared distance AND
        // no lane's index could win such a tie.
        const simd::VecD worst = simd::Splat(kept->sq[kept->count - 1]);
        unsigned any = 0;
        for (size_t c = 0; c < 4; ++c) any |= simd::MaskLE(acc[c], worst);
        if (any == 0) {
          const size_t worst_i = kept->idx[kept->count - 1];
          bool tie_possible = false;
          for (size_t l = 0; l < 4 * simd::kLanes; ++l) {
            if (idx_[lo + r + l] < worst_i) {
              tie_possible = true;
              break;
            }
          }
          if (!tie_possible) continue;
        }
      }
      double sq[4 * simd::kLanes];
      for (size_t c = 0; c < 4; ++c) {
        simd::StoreU(sq + c * simd::kLanes, acc[c]);
      }
      for (size_t l = 0; l < 4 * simd::kLanes; ++l) {
        kept->Consider(idx_[lo + r + l], sq[l]);
      }
    }
    for (; r + simd::kLanes <= count; r += simd::kLanes) {
      double sq[simd::kLanes];
      simd::StoreU(sq,
                   simd::SquaredDistanceTile(tile, count, r, query, dims_));
      for (size_t l = 0; l < simd::kLanes; ++l) {
        kept->Consider(idx_[lo + r + l], sq[l]);
      }
    }
  }
  for (; r < count; ++r) {
    kept->Consider(idx_[lo + r],
                   SquaredDistanceTileRow(tile, count, r, query, dims_));
  }
}

void KdTree::Search(size_t node_id, const double* query, size_t kk,
                    bool use_simd, Kept* kept,
                    double* off) const {
  const Node& node = nodes_[node_id];
  if (node.axis == kLeafSentinel) {
    ScanLeaf(node.left, node.right, query, use_simd, kept);
    return;
  }
  const double delta = query[node.axis] - node.split;
  const size_t near = delta <= 0.0 ? node.left : node.right;
  const size_t far = delta <= 0.0 ? node.right : node.left;
  Search(near, query, kk, use_simd, kept, off);
  // Lower bound on any far-subtree distance: the per-axis offsets from
  // every split crossed so far, squared and summed in ascending axis
  // order — the exact shape of the distance chain itself, so each term
  // (and, by monotonicity of rounding, each partial sum and the final
  // sqrt) is dominated by the corresponding computed value for any point
  // in the far subtree. Pruning on bound > worst therefore only discards
  // strict distance losers; ties are never pruned and fall through to the
  // index comparison in Consider.
  const double old_off = off[node.axis];
  off[node.axis] = delta <= 0.0 ? -delta : delta;
  if (kept->count < kk) {
    Search(far, query, kk, use_simd, kept, off);
  } else {
    double bsq = 0.0;
    for (size_t a = 0; a < dims_; ++a) bsq += off[a] * off[a];
    if (!(std::sqrt(bsq) > kept->WorstDistance())) {
      Search(far, query, kk, use_simd, kept, off);
    }
  }
  off[node.axis] = old_off;
}

void KdTree::FindNearestRaw(const double* query, size_t k,
                            std::vector<Neighbor>* out) const {
  QPP_CHECK(n_ > 0 && k >= 1);
  const size_t kk = std::min(k, n_);
  // Per-query state lives on the stack for the common shapes (the paper's
  // operating points are k = 3..7 in a 16-dim projection); only oversized
  // k or dims fall back to heap buffers. Zero allocations on the hot path.
  constexpr size_t kStackK = 32;
  constexpr size_t kStackDims = 64;
  double dbuf[kStackK];
  double sqbuf[kStackK];
  size_t ibuf[kStackK];
  double offbuf[kStackDims];
  std::vector<double> dheap, sqheap, offheap;
  std::vector<size_t> iheap;
  Kept kept{dbuf, sqbuf, ibuf, kk};
  if (kk > kStackK) {
    dheap.resize(kk);
    sqheap.resize(kk);
    iheap.resize(kk);
    kept.d = dheap.data();
    kept.sq = sqheap.data();
    kept.idx = iheap.data();
  }
  double* off = offbuf;
  if (dims_ > kStackDims) {
    offheap.resize(dims_);
    off = offheap.data();
  }
  for (size_t a = 0; a < dims_; ++a) off[a] = 0.0;
  Search(0, query, kk, simd::Enabled(), &kept, off);
  out->resize(kept.count);
  for (size_t j = 0; j < kept.count; ++j) {
    (*out)[j].index = kept.idx[j];
    (*out)[j].distance = kept.d[j];
  }
}

std::vector<Neighbor> KdTree::FindNearest(const linalg::Vector& query,
                                          size_t k) const {
  QPP_CHECK(query.size() == dims_);
  std::vector<Neighbor> out;
  FindNearestRaw(query.data(), k, &out);
  return out;
}

}  // namespace qpp::ml
