#include "ml/knn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "par/parallel_for.h"
#include "par/simd.h"
#include "par/simd_lanes.h"

namespace qpp::ml {

namespace {

// Row-pointer forms of linalg::SquaredDistance / Dot with the same
// element order, so the allocation-free paths below match the Row()-copy
// arithmetic bit for bit.
double SquaredDistanceRaw(const double* a, const double* b, size_t dims) {
  double s = 0.0;
  for (size_t j = 0; j < dims; ++j) {
    const double d = a[j] - b[j];
    s += d * d;
  }
  return s;
}

double DotRaw(const double* a, const double* b, size_t dims) {
  double s = 0.0;
  for (size_t j = 0; j < dims; ++j) s += a[j] * b[j];
  return s;
}

// Training rows per parallel chunk, and the row x dims element count below
// which a single query's distance pass stays inline (per-query dispatch is
// not worth it for typical N ~ 1000 training sets; the serving batch path
// parallelizes over queries instead).
constexpr size_t kPointGrain = 512;
constexpr size_t kParMinDistanceWork = size_t{1} << 17;
// Queries per parallel chunk in the batch path.
constexpr size_t kQueryGrain = 4;

// Distances from one query row to every point row, without materializing
// row copies. `point_norms` (cosine only) carries the query-independent
// Norm(points.Row(i)) values so a batch computes them once. Each slot of
// `all` is written independently, so for very large training sets the row
// loop runs row-parallel with identical per-row arithmetic (inline when
// already inside a batch-parallel region — see par::ThreadPool nesting).
void DistancesToAll(const linalg::Matrix& points, const double* query,
                    double query_norm, DistanceKind metric,
                    const linalg::Vector& point_norms, bool use_simd,
                    std::vector<Neighbor>* all) {
  const size_t n = points.rows();
  const size_t dims = points.cols();
  const double* base = points.data().data();
  auto fill_rows = [&](size_t i0, size_t i1) {
    size_t i = i0;
    if (use_simd) {
      // kLanes rows per step; lane L carries row i+L's full ascending-j
      // chain (simd::SquaredDistanceRows / DotRows), and lane sqrt is
      // correctly rounded, so every distance matches the scalar loop bit
      // for bit. The cosine epilogue (norm test + divide) stays scalar
      // per lane.
      if (metric == DistanceKind::kEuclidean) {
        for (; i + 4 * simd::kLanes <= i1; i += 4 * simd::kLanes) {
          simd::VecD acc[4];
          simd::SquaredDistanceRows4(base + i * dims, dims, query, dims, acc);
          double d[4 * simd::kLanes];
          for (size_t c = 0; c < 4; ++c) {
            simd::StoreU(d + c * simd::kLanes, simd::Sqrt(acc[c]));
          }
          for (size_t l = 0; l < 4 * simd::kLanes; ++l) {
            (*all)[i + l].index = i + l;
            (*all)[i + l].distance = d[l];
          }
        }
        for (; i + simd::kLanes <= i1; i += simd::kLanes) {
          double d[simd::kLanes];
          simd::StoreU(d, simd::Sqrt(simd::SquaredDistanceRows(
                              base + i * dims, dims, query, dims)));
          for (size_t l = 0; l < simd::kLanes; ++l) {
            (*all)[i + l].index = i + l;
            (*all)[i + l].distance = d[l];
          }
        }
      } else {
        for (; i + simd::kLanes <= i1; i += simd::kLanes) {
          double dot[simd::kLanes];
          simd::StoreU(
              dot, simd::DotRows(base + i * dims, dims, query, dims));
          for (size_t l = 0; l < simd::kLanes; ++l) {
            const double na = point_norms[i + l];
            (*all)[i + l].index = i + l;
            (*all)[i + l].distance =
                na == 0.0 || query_norm == 0.0
                    ? 1.0
                    : 1.0 - dot[l] / (na * query_norm);
          }
        }
      }
    }
    for (; i < i1; ++i) {
      const double* row = base + i * dims;
      (*all)[i].index = i;
      if (metric == DistanceKind::kEuclidean) {
        (*all)[i].distance = std::sqrt(SquaredDistanceRaw(row, query, dims));
      } else {
        // Cosine distance 1 - cos(row, query), 1 when either norm is 0,
        // with both norms hoisted out of the pairwise loop.
        const double na = point_norms[i];
        (*all)[i].distance = na == 0.0 || query_norm == 0.0
                                 ? 1.0
                                 : 1.0 - DotRaw(row, query, dims) /
                                             (na * query_norm);
      }
    }
  };
  if (n * dims < kParMinDistanceWork) {
    fill_rows(0, n);
  } else {
    par::ParallelFor(0, n, kPointGrain, fill_rows, "knn_distances");
  }
}

// Keeps the k nearest candidates in ascending (distance, index) order.
// nth_element partitions in O(n), then only the k survivors are sorted —
// O(n + k log k) instead of the O(n log k) heap-based partial_sort over
// the full candidate set. The comparator is a strict total order (indices
// are unique), so the surviving set and its order are identical to a full
// sort's first k entries, ties broken by index.
void KeepNearestK(std::vector<Neighbor>* all, size_t k) {
  const size_t kk = std::min(k, all->size());
  const auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.index < b.index);
  };
  if (kk > 0 && kk < all->size()) {
    std::nth_element(all->begin(),
                     all->begin() + static_cast<ptrdiff_t>(kk - 1),
                     all->end(), cmp);
  }
  std::sort(all->begin(), all->begin() + static_cast<ptrdiff_t>(kk), cmp);
  all->resize(kk);
}

linalg::Vector PointNorms(const linalg::Matrix& points, DistanceKind metric,
                          bool use_simd) {
  linalg::Vector norms;
  if (metric != DistanceKind::kCosine) return norms;
  const size_t n = points.rows();
  const size_t dims = points.cols();
  const double* base = points.data().data();
  norms.resize(n);
  size_t i = 0;
  if (use_simd) {
    for (; i + simd::kLanes <= n; i += simd::kLanes) {
      simd::StoreU(norms.data() + i,
                   simd::Sqrt(simd::SelfDotRows(base + i * dims, dims, dims)));
    }
  }
  for (; i < n; ++i) {
    norms[i] = std::sqrt(DotRaw(base + i * dims, base + i * dims, dims));
  }
  return norms;
}

// One query against all points: the shared implementation behind
// FindNearest and FindNearestBatch (which is what makes the batch ≡
// row-wise bit-identity hold by construction). `scratch` is the reusable
// candidate buffer.
std::vector<Neighbor> NearestOne(const linalg::Matrix& points,
                                 const double* query, double query_norm,
                                 size_t k, DistanceKind metric,
                                 const linalg::Vector& point_norms,
                                 bool use_simd,
                                 std::vector<Neighbor>* scratch) {
  scratch->resize(points.rows());
  DistancesToAll(points, query, query_norm, metric, point_norms, use_simd,
                 scratch);
  KeepNearestK(scratch, k);
  return *scratch;
}

}  // namespace

std::vector<Neighbor> FindNearest(const linalg::Matrix& points,
                                  const linalg::Vector& query, size_t k,
                                  DistanceKind metric) {
  QPP_CHECK(points.rows() > 0 && k >= 1);
  QPP_CHECK(points.cols() == query.size());
  const bool use_simd = simd::Enabled();
  const linalg::Vector point_norms = PointNorms(points, metric, use_simd);
  const double query_norm =
      metric == DistanceKind::kCosine
          ? std::sqrt(DotRaw(query.data(), query.data(), query.size()))
          : 0.0;
  std::vector<Neighbor> scratch;
  return NearestOne(points, query.data(), query_norm, k, metric, point_norms,
                    use_simd, &scratch);
}

std::vector<std::vector<Neighbor>> FindNearestBatch(
    const linalg::Matrix& points, const linalg::Matrix& queries, size_t k,
    DistanceKind metric) {
  QPP_CHECK(points.rows() > 0 && k >= 1);
  QPP_CHECK(points.cols() == queries.cols());
  const bool use_simd = simd::Enabled();
  const linalg::Vector point_norms = PointNorms(points, metric, use_simd);
  std::vector<std::vector<Neighbor>> out(queries.rows());
  const size_t dims = queries.cols();
  const double* qbase = queries.data().data();
  // Queries are independent (disjoint out slots, read-only shared state),
  // so the serving batch path fans out over query chunks; each chunk keeps
  // its own candidate buffer, reused across its queries exactly as the
  // serial loop reused one. Per-query work goes through NearestOne — the
  // same implementation FindNearest runs — preserving the bit-identity
  // with FindNearest at any thread count (tests/knn_oracle_test.cpp).
  par::ParallelFor(
      0, queries.rows(), kQueryGrain,
      [&](size_t r0, size_t r1) {
        std::vector<Neighbor> scratch;
        for (size_t r = r0; r < r1; ++r) {
          const double* query = qbase + r * dims;
          const double query_norm = metric == DistanceKind::kCosine
                                        ? std::sqrt(DotRaw(query, query, dims))
                                        : 0.0;
          out[r] = NearestOne(points, query, query_norm, k, metric,
                              point_norms, use_simd, &scratch);
        }
      },
      "knn_batch");
  return out;
}

linalg::Vector WeightedAverage(const std::vector<Neighbor>& neighbors,
                               const linalg::Matrix& values,
                               NeighborWeighting weighting) {
  linalg::Vector out(values.cols());
  WeightedAverageTo(neighbors, values, weighting, out.data());
  return out;
}

void WeightedAverageTo(const std::vector<Neighbor>& neighbors,
                       const linalg::Matrix& values,
                       NeighborWeighting weighting, double* out) {
  QPP_CHECK(!neighbors.empty());
  const size_t k = neighbors.size();
  // Weights on the stack for the practical k range (config default is 3,
  // paper sweeps 3..7); heap only above kStackK. Raw weights, then their
  // ascending-order sum, then normalized.
  constexpr size_t kStackK = 32;
  double wbuf[kStackK];
  std::vector<double> wheap;
  double* w = wbuf;
  if (k > kStackK) {
    wheap.resize(k);
    w = wheap.data();
  }
  for (size_t i = 0; i < k; ++i) w[i] = 1.0;
  switch (weighting) {
    case NeighborWeighting::kEqual:
      break;
    case NeighborWeighting::kRankRatio:
      for (size_t i = 0; i < k; ++i) w[i] = static_cast<double>(k - i);
      break;
    case NeighborWeighting::kInverseDistance: {
      constexpr double kEps = 1e-9;
      for (size_t i = 0; i < k; ++i) w[i] = 1.0 / (neighbors[i].distance + kEps);
      break;
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) total += w[i];
  for (size_t i = 0; i < k; ++i) w[i] /= total;
  const size_t cols = values.cols();
  for (size_t j = 0; j < cols; ++j) out[j] = 0.0;
  for (size_t i = 0; i < k; ++i) {
    QPP_CHECK(neighbors[i].index < values.rows());
    // Raw row pointer instead of a Row() copy: same elements in the same
    // ascending-j order, minus the per-neighbor Vector allocation.
    const double* row =
        values.data().data() + neighbors[i].index * values.cols();
    for (size_t j = 0; j < cols; ++j) out[j] += w[i] * row[j];
  }
}

}  // namespace qpp::ml
