#include "ml/kernel.h"

#include <cmath>

#include "common/check.h"
#include "par/parallel_for.h"
#include "par/simd.h"
#include "par/simd_lanes.h"

namespace qpp::ml {

namespace {
/// Rows per parallel chunk. Fixed constants: the chunking is part of the
/// deterministic-reduce contract (par/parallel_for.h), so results are
/// bit-identical across thread counts.
constexpr size_t kNormGrain = 256;
constexpr size_t kKernelRowGrain = 8;

/// ||p||: the exact linalg::Norm(x.Row(i)) chain over a raw row pointer
/// (ascending-j self dot, then sqrt) without materializing a Vector.
double RowNorm(const double* p, size_t dims) {
  double s = 0.0;
  for (size_t j = 0; j < dims; ++j) s += p[j] * p[j];
  return std::sqrt(s);
}

}  // namespace

// The SIMD path evaluates kLanes rows per step: each lane carries one
// row's full ascending-j squared-distance chain
// (simd::SquaredDistanceRows), then the exp is taken per lane in scalar —
// bit-identical to GaussianKernel::operator() row by row. The scalar
// tail/path is the literal original chain.
void GaussianKernelRows(const double* rows, size_t count, size_t stride,
                        const double* point, size_t dims, double tau,
                        bool use_simd, double* out) {
  size_t r = 0;
  if (use_simd) {
    // 4-way interleaved blocks first (latency-bound otherwise; see
    // simd::SquaredDistanceRows4), then single blocks.
    for (; r + 4 * simd::kLanes <= count; r += 4 * simd::kLanes) {
      simd::VecD acc[4];
      simd::SquaredDistanceRows4(rows + r * stride, stride, point, dims, acc);
      double sq[4 * simd::kLanes];
      for (size_t c = 0; c < 4; ++c) {
        simd::StoreU(sq + c * simd::kLanes, acc[c]);
      }
      for (size_t l = 0; l < 4 * simd::kLanes; ++l) {
        out[r + l] = std::exp(-sq[l] / tau);
      }
    }
    for (; r + simd::kLanes <= count; r += simd::kLanes) {
      double sq[simd::kLanes];
      simd::StoreU(
          sq, simd::SquaredDistanceRows(rows + r * stride, stride, point,
                                        dims));
      for (size_t l = 0; l < simd::kLanes; ++l) {
        out[r + l] = std::exp(-sq[l] / tau);
      }
    }
  }
  for (; r < count; ++r) {
    const double* p = rows + r * stride;
    double s = 0.0;
    for (size_t j = 0; j < dims; ++j) {
      const double d = p[j] - point[j];
      s += d * d;
    }
    out[r] = std::exp(-s / tau);
  }
}

void PackRowsToTiles(const double* rows, size_t count, size_t dims,
                     double* tiles) {
  for (size_t t0 = 0; t0 < count; t0 += simd::kTileRows) {
    const size_t rows_in_tile = std::min(simd::kTileRows, count - t0);
    double* tile = tiles + t0 * dims;
    for (size_t r = 0; r < rows_in_tile; ++r) {
      const double* row = rows + (t0 + r) * dims;
      for (size_t j = 0; j < dims; ++j) tile[j * rows_in_tile + r] = row[j];
    }
  }
}

void GaussianKernelTilesBatch(const double* tiles, size_t count, size_t dims,
                              const double* queries, size_t num_queries,
                              size_t query_stride, double tau, bool use_simd,
                              double* out, size_t out_row_stride,
                              size_t out_query_stride) {
  for (size_t t0 = 0; t0 < count; t0 += simd::kTileRows) {
    const size_t rows_in_tile = std::min(simd::kTileRows, count - t0);
    const double* tile = tiles + t0 * dims;
    for (size_t q = 0; q < num_queries; ++q) {
      const double* point = queries + q * query_stride;
      double* col = out + t0 * out_row_stride + q * out_query_stride;
      size_t r = 0;
      if (use_simd) {
        for (; r + 4 * simd::kLanes <= rows_in_tile; r += 4 * simd::kLanes) {
          simd::VecD acc[4];
          simd::SquaredDistanceTile4(tile, rows_in_tile, r, point, dims, acc);
          double sq[4 * simd::kLanes];
          for (size_t c = 0; c < 4; ++c) {
            simd::StoreU(sq + c * simd::kLanes, acc[c]);
          }
          for (size_t l = 0; l < 4 * simd::kLanes; ++l) {
            col[(r + l) * out_row_stride] = std::exp(-sq[l] / tau);
          }
        }
        for (; r + simd::kLanes <= rows_in_tile; r += simd::kLanes) {
          double sq[simd::kLanes];
          simd::StoreU(sq, simd::SquaredDistanceTile(tile, rows_in_tile, r,
                                                     point, dims));
          for (size_t l = 0; l < simd::kLanes; ++l) {
            col[(r + l) * out_row_stride] = std::exp(-sq[l] / tau);
          }
        }
      }
      for (; r < rows_in_tile; ++r) {
        double s = 0.0;
        for (size_t j = 0; j < dims; ++j) {
          const double d = tile[j * rows_in_tile + r] - point[j];
          s += d * d;
        }
        col[r * out_row_stride] = std::exp(-s / tau);
      }
    }
  }
}

double GaussianKernel::operator()(const linalg::Vector& a,
                                  const linalg::Vector& b) const {
  QPP_CHECK(tau > 0.0);
  return std::exp(-linalg::SquaredDistance(a, b) / tau);
}

double GaussianScaleFromNorms(const linalg::Matrix& x, double factor) {
  QPP_CHECK(x.rows() > 0 && factor > 0.0);
  const size_t n = x.rows();
  // Two-pass variance: the one-pass E[X^2] - E[X]^2 form cancels
  // catastrophically when the norms are large and nearly constant (both
  // terms ~norm^2, their difference ~variance), silently collapsing tau to
  // 0 — or below — and kicking in the pairwise-distance fallback for data
  // that has a perfectly good norm variance. Mean first, then centered
  // squares. Both passes reduce over fixed row chunks in ascending chunk
  // order, so the value is bit-identical at every thread count.
  // Per-row norms run over raw row pointers (same ascending-j chain as
  // linalg::Norm(x.Row(i)), minus the Vector copy); the SIMD form puts one
  // row's chain in each lane and adds the lane norms back into the chunk
  // sum in ascending row order, so both passes stay bit-identical to the
  // scalar loop. Hardware lane sqrt is correctly rounded (== std::sqrt).
  const double* base = x.data().data();
  const size_t dims = x.cols();
  const bool use_simd = simd::Enabled();
  const auto combine = [](double a, double b) { return a + b; };
  const double sum = par::DeterministicReduce<double>(
      0, n, kNormGrain, 0.0,
      [&](size_t r0, size_t r1) {
        double s = 0.0;
        size_t i = r0;
        if (use_simd) {
          for (; i + simd::kLanes <= r1; i += simd::kLanes) {
            double norms[simd::kLanes];
            simd::StoreU(norms, simd::Sqrt(simd::SelfDotRows(
                                    base + i * dims, dims, dims)));
            for (size_t l = 0; l < simd::kLanes; ++l) s += norms[l];
          }
        }
        for (; i < r1; ++i) s += RowNorm(base + i * dims, dims);
        return s;
      },
      combine, "norm_sum");
  const double mean = sum / static_cast<double>(n);
  const double sq_sum = par::DeterministicReduce<double>(
      0, n, kNormGrain, 0.0,
      [&](size_t r0, size_t r1) {
        double s = 0.0;
        size_t i = r0;
        if (use_simd) {
          for (; i + simd::kLanes <= r1; i += simd::kLanes) {
            double norms[simd::kLanes];
            simd::StoreU(norms, simd::Sqrt(simd::SelfDotRows(
                                    base + i * dims, dims, dims)));
            for (size_t l = 0; l < simd::kLanes; ++l) {
              const double d = norms[l] - mean;
              s += d * d;
            }
          }
        }
        for (; i < r1; ++i) {
          const double d = RowNorm(base + i * dims, dims) - mean;
          s += d * d;
        }
        return s;
      },
      combine, "norm_var");
  const double var = sq_sum / static_cast<double>(n);
  double tau = factor * var;
  if (!(tau > 1e-12)) {
    tau = factor * MeanSquaredPairwiseDistance(x);
  }
  return tau > 1e-12 ? tau : 1.0;
}

double MeanSquaredPairwiseDistance(const linalg::Matrix& x,
                                   size_t max_pairs) {
  const size_t n = x.rows();
  if (n < 2) return 1.0;
  // Deterministic stride sampling over the upper triangle.
  const size_t total = n * (n - 1) / 2;
  const size_t stride = total > max_pairs ? total / max_pairs : 1;
  double sum = 0.0;
  size_t count = 0;
  size_t index = 0;
  for (size_t i = 0; i < n && count < max_pairs; ++i) {
    for (size_t j = i + 1; j < n && count < max_pairs; ++j) {
      if (index++ % stride != 0) continue;
      sum += linalg::SquaredDistance(x.Row(i), x.Row(j));
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 1.0;
}

linalg::Matrix KernelMatrix(const linalg::Matrix& x,
                            const GaussianKernel& kernel) {
  const size_t n = x.rows();
  linalg::Matrix k(n, n);
  // Upper-triangle row strips with symmetric fill. Strips write disjoint
  // cells — strip rows i write (i, j>i) and mirror (j>i, i), and two
  // distinct strips can never produce the same (row, col) pair — so the
  // row-parallel form computes exactly the entries the serial loop did.
  // Small grain: row i carries n-i-1 kernel evaluations, so fine-grained
  // round-robin chunks balance the triangle across threads.
  QPP_CHECK(kernel.tau > 0.0);
  const double* base = x.data().data();
  const size_t dims = x.cols();
  const bool use_simd = simd::Enabled();
  par::ParallelFor(
      0, n, kKernelRowGrain,
      [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
          k(i, i) = 1.0;
          if (i + 1 >= n) continue;
          // Row i's strip (i, j > i) is contiguous in k; evaluate the
          // Gaussian over the raw row block and mirror afterwards.
          GaussianKernelRows(base + (i + 1) * dims, n - i - 1, dims,
                             base + i * dims, dims, kernel.tau, use_simd,
                             &k(i, i + 1));
          for (size_t j = i + 1; j < n; ++j) k(j, i) = k(i, j);
        }
      },
      "kernel_matrix");
  return k;
}

void CenterKernelMatrix(linalg::Matrix* k) {
  QPP_CHECK(k != nullptr && k->rows() == k->cols());
  const size_t n = k->rows();
  if (n == 0) return;
  linalg::Vector row_mean(n, 0.0);
  double grand = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < n; ++j) s += (*k)(i, j);
    row_mean[i] = s / static_cast<double>(n);
    grand += s;
  }
  grand /= static_cast<double>(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      (*k)(i, j) += grand - row_mean[i] - row_mean[j];
    }
  }
}

}  // namespace qpp::ml
