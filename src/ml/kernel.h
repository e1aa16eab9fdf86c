// Gaussian kernel machinery (paper Section VI-A, equation (1)).
//
//   k(x_i, x_j) = exp(-||x_i - x_j||^2 / tau)
//
// The paper sets the scale tau to "a fixed fraction of the empirical
// variance of the norms of the data points" — 0.1 for query vectors, 0.2
// for performance vectors. When that variance collapses (all rows at equal
// norm) we fall back to the mean pairwise squared distance, which keeps the
// kernel well-conditioned.
#pragma once

#include "linalg/matrix.h"

namespace qpp::ml {

struct GaussianKernel {
  double tau = 1.0;

  double operator()(const linalg::Vector& a, const linalg::Vector& b) const;
};

/// Paper heuristic: tau = factor * Var(||x_i||), with a mean-pairwise-
/// squared-distance fallback when the variance is degenerate. The variance
/// uses the numerically stable two-pass (centered) formula, so
/// near-constant large norms yield their true small variance instead of a
/// catastrophically cancelled zero. Deterministic across thread counts.
double GaussianScaleFromNorms(const linalg::Matrix& x, double factor);

/// Mean squared pairwise distance over (a sample of) the rows of x.
double MeanSquaredPairwiseDistance(const linalg::Matrix& x,
                                   size_t max_pairs = 20000);

/// Dense kernel matrix K(i, j) = kernel(row i, row j). Symmetric, unit
/// diagonal.
linalg::Matrix KernelMatrix(const linalg::Matrix& x,
                            const GaussianKernel& kernel);

/// Raw row-block form of the Gaussian evaluation behind KernelMatrix and
/// the exact solver's query kernel vector: out[r] =
/// exp(-||row_r - point||^2 / tau) for r in [0, count), where row_r starts
/// at rows + r*stride. With use_simd the squared distances are computed
/// kLanes rows at a time, one row's full ascending-j chain per lane, so
/// the values are bit-identical to the scalar loop (which is the literal
/// GaussianKernel::operator() chain). Hot-path building block for
/// ml::KccaModel projection.
void GaussianKernelRows(const double* rows, size_t count, size_t stride,
                        const double* point, size_t dims, double tau,
                        bool use_simd, double* out);

/// Packs `count` row-major rows into the column-major tile layout the
/// tiled distance kernels consume (simd::kTileRows rows per tile, element
/// (r, j) of tile t at tiles[t*kTileRows*dims + j*rows_in_tile + r']).
/// `tiles` must hold count*dims doubles. The packed copy holds the same
/// doubles — layout alone never changes a result; it exists because the
/// distance scan is throughput-bound on strided gathers in the row-major
/// form. Derived state: owners rebuild it on Train/Load, never serialize.
void PackRowsToTiles(const double* rows, size_t count, size_t dims,
                     double* tiles);

/// GaussianKernelRows over a PackRowsToTiles layout, for a block of
/// queries: out[r*out_row_stride + q*out_query_stride] =
/// exp(-||row_r - query_q||^2 / tau) for r in [0, count) and q in
/// [0, num_queries), where query_q starts at queries + q*query_stride.
/// Each (row, query) value keeps GaussianKernelRows' ascending-j chain, so
/// it is bit-identical to the row-major form; only the loads are
/// contiguous (simd::SquaredDistanceTile4) instead of strided. Iterates
/// tile-major, so each packed tile (a few KB) stays hot in L1 across the
/// query block instead of streaming all tiles once per query. The output
/// strides let a caller lay the block out by row (S(i, q) at i*B + q, the
/// blocked solve's layout) or by query (at q*m + i, one contiguous vector
/// per query). This is the serving hot path for the KCCA pivot kernel.
void GaussianKernelTilesBatch(const double* tiles, size_t count, size_t dims,
                              const double* queries, size_t num_queries,
                              size_t query_stride, double tau, bool use_simd,
                              double* out, size_t out_row_stride,
                              size_t out_query_stride);

/// In-place double centering: K <- H K H with H = I - 11^T/N.
void CenterKernelMatrix(linalg::Matrix* k);

}  // namespace qpp::ml
