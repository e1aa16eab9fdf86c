// Pivoted incomplete Cholesky decomposition of a kernel (Gram) matrix.
//
// This is the low-rank machinery that makes KCCA tractable at N ~ 1000+
// training queries: instead of factoring the full N-by-N kernel matrices, we
// greedily build K ≈ G G^T with G of rank m << N, then run a small linear
// CCA in the induced feature space. This is the approach of Bach & Jordan,
// "Kernel Independent Component Analysis" (JMLR 2002) — reference [22] of
// the reproduced paper.
//
// A useful identity: the rows of G at the pivot positions form the exact
// lower-triangular Cholesky factor L of K[P,P], so a *new* point x* maps to
// the same feature space via  g(x*) = L^{-1} k(P, x*).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "linalg/matrix.h"

namespace qpp::linalg {

/// Kernel column oracle: writes K(i, p) to out[i] for every data index i in
/// [0, n) — the whole pivot column at once, so a caller can fill it with a
/// vectorized row kernel.
using KernelColumnFn = std::function<void(size_t p, double* out)>;

struct IncompleteCholeskyResult {
  /// N-by-m feature matrix with K ≈ g g^T.
  Matrix g;
  /// Pivot data indices, in selection order (size m).
  std::vector<size_t> pivots;
  /// Largest residual diagonal entry at termination (approximation error
  /// bound on the trace of K - g g^T per entry).
  double residual = 0.0;
};

/// Runs pivoted incomplete Cholesky on the n-by-n kernel with diagonal
/// `diag` (n = diag.size()) and columns from `column`, stopping when either
/// `max_rank` columns were produced or the largest residual diagonal falls
/// below `tol`, and writes the factorization to `out`. It builds in the
/// caller's storage: `cols` points at n * min(max_rank, n) doubles, which
/// need no initial values (column c of G is built at cols[c*n, c*n+n)), and
/// `out->g` is reshaped to n-by-m within its capacity when that suffices.
/// A caller running factorizations on pool threads allocates both before
/// the parallel region, so the pool threads allocate nothing sizable.
void IncompleteCholesky(const Vector& diag, const KernelColumnFn& column,
                        size_t max_rank, double tol, double* cols,
                        IncompleteCholeskyResult* out);

/// Extracts the m-by-m lower-triangular factor L = G[P, :] (rows of `g` at
/// the pivot positions). Satisfies K[P,P] = L L^T exactly.
Matrix PivotFactor(const IncompleteCholeskyResult& icd);

}  // namespace qpp::linalg
