#include "linalg/incomplete_cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qpp::linalg {

IncompleteCholeskyResult IncompleteCholesky(size_t n, const KernelFn& kernel,
                                            size_t max_rank, double tol) {
  QPP_CHECK(max_rank >= 1);
  IncompleteCholeskyResult out;
  if (n == 0) return out;

  const size_t m_cap = std::min(max_rank, n);
  // Column-major storage of G while building (each step appends a column).
  std::vector<Vector> cols;
  cols.reserve(m_cap);

  Vector d(n);  // residual diagonal
  for (size_t i = 0; i < n; ++i) d[i] = kernel(i, i);

  std::vector<size_t> pivots;
  pivots.reserve(m_cap);
  std::vector<bool> pivoted(n, false);

  while (pivots.size() < m_cap) {
    // Select the pivot with the largest residual diagonal.
    size_t p = 0;
    double best = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (d[i] > best) {
        best = d[i];
        p = i;
      }
    }
    if (best <= tol) break;

    // New column: (K(i, p) - sum_c G(i, c) G(p, c)) / lpp, built one
    // previous column at a time so every pass runs down contiguous
    // vectors; each row's subtraction chain runs in ascending column
    // order. The kernel is evaluated only on rows that are neither the
    // pivot nor already pivoted; those rows are set afterwards: lpp on the
    // pivot row, 0 on pivoted rows, whose residual is exactly zero.
    const double lpp = std::sqrt(best);
    Vector col(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (i != p && !pivoted[i]) col[i] = kernel(i, p);
    }
    for (const Vector& prev : cols) {
      const double gp = prev[p];
      for (size_t i = 0; i < n; ++i) col[i] -= prev[i] * gp;
    }
    for (size_t i = 0; i < n; ++i) col[i] /= lpp;
    for (size_t prev : pivots) col[prev] = 0.0;
    col[p] = lpp;
    for (size_t i = 0; i < n; ++i) {
      d[i] -= col[i] * col[i];
      if (d[i] < 0.0) d[i] = 0.0;  // clamp round-off
    }
    d[p] = 0.0;
    cols.push_back(std::move(col));
    pivots.push_back(p);
    pivoted[p] = true;
  }

  const size_t m = cols.size();
  out.g = Matrix(n, m);
  for (size_t c = 0; c < m; ++c)
    for (size_t r = 0; r < n; ++r) out.g(r, c) = cols[c][r];
  out.pivots = std::move(pivots);
  out.residual = *std::max_element(d.begin(), d.end());
  return out;
}

Matrix PivotFactor(const IncompleteCholeskyResult& icd) {
  const size_t m = icd.pivots.size();
  Matrix l(m, m);
  for (size_t r = 0; r < m; ++r)
    for (size_t c = 0; c < m; ++c) l(r, c) = icd.g(icd.pivots[r], c);
  return l;
}

}  // namespace qpp::linalg
