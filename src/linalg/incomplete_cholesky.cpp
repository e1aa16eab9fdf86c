#include "linalg/incomplete_cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qpp::linalg {

void IncompleteCholesky(const Vector& diag, const KernelColumnFn& column,
                        size_t max_rank, double tol, double* cols,
                        IncompleteCholeskyResult* out) {
  QPP_CHECK(max_rank >= 1 && out != nullptr);
  const size_t n = diag.size();
  std::vector<size_t>& pivots = out->pivots;
  pivots.clear();
  out->residual = 0.0;
  if (n == 0) {
    out->g.Reshape(0, 0);
    return;
  }

  const size_t m_cap = std::min(max_rank, n);
  QPP_CHECK(cols != nullptr);  // column c of G at cols + c * n

  Vector d = diag;  // residual diagonal
  pivots.reserve(m_cap);

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
    // columns; each row's subtraction chain runs in ascending column
    // order. The oracle fills the whole kernel column; the pivot row and
    // the already pivoted rows are set afterwards: lpp on the pivot row, 0
    // on pivoted rows, whose residual is exactly zero.
    const double lpp = std::sqrt(best);
    double* col = cols + pivots.size() * n;
    column(p, col);
    for (size_t c = 0; c < pivots.size(); ++c) {
      const double* prev = cols + c * n;
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
    pivots.push_back(p);
  }

  const size_t m = pivots.size();
  out->g.Reshape(n, m);
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < m; ++c) out->g(r, c) = cols[c * n + r];
  out->residual = *std::max_element(d.begin(), d.end());
}

Matrix PivotFactor(const IncompleteCholeskyResult& icd) {
  const size_t m = icd.pivots.size();
  Matrix l(m, m);
  for (size_t r = 0; r < m; ++r)
    for (size_t c = 0; c < m; ++c) l(r, c) = icd.g(icd.pivots[r], c);
  return l;
}

}  // namespace qpp::linalg
