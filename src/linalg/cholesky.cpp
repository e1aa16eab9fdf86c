#include "linalg/cholesky.h"

#include <cmath>

#include "common/check.h"
#include "linalg/triangular.h"
#include "par/parallel_for.h"
#include "par/simd.h"
#include "par/simd_lanes.h"

namespace qpp::linalg {

namespace {
/// Right-hand-side columns per parallel chunk, and the solve work (n^2 per
/// column x columns) below which the column loop runs inline.
constexpr size_t kColGrain = 8;
constexpr size_t kParMinWork = size_t{1} << 15;
}  // namespace

Cholesky::Cholesky(const Matrix& a, double max_jitter) {
  QPP_CHECK_MSG(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const size_t n = a.rows();
  double mean_diag = 0.0;
  for (size_t i = 0; i < n; ++i) mean_diag += std::abs(a(i, i));
  mean_diag = n > 0 ? mean_diag / static_cast<double>(n) : 0.0;
  if (mean_diag == 0.0) mean_diag = 1.0;

  // Escalating jitter: 0, then 1e-12..max_jitter relative to mean diagonal.
  double rel = 0.0;
  while (true) {
    if (Factorize(a, rel * mean_diag)) {
      ok_ = true;
      jitter_ = rel * mean_diag;
      return;
    }
    rel = (rel == 0.0) ? 1e-12 : rel * 100.0;
    if (rel > max_jitter) break;
  }
  ok_ = false;
}

// Left-looking, one column at a time. The diagonal keeps its dot-product
// chain over row j of L. The rows below it are independent lanes: column j
// starts as a(i, j), absorbs one AxpyNegRow per previous column k over the
// column-major mirror `lt` (row k of lt is column k of L), and is divided by
// l(j, j) last — per element exactly a(i, j) - l(i, 0) l(j, 0) - ... -
// l(i, j-1) l(j, j-1), then / l(j, j), the row-at-a-time chain.
bool Cholesky::Factorize(const Matrix& a, double jitter) {
  const size_t n = a.rows();
  l_ = Matrix(n, n);
  Matrix lt(n, n);
  const bool use_simd = simd::Enabled();
  for (size_t j = 0; j < n; ++j) {
    const double* lj = &l_.data()[j * n];
    double d = a(j, j) + jitter;
    for (size_t k = 0; k < j; ++k) d -= lj[k] * lj[k];
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    l_(j, j) = ljj;
    const size_t rows = n - j - 1;
    double* s = &lt.data()[j * n + j + 1];  // column j below the diagonal
    for (size_t r = 0; r < rows; ++r) s[r] = a(j + 1 + r, j);
    for (size_t k = 0; k < j; ++k) {
      const double* lk = &lt.data()[k * n + j + 1];
      if (use_simd) {
        simd::AxpyNegRow(s, lj[k], lk, rows);
      } else {
        for (size_t r = 0; r < rows; ++r) s[r] -= lk[r] * lj[k];
      }
    }
    if (use_simd) {
      simd::DivRowBy(s, ljj, rows);
    } else {
      for (size_t r = 0; r < rows; ++r) s[r] = s[r] / ljj;
    }
    for (size_t r = 0; r < rows; ++r) l_(j + 1 + r, j) = s[r];
  }
  return true;
}

Vector Cholesky::SolveLower(const Vector& b) const {
  QPP_CHECK(ok_ && b.size() == l_.rows());
  const size_t n = b.size();
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l_(i, k) * y[k];
    y[i] = s / l_(i, i);
  }
  return y;
}

Vector Cholesky::SolveLowerTranspose(const Vector& b) const {
  QPP_CHECK(ok_ && b.size() == l_.rows());
  const size_t n = b.size();
  Vector x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double s = b[i];
    for (size_t k = i + 1; k < n; ++k) s -= l_(k, i) * x[k];
    x[i] = s / l_(i, i);
  }
  return x;
}

Vector Cholesky::Solve(const Vector& b) const {
  return SolveLowerTranspose(SolveLower(b));
}

// Columns never interact in forward substitution, so disjoint column ranges
// solve concurrently, and every column keeps SolveLower's chain (the
// contract in linalg/triangular.h): bit-identical at every thread count and
// lane width. These are the triangular solves of FitCca's whitening and
// the exact KCCA solver's Lx^{-1} C with N columns.
Matrix Cholesky::SolveLowerMatrix(const Matrix& b) const {
  QPP_CHECK(ok_ && b.rows() == l_.rows());
  Matrix y = b;
  const size_t n = b.rows();
  const size_t cols = b.cols();
  const double* l = l_.data().data();
  double* s = y.data().data();
  const bool use_simd = simd::Enabled();
  auto solve_cols = [&](size_t c0, size_t c1) {
    ForwardSubstBlocked(l, n, s + c0, c1 - c0, cols, use_simd);
  };
  if (n * n * cols < kParMinWork) {
    solve_cols(0, cols);
  } else {
    par::ParallelFor(0, cols, kColGrain, solve_cols, "chol_solve_lower");
  }
  return y;
}

}  // namespace qpp::linalg
