#include "linalg/cholesky.h"

#include <cmath>

#include "common/check.h"
#include "par/parallel_for.h"

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

bool Cholesky::Factorize(const Matrix& a, double jitter) {
  const size_t n = a.rows();
  l_ = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    double d = a(j, j) + jitter;
    for (size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    l_(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / ljj;
    }
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

// Each right-hand-side column solves independently with the same per-column
// arithmetic as before, so parallelizing the column loop is bit-identical
// at every thread count. These are the N^3/2-flop triangular solves of the
// exact KCCA solver (Lx^{-1} C with N columns).
Matrix Cholesky::Solve(const Matrix& b) const {
  QPP_CHECK(ok_ && b.rows() == l_.rows());
  Matrix x(b.rows(), b.cols());
  auto solve_cols = [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      const Vector col = Solve(b.Col(c));
      for (size_t r = 0; r < b.rows(); ++r) x(r, c) = col[r];
    }
  };
  if (b.rows() * b.rows() * b.cols() < kParMinWork) {
    solve_cols(0, b.cols());
  } else {
    par::ParallelFor(0, b.cols(), kColGrain, solve_cols, "chol_solve");
  }
  return x;
}

Matrix Cholesky::SolveLowerMatrix(const Matrix& b) const {
  QPP_CHECK(ok_ && b.rows() == l_.rows());
  Matrix y(b.rows(), b.cols());
  auto solve_cols = [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      const Vector col = SolveLower(b.Col(c));
      for (size_t r = 0; r < b.rows(); ++r) y(r, c) = col[r];
    }
  };
  if (b.rows() * b.rows() * b.cols() < kParMinWork) {
    solve_cols(0, b.cols());
  } else {
    par::ParallelFor(0, b.cols(), kColGrain, solve_cols, "chol_solve_lower");
  }
  return y;
}

}  // namespace qpp::linalg
