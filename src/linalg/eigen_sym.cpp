#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "par/parallel_for.h"

namespace qpp::linalg {

namespace {

double Hypot(double a, double b) { return std::hypot(a, b); }

// Householder reduction of a real symmetric matrix to tridiagonal form.
// On exit `a` holds the orthogonal transform Q (accumulated), `d` the
// diagonal, `e` the off-diagonal (e[0] unused). Follows Numerical Recipes
// tred2 with eigenvector accumulation.
void Tred2(Matrix& a, Vector& d, Vector& e) {
  const size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;
  for (size_t i = n - 1; i >= 1; --i) {
    const size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (i > 1) {
      for (size_t k = 0; k <= l; ++k) scale += std::abs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = (f >= 0.0 ? -std::sqrt(h) : std::sqrt(h));
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        // p = A u / h from the lower triangle: g_j sums a(j,k) u_k up to the
        // diagonal, then a(k,j) u_k below it, in ascending k. Walked row by
        // row: row k completes g_k's row part, then adds its entries left
        // of the diagonal to every g_j, j < k, so each g_j (held in e[j])
        // receives its terms in ascending k.
        const double* ai = &a(i, 0);
        for (size_t k = 0; k <= l; ++k) {
          const double* ak = &a(k, 0);
          double gk = 0.0;
          for (size_t j = 0; j <= k; ++j) gk += ak[j] * ai[j];
          const double uk = ai[k];
          for (size_t j = 0; j < k; ++j) e[j] += ak[j] * uk;
          e[k] = gk;
        }
        f = 0.0;
        for (size_t j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          e[j] /= h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          e[j] = g = e[j] - hh * f;
          for (size_t k = 0; k <= j; ++k)
            a(j, k) -= f * e[k] + g * a(i, k);
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulation of Q: for each i, g_j = sum_k a(i,k) a(k,j) for every
  // j < i, then a(k,j) -= g_j a(k,i). All g_j are accumulated first, row by
  // row over k, and the rank-1 update follows, also row by row. g_j reads
  // only row i and column j (rows k < i), which no other column's update
  // touches, and each g_j sums from 0.0 in ascending k.
  Vector g(n);
  for (size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      std::fill(g.begin(), g.begin() + i, 0.0);
      for (size_t k = 0; k < i; ++k) {
        const double aik = a(i, k);
        const double* ak = &a(k, 0);
        for (size_t j = 0; j < i; ++j) g[j] += aik * ak[j];
      }
      for (size_t k = 0; k < i; ++k) {
        const double aki = a(k, i);
        double* ak = &a(k, 0);
        for (size_t j = 0; j < i; ++j) ak[j] -= g[j] * aki;
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (size_t j = 0; j < i; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

// Implicit-shift QL on a tridiagonal matrix with eigenvector accumulation.
// The eigenvectors are kept transposed: row i of `zt` is eigenvector
// column i of NR's z, so each Givens rotation updates two contiguous rows,
// with NR's two expressions per element.
//
// Returns false if an eigenvalue has not converged after kMaxIters sweeps
// (NaN input, for one). The deflation test compares e[m] with its two
// neighbouring diagonal entries, so a cluster of round-off-sized
// eigenvalues (the null space of a rank-deficient kernel product, ~1e-19
// next to eigenvalues ~1) converges slowly: the golf-ball model of one
// seed-42 ledger training split needs 50 sweeps on its first eigenvalue.
// The cap does not affect a decomposition that converges within it.
bool Tqli(Vector& d, Vector& e, Matrix& zt) {
  constexpr int kMaxIters = 200;
  const size_t n = d.size();
  if (n == 0) return true;
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (size_t l = 0; l < n; ++l) {
    int iter = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 || std::abs(e[m]) <= 2.3e-16 * dd) break;
      }
      if (m != l) {
        if (++iter == kMaxIters) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (size_t ii = m; ii > l; --ii) {
          const size_t i = ii - 1;
          double f = s * e[i];
          const double b = c * e[i];
          r = Hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          double* zi = &zt(i, 0);
          double* zi1 = &zt(i + 1, 0);
          for (size_t k = 0; k < n; ++k) {
            const double zf = zi1[k];
            zi1[k] = s * zi[k] + c * zf;
            zi[k] = c * zi[k] - s * zf;
          }
        }
        if (r == 0.0 && m > l + 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

// The decomposition both entry points share: eigenvalues in QL order,
// eigenvectors as the rows of `zt`, and the ascending-eigenvalue order.
struct Decomposition {
  Vector d;
  Matrix zt;
  std::vector<size_t> order;
  bool converged = false;
};

Decomposition Decompose(const Matrix& a) {
  QPP_CHECK_MSG(a.rows() == a.cols(), "EigenSymmetric needs a square matrix");
  const size_t n = a.rows();
  Decomposition out;
  if (n == 0) {
    out.converged = true;
    return out;
  }
  // Symmetrize to absorb round-off asymmetry from upstream products.
  // Elementwise, so the row-parallel form is bit-identical to the serial
  // loop. The Householder/QL iterations themselves stay sequential (each
  // rotation feeds the next); the O(n^2) pre/post passes are what
  // parallelize safely here — the O(n^3) products that *build* the input
  // matrix are parallel in Matrix::Multiply and Cholesky::SolveLowerMatrix.
  Matrix s(n, n);
  par::ParallelFor(
      0, n, 32,
      [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i)
          for (size_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
      },
      "eigen_symmetrize");

  Vector e;
  Tred2(s, out.d, e);
  out.zt = s.Transpose();
  out.converged = Tqli(out.d, e, out.zt);

  out.order.resize(n);
  std::iota(out.order.begin(), out.order.end(), 0);
  const Vector& d = out.d;
  std::sort(out.order.begin(), out.order.end(),
            [&](size_t x, size_t y) { return d[x] < d[y]; });
  return out;
}

// Eigenpairs src[0], src[1], ... of `dec`: values[c] and column c of the
// n x k `vectors`. The output columns are split across threads, each
// reading whole rows of zt.
void Gather(const Decomposition& dec, const std::vector<size_t>& src,
            Vector* values, Matrix* vectors) {
  const size_t n = dec.zt.cols();
  const size_t k = src.size();
  values->resize(k);
  for (size_t c = 0; c < k; ++c) (*values)[c] = dec.d[src[c]];
  *vectors = Matrix(n, k);
  par::ParallelFor(
      0, k, 32,
      [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c) {
          const double* row = dec.zt.data().data() + src[c] * n;
          for (size_t r = 0; r < n; ++r) (*vectors)(r, c) = row[r];
        }
      },
      "eigen_permute");
}

}  // namespace

SymmetricEigen EigenSymmetric(const Matrix& a) {
  const Decomposition dec = Decompose(a);
  SymmetricEigen out;
  Gather(dec, dec.order, &out.values, &out.vectors);
  out.converged = dec.converged;
  return out;
}

TopEigen TopKEigenSymmetric(const Matrix& a, size_t k) {
  const Decomposition dec = Decompose(a);
  const size_t n = dec.order.size();
  // Largest first: column c is the (n-1-c)-th in ascending order.
  std::vector<size_t> src(std::min(k, n));
  for (size_t c = 0; c < src.size(); ++c) src[c] = dec.order[n - 1 - c];
  TopEigen out;
  Gather(dec, src, &out.values, &out.vectors);
  out.converged = dec.converged;
  return out;
}

}  // namespace qpp::linalg
