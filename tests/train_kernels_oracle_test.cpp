// Bitwise oracle for the training kernels. EigenSymmetric's Householder
// reduction and QL iteration, and IncompleteCholesky, walk memory in row
// order; Cholesky factorizes with its rows as independent lanes and solves
// many right-hand sides blocked; IncompleteCholesky fills whole kernel
// columns. The references below are the loops they replaced, kept verbatim
// (Numerical Recipes' tred2/tqli as this library had them, the row-at-a-time
// pivoted incomplete Cholesky over a per-entry kernel, and the row-at-a-time
// Cholesky). Every output must match its reference bit for bit (memcmp) —
// on random and structured matrices, and on the matrices the paper's models
// are trained from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/predictor.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/incomplete_cholesky.h"
#include "ml/cca.h"
#include "ml/feature_vector.h"
#include "ml/kcca.h"
#include "ml/kernel.h"
#include "ml/preprocess.h"
#include "par/simd.h"
#include "par/thread_pool.h"
#include "workload/pools.h"
#include "fixtures.h"

namespace qpp {
namespace {

using linalg::Matrix;
using linalg::Vector;

// --- The references ---------------------------------------------------------
namespace reference {

double Hypot(double a, double b) { return std::hypot(a, b); }

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
        f = 0.0;
        for (size_t j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (size_t k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (size_t k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
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
  for (size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (size_t k = 0; k < i; ++k) g += a(i, k) * a(k, j);
        for (size_t k = 0; k < i; ++k) a(k, j) -= g * a(k, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (size_t j = 0; j < i; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

bool Tqli(Vector& d, Vector& e, Matrix& z) {
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
        if (++iter == 50) return false;
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
          for (size_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
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

// EigenSymmetric around them. The symmetrize and permute passes are
// elementwise, so this serial form equals the library's parallel one.
linalg::SymmetricEigen EigenSymmetric(const Matrix& a) {
  const size_t n = a.rows();
  linalg::SymmetricEigen out;
  if (n == 0) {
    out.converged = true;
    return out;
  }
  Matrix s(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  Vector d, e;
  Tred2(s, d, e);
  const bool ok = Tqli(d, e, s);
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](size_t x, size_t y) { return d[x] < d[y]; });
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t c = 0; c < n; ++c) out.values[c] = d[idx[c]];
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < n; ++c) out.vectors(r, c) = s(r, idx[c]);
  out.converged = ok;
  return out;
}

/// Kernel entry oracle: returns K(i, j) for data indices i, j.
using KernelFn = std::function<double(size_t, size_t)>;

/// exp(-||x_i - x_j||^2 / tau), with an exact 1 on the diagonal: the
/// per-entry oracle KccaModel::Train handed IncompleteCholesky.
KernelFn GaussianOracle(const Matrix& x, double tau) {
  return [&x, tau](size_t i, size_t j) {
    if (i == j) return 1.0;
    const size_t dims = x.cols();
    double s = 0.0;
    for (size_t c = 0; c < dims; ++c) {
      const double d = x(i, c) - x(j, c);
      s += d * d;
    }
    return std::exp(-s / tau);
  };
}

linalg::IncompleteCholeskyResult IncompleteCholesky(
    size_t n, const KernelFn& kernel, size_t max_rank, double tol) {
  linalg::IncompleteCholeskyResult out;
  if (n == 0) return out;

  const size_t m_cap = std::min(max_rank, n);
  std::vector<Vector> cols;
  cols.reserve(m_cap);

  Vector d(n);
  for (size_t i = 0; i < n; ++i) d[i] = kernel(i, i);

  std::vector<size_t> pivots;
  pivots.reserve(m_cap);

  while (pivots.size() < m_cap) {
    size_t p = 0;
    double best = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (d[i] > best) {
        best = d[i];
        p = i;
      }
    }
    if (best <= tol) break;

    const double lpp = std::sqrt(best);
    std::vector<bool> pivoted(n, false);
    for (size_t prev : pivots) pivoted[prev] = true;
    Vector col(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (i == p) {
        col[i] = lpp;
        continue;
      }
      if (pivoted[i]) continue;
      double s = kernel(i, p);
      for (const Vector& prev : cols) s -= prev[i] * prev[p];
      col[i] = s / lpp;
    }
    for (size_t i = 0; i < n; ++i) {
      d[i] -= col[i] * col[i];
      if (d[i] < 0.0) d[i] = 0.0;
    }
    d[p] = 0.0;
    cols.push_back(std::move(col));
    pivots.push_back(p);
  }

  const size_t m = cols.size();
  out.g = Matrix(n, m);
  for (size_t c = 0; c < m; ++c)
    for (size_t r = 0; r < n; ++r) out.g(r, c) = cols[c][r];
  out.pivots = std::move(pivots);
  out.residual = *std::max_element(d.begin(), d.end());
  return out;
}

/// The row-at-a-time Cholesky factorization, jitter escalation included.
struct Cholesky {
  Matrix l;
  bool ok = false;
  double jitter = 0.0;
};

bool Factorize(const Matrix& a, double jitter, Matrix* out) {
  const size_t n = a.rows();
  Matrix& l_ = *out;
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

Cholesky Factor(const Matrix& a, double max_jitter) {
  Cholesky out;
  const size_t n = a.rows();
  double mean_diag = 0.0;
  for (size_t i = 0; i < n; ++i) mean_diag += std::abs(a(i, i));
  mean_diag = n > 0 ? mean_diag / static_cast<double>(n) : 0.0;
  if (mean_diag == 0.0) mean_diag = 1.0;

  double rel = 0.0;
  while (true) {
    if (Factorize(a, rel * mean_diag, &out.l)) {
      out.ok = true;
      out.jitter = rel * mean_diag;
      return out;
    }
    rel = (rel == 0.0) ? 1e-12 : rel * 100.0;
    if (rel > max_jitter) break;
  }
  out.ok = false;
  return out;
}

}  // namespace reference

// --- Comparisons ------------------------------------------------------------

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBits(a.data(), b.data());
}

/// EigenSymmetric and TopKEigenSymmetric against the reference, bit for bit.
void ExpectSameEigen(const Matrix& a) {
  const linalg::SymmetricEigen want = reference::EigenSymmetric(a);
  ASSERT_TRUE(want.converged) << "the reference must converge";
  const linalg::SymmetricEigen got = linalg::EigenSymmetric(a);
  EXPECT_TRUE(got.converged);
  EXPECT_TRUE(SameBits(got.values, want.values)) << "eigenvalues differ";
  EXPECT_TRUE(SameBits(got.vectors, want.vectors)) << "eigenvectors differ";

  const size_t n = a.rows();
  const size_t k = std::min<size_t>(n, 16);
  const linalg::TopEigen top = linalg::TopKEigenSymmetric(a, k);
  Vector want_values(k);
  Matrix want_vectors(n, k);
  for (size_t c = 0; c < k; ++c) {
    want_values[c] = want.values[n - 1 - c];
    for (size_t r = 0; r < n; ++r) want_vectors(r, c) = want.vectors(r, n - 1 - c);
  }
  EXPECT_TRUE(top.converged);
  EXPECT_TRUE(SameBits(top.values, want_values)) << "top-k values differ";
  EXPECT_TRUE(SameBits(top.vectors, want_vectors)) << "top-k vectors differ";
}

/// IncompleteCholesky over the Gaussian kernel of x's rows, its columns
/// filled by ml::GaussianKernelRows as KccaModel::Train fills them.
linalg::IncompleteCholeskyResult WholeColumnIcd(const Matrix& x, double tau,
                                                size_t max_rank, double tol) {
  const size_t n = x.rows();
  const size_t dims = x.cols();
  const double* base = x.data().data();
  const bool use_simd = simd::Enabled();
  Vector cols(n * std::min(max_rank, n));
  linalg::IncompleteCholeskyResult icd;
  linalg::IncompleteCholesky(
      Vector(n, 1.0),
      [&](size_t p, double* out) {
        ml::GaussianKernelRows(base, n, dims, base + p * dims, dims, tau,
                               use_simd, out);
      },
      max_rank, tol, cols.data(), &icd);
  return icd;
}

/// The whole-column IncompleteCholesky against the per-entry reference on
/// the Gaussian kernel of x's rows, bit for bit, with the columns filled by
/// the SIMD and by the scalar GaussianKernelRows.
void ExpectSameIcd(const Matrix& x, double tau, size_t max_rank, double tol) {
  const linalg::IncompleteCholeskyResult want = reference::IncompleteCholesky(
      x.rows(), reference::GaussianOracle(x, tau), max_rank, tol);
  for (const bool force_scalar : {false, true}) {
    const fixtures::ScopedForceScalar scope(force_scalar);
    const linalg::IncompleteCholeskyResult got =
        WholeColumnIcd(x, tau, max_rank, tol);
    EXPECT_EQ(got.pivots, want.pivots) << "scalar " << force_scalar;
    EXPECT_TRUE(SameBits(got.g, want.g))
        << "factor differs, scalar " << force_scalar;
    EXPECT_TRUE(SameBits(Vector{got.residual}, Vector{want.residual}))
        << "residual differs, scalar " << force_scalar;
  }
}

/// Cholesky against the reference: the same verdict and, when it factors,
/// the same jitter and L, bit for bit, on the SIMD and the scalar path.
void ExpectSameCholesky(const Matrix& a, double max_jitter) {
  const reference::Cholesky want = reference::Factor(a, max_jitter);
  for (const bool force_scalar : {false, true}) {
    const fixtures::ScopedForceScalar scope(force_scalar);
    const linalg::Cholesky got(a, max_jitter);
    ASSERT_EQ(got.ok(), want.ok) << "scalar " << force_scalar;
    if (!want.ok) continue;
    EXPECT_TRUE(SameBits(Vector{got.jitter()}, Vector{want.jitter}))
        << "jitter differs, scalar " << force_scalar;
    EXPECT_TRUE(SameBits(got.L(), want.l))
        << "factor differs, scalar " << force_scalar;
  }
}

// --- Inputs -------------------------------------------------------------------

Matrix RandomSymmetric(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j <= i; ++j) a(i, j) = a(j, i) = rng.Uniform(-1.0, 1.0);
  return a;
}

Matrix RandomPoints(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, dims);
  for (double& v : x.data()) v = rng.Gaussian();
  return x;
}

const bench::PaperExperiment& Exp() {
  static const bench::PaperExperiment exp = bench::BuildPaperExperiment(42);
  return exp;
}

/// A model's preprocessed training matrices, as Predictor::Train makes them.
struct Preprocessed {
  Matrix x;
  Matrix y;
};

Preprocessed Preprocess(const std::vector<ml::TrainingExample>& examples) {
  const core::PredictorConfig cfg;
  const ml::FeatureMatrices mats = ml::StackExamples(examples);
  ml::Preprocessor x_prep(cfg.preprocess_log1p, cfg.preprocess_standardize);
  x_prep.Fit(mats.x);
  ml::Preprocessor y_prep(true, true);
  y_prep.Fit(mats.y);
  return {x_prep.Transform(mats.x), y_prep.Transform(mats.y)};
}

/// m with its column means subtracted, as FitCca centers.
Matrix Centered(const Matrix& m) {
  Vector mean(m.cols(), 0.0);
  for (size_t j = 0; j < m.cols(); ++j) {
    double s = 0.0;
    for (size_t i = 0; i < m.rows(); ++i) s += m(i, j);
    mean[j] = s / static_cast<double>(m.rows());
  }
  Matrix out(m.rows(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i)
    for (size_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j) - mean[j];
  return out;
}

/// The covariance xc^T xc / (n - 1) of centered columns, with FitCca's
/// relative ridge on its diagonal.
Matrix RidgedCovariance(const Matrix& xc, const Matrix& yc, double reg,
                        bool ridge) {
  const double inv_n = 1.0 / static_cast<double>(xc.rows() - 1);
  Matrix c = xc.TransposeMultiply(yc).Scale(inv_n);
  if (ridge) {
    double mean_diag = 0.0;
    for (size_t i = 0; i < c.rows(); ++i) mean_diag += c(i, i);
    mean_diag /= std::max<double>(static_cast<double>(c.rows()), 1.0);
    if (mean_diag <= 0.0) mean_diag = 1.0;
    c.AddToDiagonal(reg * mean_diag + 1e-12);
  }
  return c;
}

/// FitCca's reduced problem S = M M^T, M = Lx^{-1} Cxy Ly^{-T}, step by
/// step as FitCca computes it.
Matrix CcaProblem(const Matrix& x, const Matrix& y, double reg) {
  const Matrix xc = Centered(x);
  const Matrix yc = Centered(y);
  const Matrix cxx = RidgedCovariance(xc, xc, reg, true);
  const Matrix cyy = RidgedCovariance(yc, yc, reg, true);
  const Matrix cxy = RidgedCovariance(xc, yc, reg, false);
  const linalg::Cholesky lx(cxx, 1e-3);
  const linalg::Cholesky ly(cyy, 1e-3);
  const Matrix u1 = lx.SolveLowerMatrix(cxy);
  const Matrix m = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  return m.MultiplyTranspose(m);
}

/// The exact KCCA solver's S = Lx^{-1} (Kx Ky) My^{-1} (Ky Kx) Lx^{-T},
/// step by step as KccaModel::Train computes it.
Matrix ExactKccaProblem(const Matrix& x, const Matrix& y,
                        const ml::KccaOptions& o) {
  const double root_n = std::sqrt(static_cast<double>(x.rows()));
  Matrix kx = ml::KernelMatrix(
      x, ml::GaussianKernel{ml::GaussianScaleFromNorms(x, o.tau_factor_x)});
  Matrix ky = ml::KernelMatrix(
      y, ml::GaussianKernel{ml::GaussianScaleFromNorms(y, o.tau_factor_y)});
  ml::CenterKernelMatrix(&kx);
  ml::CenterKernelMatrix(&ky);
  const double kappa_x = o.kappa * kx.FrobeniusNorm() / root_n;
  const double kappa_y = o.kappa * ky.FrobeniusNorm() / root_n;
  Matrix mx = kx.Multiply(kx).Add(kx.Scale(kappa_x));
  mx.AddToDiagonal(1e-8 * std::max(mx.MaxAbs(), 1.0));
  Matrix my = ky.Multiply(ky).Add(ky.Scale(kappa_y));
  my.AddToDiagonal(1e-8 * std::max(my.MaxAbs(), 1.0));
  const linalg::Cholesky lx(mx, 1e-2);
  const linalg::Cholesky ly(my, 1e-2);
  const Matrix c = kx.Multiply(ky);
  const Matrix u1 = lx.SolveLowerMatrix(c);
  const Matrix g = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  return g.MultiplyTranspose(g);
}

/// Canonical correlations as FitCca and KccaModel::Train derive them.
Vector Correlations(const linalg::TopEigen& top) {
  Vector out;
  for (const double v : top.values) {
    out.push_back(std::min(std::sqrt(std::max(v, 0.0)), 1.0));
  }
  return out;
}

// --- EigenSymmetric -----------------------------------------------------------

class EigenOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenOracleTest, RandomSymmetricMatchesColumnOrderBitForBit) {
  ExpectSameEigen(RandomSymmetric(GetParam(), 1000 + GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenOracleTest,
                         ::testing::Values(0, 1, 2, 3, 17, 64, 256));

TEST(EigenOracleTest, DiagonalMatrixRunsNoQlIteration) {
  const Vector diag = {3.0, -1.0, 7.5, 0.0, 2.0, -4.25, 1e-9, 6.0};
  Matrix a(diag.size(), diag.size());
  for (size_t i = 0; i < diag.size(); ++i) a(i, i) = diag[i];
  ExpectSameEigen(a);
  Vector sorted = diag;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(linalg::EigenSymmetric(a).values, sorted);
}

TEST(EigenOracleTest, ZeroRowTakesTheScaleZeroBranch) {
  Matrix a = RandomSymmetric(17, 77);
  for (const size_t z : {16, 9}) {
    for (size_t j = 0; j < a.rows(); ++j) a(z, j) = a(j, z) = 0.0;
  }
  ExpectSameEigen(a);
}

TEST(EigenOracleTest, RepeatedEigenvalues) {
  // Q D Q^T with a Householder reflector Q and a spectrum of clusters.
  const Vector spectrum = {2, 2, 2, 5, 5, -1, -1, 0, 0, 0, 3, 2};
  const size_t n = spectrum.size();
  Rng rng(5);
  Vector v(n);
  double vv = 0.0;
  for (double& x : v) {
    x = rng.Uniform(-1.0, 1.0);
    vv += x * x;
  }
  Matrix q = Matrix::Identity(n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) q(i, j) -= 2.0 * v[i] * v[j] / vv;
  Matrix qd = q;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) qd(i, j) *= spectrum[j];
  ExpectSameEigen(qd.MultiplyTranspose(q));
}

TEST(EigenOracleTest, BaseModelCcaProblemMatchesBitForBit) {
  // The 256 x 256 S of the seed-42 Experiment-1 base model.
  const Preprocessed p = Preprocess(Exp().train);
  const ml::KccaOptions o;
  const linalg::IncompleteCholeskyResult icx = WholeColumnIcd(
      p.x, ml::GaussianScaleFromNorms(p.x, o.tau_factor_x), o.icd_max_rank,
      ml::kIcdTolerance);
  const linalg::IncompleteCholeskyResult icy = WholeColumnIcd(
      p.y, ml::GaussianScaleFromNorms(p.y, o.tau_factor_y), o.icd_max_rank,
      ml::kIcdTolerance);
  const Matrix s = CcaProblem(icx.g, icy.g, o.kappa);
  ASSERT_EQ(s.rows(), 256u);
  // S is the matrix FitCca decomposes: same correlations, bit for bit.
  const ml::CcaModel cca = ml::FitCca(icx.g, icy.g, o.num_dims, o.kappa);
  EXPECT_TRUE(SameBits(
      Correlations(linalg::TopKEigenSymmetric(s, o.num_dims)),
      cca.correlations));
  ExpectSameEigen(s);
}

TEST(EigenOracleTest, NullSpaceClusterConvergesWhereTheReferenceGaveUp) {
  // The golf-ball model of one of the ledger's seed-42 training splits
  // (the 14th: the Experiment-1 pool, split seed (42 ^ 0x5713A7) + 13).
  // Its exact-solver S has a null space of round-off-sized eigenvalues, on
  // which QL needs 50 sweeps for the first eigenvalue. The reference gave
  // up after 49 and returned a half-reduced tridiagonal as eigenpairs; the
  // library allows more sweeps and returns an accurate decomposition.
  const workload::TrainTestSplit split = workload::SampleSplit(
      Exp().data.pools, bench::kTrainFeathers, bench::kTrainGolf,
      bench::kTrainBowling, 0, 0, 0, (42ull ^ 0x5713A7ull) + 13);
  std::vector<ml::TrainingExample> golf;
  for (const ml::TrainingExample& ex :
       core::MakeExamples(Exp().data.pools, split.train)) {
    if (workload::ClassifyElapsed(ex.metrics.elapsed_seconds) ==
        workload::QueryType::kGolfBall) {
      golf.push_back(ex);
    }
  }
  const Preprocessed p = Preprocess(golf);
  ml::KccaOptions o;
  o.solver = ml::KccaSolver::kExact;
  const Matrix s = ExactKccaProblem(p.x, p.y, o);
  EXPECT_FALSE(reference::EigenSymmetric(s).converged);

  const linalg::SymmetricEigen eig = linalg::EigenSymmetric(s);
  ASSERT_TRUE(eig.converged);
  const size_t n = s.rows();
  // S V = V diag(values) and V^T V = I, to round-off of ||S||.
  Matrix vd = eig.vectors;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) vd(i, j) *= eig.values[j];
  const double scale = std::max(1.0, s.MaxAbs());
  EXPECT_LT(s.Multiply(eig.vectors).Subtract(vd).MaxAbs(), 1e-10 * scale);
  EXPECT_LT(eig.vectors.TransposeMultiply(eig.vectors)
                .Subtract(Matrix::Identity(n))
                .MaxAbs(),
            1e-10);
  // The model trains on it, from the same decomposition.
  const ml::KccaModel model = ml::KccaModel::Train(p.x, p.y, o);
  EXPECT_TRUE(SameBits(model.correlations(),
                       Correlations(linalg::TopKEigenSymmetric(s, o.num_dims))));
}

// --- IncompleteCholesky -------------------------------------------------------

TEST(IcdOracleTest, DuplicateRowsMatchBitForBit) {
  Matrix x = RandomPoints(50, 4, 21);
  for (size_t i = 25; i < 50; ++i)
    for (size_t c = 0; c < 4; ++c) x(i, c) = x(i - 25, c);
  ExpectSameIcd(x, 4.0, 50, 1e-12);
}

TEST(IcdOracleTest, RankBelowMaxRankMatchesBitForBit) {
  // Six distinct points, each repeated six times: rank 6 < max_rank 20.
  const Matrix base = RandomPoints(6, 3, 22);
  Matrix x(36, 3);
  for (size_t i = 0; i < 36; ++i)
    for (size_t c = 0; c < 3; ++c) x(i, c) = base(i % 6, c);
  EXPECT_EQ(WholeColumnIcd(x, 3.0, 20, 1e-12).pivots.size(), 6u);
  ExpectSameIcd(x, 3.0, 20, 1e-12);
}

TEST(IcdOracleTest, StopsOnTolAndMatchesBitForBit) {
  const Matrix x = RandomPoints(80, 5, 23);
  const linalg::IncompleteCholeskyResult icd =
      WholeColumnIcd(x, 20.0, 80, 1e-3);
  EXPECT_LT(icd.pivots.size(), 80u);
  EXPECT_LE(icd.residual, 1e-3);
  ExpectSameIcd(x, 20.0, 80, 1e-3);
}

TEST(IcdOracleTest, BaseModelKernelsMatchBitForBit) {
  // Both kernels of the seed-42 Experiment-1 base model: x stops at
  // max_rank, y on the tolerance.
  const Preprocessed p = Preprocess(Exp().train);
  const ml::KccaOptions o;
  ExpectSameIcd(p.x, ml::GaussianScaleFromNorms(p.x, o.tau_factor_x),
                o.icd_max_rank, ml::kIcdTolerance);
  ExpectSameIcd(p.y, ml::GaussianScaleFromNorms(p.y, o.tau_factor_y),
                o.icd_max_rank, ml::kIcdTolerance);
}

// --- Cholesky -----------------------------------------------------------------

/// B B^T + n I, with the strict upper triangle then perturbed: the
/// factorization reads a's lower triangle only, so both sides must ignore it.
Matrix RandomSpd(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix b(n, n);
  for (double& v : b.data()) v = rng.Gaussian();
  Matrix a = b.MultiplyTranspose(b);
  a.AddToDiagonal(static_cast<double>(n));
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i + 1; j < n; ++j) a(i, j) += rng.Uniform(-1e-3, 1e-3);
  return a;
}

class CholeskyOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskyOracleTest, SpdMatchesRowAtATimeBitForBit) {
  ExpectSameCholesky(RandomSpd(GetParam(), 500 + GetParam()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyOracleTest,
                         ::testing::Values(1, 2, 3, 17, 64, 256));

TEST(CholeskyOracleTest, RankDeficientGramNeedsJitterAndMatches) {
  // A 40 x 40 Gram matrix of rank 5: the unjittered attempt fails.
  const Matrix x = RandomPoints(40, 5, 31);
  const Matrix a = x.MultiplyTranspose(x);
  const reference::Cholesky want = reference::Factor(a, 1e-2);
  ASSERT_TRUE(want.ok);
  EXPECT_GT(want.jitter, 0.0);
  ExpectSameCholesky(a, 1e-2);
}

TEST(CholeskyOracleTest, IndefiniteMatrixFailsOnBothSides) {
  Matrix a = RandomSpd(9, 32);
  a(6, 6) = -50.0;
  EXPECT_FALSE(reference::Factor(a, 1e-6).ok);
  ExpectSameCholesky(a, 1e-6);
}

TEST(CholeskyOracleTest, BaseModelCovarianceMatchesBitForBit) {
  // FitCca's ridged 256 x 256 Cxx of the seed-42 Experiment-1 base model.
  const Preprocessed p = Preprocess(Exp().train);
  const ml::KccaOptions o;
  const linalg::IncompleteCholeskyResult icx = WholeColumnIcd(
      p.x, ml::GaussianScaleFromNorms(p.x, o.tau_factor_x), o.icd_max_rank,
      ml::kIcdTolerance);
  const Matrix gc = Centered(icx.g);
  const Matrix cxx = RidgedCovariance(gc, gc, o.kappa, true);
  ASSERT_EQ(cxx.rows(), 256u);
  ExpectSameCholesky(cxx, 1e-3);
}

/// SolveLowerMatrix against SolveLower one column at a time, bit for bit, on
/// the SIMD and the scalar path.
void ExpectSameSolve(const linalg::Cholesky& chol, const Matrix& b) {
  Matrix want(b.rows(), b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    const Vector col = chol.SolveLower(b.Col(c));
    for (size_t r = 0; r < b.rows(); ++r) want(r, c) = col[r];
  }
  for (const bool force_scalar : {false, true}) {
    const fixtures::ScopedForceScalar scope(force_scalar);
    EXPECT_TRUE(SameBits(chol.SolveLowerMatrix(b), want))
        << b.rows() << " x " << b.cols() << ", scalar " << force_scalar;
  }
}

TEST(CholeskyOracleTest, SolveLowerMatrixMatchesColumnAtATime) {
  // Column counts over every residue mod the lane width, on both sides of
  // the inline/parallel split at n * n * cols = 2^15: at n = 17 every count
  // here runs inline, at n = 64 every count (8 or more) in parallel chunks.
  const size_t lanes = simd::CompiledLanes();
  for (const size_t n : {17u, 64u}) {
    const linalg::Cholesky chol(RandomSpd(n, 600 + n));
    ASSERT_TRUE(chol.ok());
    const size_t first = n == 17 ? 1 : 8;
    for (size_t cols = first; cols <= first + 2 * lanes + 1; ++cols) {
      ExpectSameSolve(chol, RandomPoints(n, cols, 700 + cols));
    }
  }
  // The base model's shape: a 256 x 256 factor against 256 columns.
  const linalg::Cholesky chol(RandomSpd(256, 601));
  ASSERT_TRUE(chol.ok());
  ExpectSameSolve(chol, RandomPoints(256, 256, 702));
}

// --- KccaModel::Train --------------------------------------------------------

TEST(KccaTrainOracleTest, IcdPairSavesTheSameBytesAtEveryPoolSize) {
  // The base model's x and y factorizations run as one two-chunk region:
  // inline at one thread, side by side at two and four.
  const Preprocessed p = Preprocess(Exp().train);
  const ml::KccaOptions o;
  std::vector<std::string> bytes;
  for (const size_t threads : {1u, 2u, 4u}) {
    par::SetGlobalThreads(threads);
    const ml::KccaModel model = ml::KccaModel::Train(p.x, p.y, o);
    ASSERT_EQ(model.solver_used(), ml::KccaSolver::kIcd);
    std::ostringstream os;
    BinaryWriter w(os);
    model.Save(&w);
    bytes.push_back(os.str());
  }
  par::SetGlobalThreads(par::DefaultThreads());
  EXPECT_EQ(bytes[1], bytes[0]) << "2 threads";
  EXPECT_EQ(bytes[2], bytes[0]) << "4 threads";
}

}  // namespace
}  // namespace qpp
