// Unit + property tests for linalg/: matrix ops, Cholesky, symmetric
// eigendecomposition, pivoted incomplete Cholesky.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/incomplete_cholesky.h"
#include "linalg/matrix.h"
#include "linalg/serde.h"
#include "linalg_reference.h"

namespace qpp::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  return m;
}

Matrix RandomSpd(size_t n, uint64_t seed) {
  // A A^T + n I is comfortably SPD.
  const Matrix a = RandomMatrix(n, n, seed);
  Matrix s = a.MultiplyTranspose(a);
  s.AddToDiagonal(static_cast<double>(n));
  return s;
}

TEST(MatrixTest, BasicAccessors) {
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.Row(1)[2], 5.0);
  EXPECT_EQ(m.Col(0)[0], 1.0);
}

TEST(MatrixTest, MultiplyMatchesManual) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = a.Multiply(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeMultiplyConsistent) {
  const Matrix a = RandomMatrix(7, 4, 1);
  const Matrix b = RandomMatrix(7, 5, 2);
  const Matrix direct = a.Transpose().Multiply(b);
  const Matrix fused = a.TransposeMultiply(b);
  EXPECT_LT(direct.Subtract(fused).MaxAbs(), 1e-12);
}

TEST(MatrixTest, MultiplyTransposeConsistent) {
  const Matrix a = RandomMatrix(4, 6, 3);
  const Matrix b = RandomMatrix(5, 6, 4);
  const Matrix direct = a.Multiply(b.Transpose());
  const Matrix fused = a.MultiplyTranspose(b);
  EXPECT_LT(direct.Subtract(fused).MaxAbs(), 1e-12);
}

TEST(MatrixTest, IdentityMultiplication) {
  const Matrix a = RandomMatrix(5, 5, 5);
  const Matrix i = Matrix::Identity(5);
  EXPECT_LT(a.Multiply(i).Subtract(a).MaxAbs(), 1e-15);
}

TEST(MatrixTest, MultiplyVec) {
  const Matrix a = Matrix::FromRows({{1, 0, 2}, {0, 3, 0}});
  const Vector v = {1, 2, 3};
  const Vector out = a.MultiplyVec(v);
  EXPECT_EQ(out[0], 7.0);
  EXPECT_EQ(out[1], 6.0);
}

TEST(VectorOpsTest, DistancesAndNorms) {
  const Vector a = {3, 4};
  const Vector b = {0, 0};
  EXPECT_EQ(Norm(a), 5.0);
  EXPECT_EQ(SquaredDistance(a, b), 25.0);
}

class CholeskyParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskyParamTest, ReconstructsAndSolves) {
  const size_t n = GetParam();
  const Matrix a = RandomSpd(n, 100 + n);
  const Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  // L L^T == A.
  const Matrix rec = chol.L().MultiplyTranspose(chol.L());
  EXPECT_LT(rec.Subtract(a).MaxAbs() / a.MaxAbs(), 1e-10);
  // Solve check: A x = b.
  Rng rng(n);
  Vector b(n);
  for (double& v : b) v = rng.Gaussian();
  const Vector x = chol.Solve(b);
  const Vector ax = a.MultiplyVec(x);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyParamTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(CholeskyTest, IndefiniteMatrixFails) {
  Matrix a = Matrix::Identity(3);
  a(2, 2) = -5.0;
  const Cholesky chol(a, /*max_jitter=*/1e-9);
  EXPECT_FALSE(chol.ok());
}

TEST(CholeskyTest, NearSingularGetsJitter) {
  // Rank-1 matrix: requires jitter to factor.
  Matrix a(3, 3);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j) a(i, j) = 1.0;
  const Cholesky chol(a, /*max_jitter=*/1e-3);
  EXPECT_TRUE(chol.ok());
  EXPECT_GT(chol.jitter(), 0.0);
}

class EigenParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenParamTest, ReconstructsRandomSymmetric) {
  const size_t n = GetParam();
  Matrix a = RandomMatrix(n, n, 200 + n);
  // Symmetrize.
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) a(i, j) = a(j, i) = 0.5 * (a(i, j) + a(j, i));
  const SymmetricEigen eig = EigenSymmetric(a);
  ASSERT_TRUE(eig.converged);
  ASSERT_EQ(eig.values.size(), n);
  // Ascending eigenvalues.
  for (size_t i = 1; i < n; ++i) EXPECT_LE(eig.values[i - 1], eig.values[i]);
  // V diag V^T == A.
  Matrix vd(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) vd(i, j) = eig.vectors(i, j) * eig.values[j];
  const Matrix rec = vd.MultiplyTranspose(eig.vectors);
  EXPECT_LT(rec.Subtract(a).MaxAbs(), 1e-8 * std::max(1.0, a.MaxAbs()));
  // Orthonormal columns.
  const Matrix vtv = eig.vectors.TransposeMultiply(eig.vectors);
  EXPECT_LT(vtv.Subtract(Matrix::Identity(n)).MaxAbs(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenParamTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 40, 80));

TEST(EigenTest, KnownEigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  const SymmetricEigen eig = EigenSymmetric(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
}

TEST(EigenTest, TopKOrdering) {
  const Matrix a = RandomSpd(12, 7);
  const TopEigen top = TopKEigenSymmetric(a, 3);
  ASSERT_EQ(top.values.size(), 3u);
  EXPECT_GE(top.values[0], top.values[1]);
  EXPECT_GE(top.values[1], top.values[2]);
  EXPECT_EQ(top.vectors.rows(), 12u);
  EXPECT_EQ(top.vectors.cols(), 3u);
}

TEST(EigenTest, TopKReportsNonConvergenceOnNaN) {
  Matrix a = RandomSpd(4, 13);
  a(1, 2) = a(2, 1) = std::nan("");
  EXPECT_FALSE(EigenSymmetric(a).converged);
  EXPECT_FALSE(TopKEigenSymmetric(a, 2).converged);
  EXPECT_TRUE(TopKEigenSymmetric(RandomSpd(4, 13), 2).converged);
}

TEST(EigenTest, DegenerateRepeatedEigenvalues) {
  const Matrix a = Matrix::Identity(6).Scale(4.0);
  const SymmetricEigen eig = EigenSymmetric(a);
  ASSERT_TRUE(eig.converged);
  for (double v : eig.values) EXPECT_NEAR(v, 4.0, 1e-12);
}

/// IncompleteCholesky over a per-entry kernel: the diagonal and each pivot
/// column are filled from `kernel(i, j)`.
IncompleteCholeskyResult Icd(
    size_t n, const std::function<double(size_t, size_t)>& kernel,
    size_t max_rank, double tol) {
  Vector diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = kernel(i, i);
  Vector cols(n * std::min(max_rank, n));
  IncompleteCholeskyResult icd;
  IncompleteCholesky(
      diag,
      [&](size_t p, double* out) {
        for (size_t i = 0; i < n; ++i) out[i] = kernel(i, p);
      },
      max_rank, tol, cols.data(), &icd);
  return icd;
}

class IcdParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IcdParamTest, ApproximatesGaussianKernel) {
  const size_t n = GetParam();
  const Matrix x = RandomMatrix(n, 5, 300 + n);
  const auto kernel = [&](size_t i, size_t j) {
    return std::exp(-SquaredDistance(x.Row(i), x.Row(j)) / 5.0);
  };
  const IncompleteCholeskyResult icd =
      Icd(n, kernel, /*max_rank=*/n, /*tol=*/1e-10);
  const Matrix approx = icd.g.MultiplyTranspose(icd.g);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(approx(i, j), kernel(i, j), 1e-4)
          << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IcdParamTest,
                         ::testing::Values(3, 10, 30, 70));

TEST(IcdTest, TruncatedRankBoundsResidual) {
  const size_t n = 60;
  const Matrix x = RandomMatrix(n, 4, 9);
  const auto kernel = [&](size_t i, size_t j) {
    return std::exp(-SquaredDistance(x.Row(i), x.Row(j)) / 2.0);
  };
  const IncompleteCholeskyResult icd =
      Icd(n, kernel, /*max_rank=*/10, /*tol=*/0.0);
  EXPECT_EQ(icd.pivots.size(), 10u);
  EXPECT_GE(icd.residual, 0.0);
  // Diagonal of the residual should match the reported bound.
  const Matrix approx = icd.g.MultiplyTranspose(icd.g);
  double max_diag_err = 0.0;
  for (size_t i = 0; i < n; ++i) {
    max_diag_err = std::max(max_diag_err, kernel(i, i) - approx(i, i));
  }
  EXPECT_NEAR(max_diag_err, icd.residual, 1e-9);
}

TEST(IcdTest, PivotFactorIsExactCholeskyOfPivotBlock) {
  const size_t n = 40;
  const Matrix x = RandomMatrix(n, 3, 11);
  const auto kernel = [&](size_t i, size_t j) {
    return std::exp(-SquaredDistance(x.Row(i), x.Row(j)) / 3.0);
  };
  const IncompleteCholeskyResult icd =
      Icd(n, kernel, /*max_rank=*/12, /*tol=*/1e-12);
  const Matrix l = PivotFactor(icd);
  const Matrix kpp_rec = l.MultiplyTranspose(l);
  for (size_t r = 0; r < icd.pivots.size(); ++r) {
    for (size_t c = 0; c < icd.pivots.size(); ++c) {
      EXPECT_NEAR(kpp_rec(r, c), kernel(icd.pivots[r], icd.pivots[c]), 1e-9);
    }
  }
  // Lower triangular.
  for (size_t r = 0; r < l.rows(); ++r) {
    for (size_t c = r + 1; c < l.cols(); ++c) EXPECT_EQ(l(r, c), 0.0);
  }
}

TEST(MatrixSerdeTest, RoundTrip) {
  const Matrix m = RandomMatrix(6, 4, 77);
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    WriteMatrix(&w, m);
  }
  BinaryReader r(ss);
  const Matrix back = ReadMatrix(&r);
  EXPECT_EQ(back.rows(), 6u);
  EXPECT_EQ(back.cols(), 4u);
  EXPECT_LT(back.Subtract(m).MaxAbs(), 0.0 + 1e-15);
}

// --- Multiply family: shape edge cases and blocked-vs-reference pinning ---

TEST(MatrixMultiplyTest, EmptyOperands) {
  const Matrix a(0, 5);
  const Matrix b(5, 3);
  const Matrix ab = a.Multiply(b);
  EXPECT_EQ(ab.rows(), 0u);
  EXPECT_EQ(ab.cols(), 3u);

  const Matrix c(4, 0);
  const Matrix d(0, 6);
  const Matrix cd = c.Multiply(d);  // inner dimension 0: all zeros
  EXPECT_EQ(cd.rows(), 4u);
  EXPECT_EQ(cd.cols(), 6u);
  for (const double v : cd.data()) EXPECT_EQ(v, 0.0);

  const Matrix e(3, 4);
  const Matrix f(4, 0);
  const Matrix ef = e.Multiply(f);
  EXPECT_EQ(ef.rows(), 3u);
  EXPECT_EQ(ef.cols(), 0u);

  EXPECT_EQ(a.TransposeMultiply(Matrix(0, 2)).rows(), 5u);
  EXPECT_EQ(c.MultiplyTranspose(Matrix(7, 0)).cols(), 7u);
}

TEST(MatrixMultiplyTest, OneByOne) {
  Matrix a(1, 1);
  Matrix b(1, 1);
  a(0, 0) = 3.5;
  b(0, 0) = -2.0;
  EXPECT_EQ(a.Multiply(b)(0, 0), -7.0);
  EXPECT_EQ(a.TransposeMultiply(b)(0, 0), -7.0);
  EXPECT_EQ(a.MultiplyTranspose(b)(0, 0), -7.0);
}

TEST(MatrixMultiplyTest, NonSquareChainHasExpectedShapeAndValues) {
  // (2x3)(3x4)(4x1): associativity of shapes, values checked by hand on a
  // small deterministic fill.
  Matrix a(2, 3), b(3, 4), c(4, 1);
  for (size_t i = 0; i < a.data().size(); ++i) a.data()[i] = double(i + 1);
  for (size_t i = 0; i < b.data().size(); ++i) b.data()[i] = double(i % 3);
  for (size_t i = 0; i < c.data().size(); ++i) c.data()[i] = 1.0;
  const Matrix abc = a.Multiply(b).Multiply(c);
  EXPECT_EQ(abc.rows(), 2u);
  EXPECT_EQ(abc.cols(), 1u);
  // Each row of b sums each row's columns times c=1: row sums of b are
  // 0+1+2+0=3, 1+2+0+1=4, 2+0+1+2=5, so abc = a * (3,4,5)^T.
  EXPECT_EQ(abc(0, 0), 1 * 3 + 2 * 4 + 3 * 5);
  EXPECT_EQ(abc(1, 0), 4 * 3 + 5 * 4 + 6 * 5);
}

TEST(MatrixMultiplyTest, BlockedMatchesReferenceBitwise) {
  // Sizes straddle the parallel/tiling thresholds: some dispatch inline,
  // some through the pool; all must be bit-identical to the plain
  // single-threaded reference kernels.
  const size_t shapes[][3] = {
      {1, 1, 1}, {2, 3, 2}, {17, 9, 23}, {70, 50, 60}, {130, 64, 33}};
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s[0], s[1], 1000 + s[0]);
    const Matrix b = RandomMatrix(s[1], s[2], 2000 + s[2]);
    EXPECT_EQ(a.Multiply(b).data(), reference::Multiply(a, b).data())
        << s[0] << "x" << s[1] << "x" << s[2];

    const Matrix at = RandomMatrix(s[1], s[0], 3000 + s[1]);
    EXPECT_EQ(at.TransposeMultiply(b).data(),
              reference::TransposeMultiply(at, b).data())
        << s[0] << "x" << s[1] << "x" << s[2];

    const Matrix bt = RandomMatrix(s[2], s[1], 4000 + s[1]);
    EXPECT_EQ(a.MultiplyTranspose(bt).data(),
              reference::MultiplyTranspose(a, bt).data())
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(MatrixMultiplyTest, SparseZeroSkipMatchesReference) {
  // The kernels skip exact-zero multiplicands; a mostly-zero operand must
  // still match the reference bit for bit.
  Matrix a = RandomMatrix(64, 48, 99);
  Rng rng(100);
  for (double& v : a.data()) {
    if (rng.Bernoulli(0.85)) v = 0.0;
  }
  const Matrix b = RandomMatrix(48, 40, 101);
  EXPECT_EQ(a.Multiply(b).data(), reference::Multiply(a, b).data());
}

}  // namespace
}  // namespace qpp::linalg
