#include "ml/cca.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"

namespace qpp::ml {

namespace {

// Sums row by row; each mean[j] accumulates from 0.0 in ascending i.
linalg::Vector ColumnMeans(const linalg::Matrix& m) {
  const size_t cols = m.cols();
  linalg::Vector mean(cols, 0.0);
  for (size_t i = 0; i < m.rows(); ++i) {
    const double* row = &m.data()[i * cols];
    for (size_t j = 0; j < cols; ++j) mean[j] += row[j];
  }
  for (double& v : mean) v /= static_cast<double>(m.rows());
  return mean;
}

// out(i, .) = sum_j (x(i, j) - mean[j]) w(j, .): each element sums from 0.0
// over ascending j, one row of w at a time.
linalg::Matrix ProjectRows(const linalg::Matrix& x, const linalg::Vector& mean,
                           const linalg::Matrix& w) {
  QPP_CHECK(x.cols() == mean.size() && w.rows() == mean.size());
  const size_t p = x.cols();
  const size_t d = w.cols();
  linalg::Matrix out(x.rows(), d);
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* xrow = &x.data()[i * p];
    double* orow = &out.data()[i * d];
    for (size_t j = 0; j < p; ++j) {
      const double xj = xrow[j] - mean[j];
      const double* wrow = &w.data()[j * d];
      for (size_t c = 0; c < d; ++c) orow[c] += xj * wrow[c];
    }
  }
  return out;
}

linalg::Matrix CenterColumns(const linalg::Matrix& m,
                             const linalg::Vector& mean) {
  linalg::Matrix out(m.rows(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i)
    for (size_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j) - mean[j];
  return out;
}

void AddRelativeRidge(linalg::Matrix* c, double reg) {
  double mean_diag = 0.0;
  for (size_t i = 0; i < c->rows(); ++i) mean_diag += (*c)(i, i);
  mean_diag /= std::max<double>(static_cast<double>(c->rows()), 1.0);
  if (mean_diag <= 0.0) mean_diag = 1.0;
  c->AddToDiagonal(reg * mean_diag + 1e-12);
}

}  // namespace

CcaModel FitCca(const linalg::Matrix& x, const linalg::Matrix& y,
                size_t num_dims, double reg) {
  QPP_CHECK(x.rows() == y.rows() && x.rows() >= 2);
  const size_t n = x.rows();
  const size_t p = x.cols();
  const size_t q = y.cols();
  const size_t d = std::min({num_dims, p, q});
  QPP_CHECK(d >= 1);

  CcaModel model;
  model.mean_x = ColumnMeans(x);
  model.mean_y = ColumnMeans(y);
  const linalg::Matrix xc = CenterColumns(x, model.mean_x);
  const linalg::Matrix yc = CenterColumns(y, model.mean_y);

  const double inv_n = 1.0 / static_cast<double>(n - 1);
  linalg::Matrix cxx = xc.TransposeMultiply(xc).Scale(inv_n);
  linalg::Matrix cyy = yc.TransposeMultiply(yc).Scale(inv_n);
  const linalg::Matrix cxy = xc.TransposeMultiply(yc).Scale(inv_n);
  AddRelativeRidge(&cxx, reg);
  AddRelativeRidge(&cyy, reg);

  const linalg::Cholesky lx(cxx, 1e-3);
  const linalg::Cholesky ly(cyy, 1e-3);
  QPP_CHECK_MSG(lx.ok() && ly.ok(), "CCA covariance not positive definite");

  // M = Lx^{-1} Cxy Ly^{-T}  (p x q);  S = M M^T  (p x p, symmetric PSD).
  const linalg::Matrix u1 = lx.SolveLowerMatrix(cxy);              // p x q
  const linalg::Matrix m = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  const linalg::Matrix s = m.MultiplyTranspose(m);

  const linalg::TopEigen top = linalg::TopKEigenSymmetric(s, d);
  QPP_CHECK_MSG(top.converged, "CCA eigensolver did not converge");

  model.wx = linalg::Matrix(p, d);
  model.wy = linalg::Matrix(q, d);
  model.correlations.assign(d, 0.0);
  for (size_t c = 0; c < d; ++c) {
    const double sigma = std::sqrt(std::max(top.values[c], 0.0));
    model.correlations[c] = std::min(sigma, 1.0);
    // wx = Lx^{-T} u.
    const linalg::Vector u = top.vectors.Col(c);
    const linalg::Vector wx_col = lx.SolveLowerTranspose(u);
    for (size_t j = 0; j < p; ++j) model.wx(j, c) = wx_col[j];
    // v = M^T u / sigma, accumulated row by row over M (each v[j] sums
    // in ascending i); wy = Ly^{-T} v.
    linalg::Vector v(q, 0.0);
    for (size_t i = 0; i < p; ++i) {
      const double ui = u[i];
      const double* mrow = &m.data()[i * q];
      for (size_t j = 0; j < q; ++j) v[j] += mrow[j] * ui;
    }
    if (sigma > 1e-12) {
      for (double& vj : v) vj /= sigma;
    }
    const linalg::Vector wy_col = ly.SolveLowerTranspose(v);
    for (size_t j = 0; j < q; ++j) model.wy(j, c) = wy_col[j];
  }
  return model;
}

linalg::Vector CcaModel::ProjectX(const linalg::Vector& x) const {
  return ProjectXAll(linalg::Matrix::FromRows({x})).Row(0);
}

linalg::Matrix CcaModel::ProjectXAll(const linalg::Matrix& x) const {
  return ProjectRows(x, mean_x, wx);
}

linalg::Matrix CcaModel::ProjectYAll(const linalg::Matrix& y) const {
  return ProjectRows(y, mean_y, wy);
}

}  // namespace qpp::ml
