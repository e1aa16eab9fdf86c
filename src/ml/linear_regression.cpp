#include "ml/linear_regression.h"

#include "common/check.h"
#include "linalg/cholesky.h"

namespace qpp::ml {

void LinearRegression::Fit(const linalg::Matrix& x, const linalg::Vector& y,
                           double ridge) {
  QPP_CHECK(x.rows() == y.size() && x.rows() > 0);
  const size_t n = x.rows();
  const size_t p = x.cols();

  // Center targets and features so the intercept falls out.
  linalg::Vector x_mean(p, 0.0);
  for (size_t j = 0; j < p; ++j) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += x(i, j);
    x_mean[j] = s / static_cast<double>(n);
  }
  double y_mean = 0.0;
  for (double v : y) y_mean += v;
  y_mean /= static_cast<double>(n);

  linalg::Matrix xc(n, p);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < p; ++j) xc(i, j) = x(i, j) - x_mean[j];

  linalg::Matrix xtx = xc.TransposeMultiply(xc);
  xtx.AddToDiagonal(ridge);
  linalg::Vector xty(p, 0.0);
  for (size_t j = 0; j < p; ++j) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += xc(i, j) * (y[i] - y_mean);
    xty[j] = s;
  }
  linalg::Cholesky chol(xtx, /*max_jitter=*/1e-4);
  QPP_CHECK_MSG(chol.ok(), "normal equations not solvable");
  beta_ = chol.Solve(xty);
  intercept_ = y_mean;
  for (size_t j = 0; j < p; ++j) intercept_ -= beta_[j] * x_mean[j];
  fitted_ = true;
}

double LinearRegression::Predict(const linalg::Vector& x) const {
  QPP_CHECK(fitted_ && x.size() == beta_.size());
  return intercept_ + linalg::Dot(beta_, x);
}

void LinearRegression::Save(BinaryWriter* w) const {
  w->WriteU32(fitted_ ? 1 : 0);
  w->WriteDouble(intercept_);
  w->WriteDoubles(beta_);
}

LinearRegression LinearRegression::Load(BinaryReader* r) {
  LinearRegression m;
  m.fitted_ = r->ReadU32() != 0;
  m.intercept_ = r->ReadDouble();
  m.beta_ = r->ReadDoubles();
  return m;
}

void MultiOutputRegression::Fit(const linalg::Matrix& x,
                                const linalg::Matrix& y, double ridge) {
  QPP_CHECK(x.rows() == y.rows());
  models_.assign(y.cols(), LinearRegression());
  for (size_t m = 0; m < y.cols(); ++m) {
    models_[m].Fit(x, y.Col(m), ridge);
  }
}

linalg::Vector MultiOutputRegression::Predict(const linalg::Vector& x) const {
  linalg::Vector out(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) out[m] = models_[m].Predict(x);
  return out;
}

}  // namespace qpp::ml
