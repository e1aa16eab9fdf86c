#include "ml/lasso.h"

#include <cmath>

#include "common/check.h"

namespace qpp::ml {

namespace {
double SoftThreshold(double z, double g) {
  if (z > g) return z - g;
  if (z < -g) return z + g;
  return 0.0;
}
}  // namespace

void Lasso::Fit(const linalg::Matrix& x, const linalg::Vector& y,
                double lambda, size_t max_iters, double tol) {
  QPP_CHECK(x.rows() == y.size() && x.rows() > 0);
  QPP_CHECK(lambda >= 0.0);
  const size_t n = x.rows();
  const size_t p = x.cols();

  // Standardize internally; coefficients are mapped back at the end.
  linalg::Vector mean(p, 0.0), scale(p, 1.0);
  for (size_t j = 0; j < p; ++j) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += x(i, j);
    mean[j] = s / static_cast<double>(n);
    double ss = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = x(i, j) - mean[j];
      ss += d * d;
    }
    scale[j] = std::sqrt(ss / static_cast<double>(n));
    if (scale[j] < 1e-12) scale[j] = 1.0;
  }
  double y_mean = 0.0;
  for (double v : y) y_mean += v;
  y_mean /= static_cast<double>(n);

  linalg::Matrix xs(n, p);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < p; ++j) xs(i, j) = (x(i, j) - mean[j]) / scale[j];

  linalg::Vector beta(p, 0.0);
  linalg::Vector residual(n);
  for (size_t i = 0; i < n; ++i) residual[i] = y[i] - y_mean;

  // Column squared norms (constant across sweeps).
  linalg::Vector col_sq(p, 0.0);
  for (size_t j = 0; j < p; ++j) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += xs(i, j) * xs(i, j);
    col_sq[j] = s > 1e-12 ? s : 1e-12;
  }

  const double gamma = lambda * static_cast<double>(n);
  for (size_t iter = 0; iter < max_iters; ++iter) {
    double max_delta = 0.0;
    for (size_t j = 0; j < p; ++j) {
      // rho = x_j . (residual + x_j beta_j)
      double rho = 0.0;
      for (size_t i = 0; i < n; ++i) rho += xs(i, j) * residual[i];
      rho += col_sq[j] * beta[j];
      const double new_beta = SoftThreshold(rho, gamma) / col_sq[j];
      const double delta = new_beta - beta[j];
      if (delta != 0.0) {
        for (size_t i = 0; i < n; ++i) residual[i] -= delta * xs(i, j);
        beta[j] = new_beta;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < tol) break;
  }

  // Map back to the raw feature scale.
  beta_.assign(p, 0.0);
  for (size_t j = 0; j < p; ++j) beta_[j] = beta[j] / scale[j];
  fitted_ = true;
}

std::vector<size_t> Lasso::DiscardedFeatures() const {
  QPP_CHECK(fitted_);
  std::vector<size_t> out;
  for (size_t j = 0; j < beta_.size(); ++j) {
    if (beta_[j] == 0.0) out.push_back(j);
  }
  return out;
}

}  // namespace qpp::ml
