#include "ml/pca.h"

#include "common/check.h"
#include "linalg/eigen_sym.h"

namespace qpp::ml {

void Pca::Fit(const linalg::Matrix& x, size_t num_components) {
  const size_t n = x.rows();
  const size_t p = x.cols();
  QPP_CHECK(n >= 2 && num_components >= 1);
  const size_t k = std::min(num_components, p);

  linalg::Vector mean(p, 0.0);
  for (size_t j = 0; j < p; ++j) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += x(i, j);
    mean[j] = s / static_cast<double>(n);
  }
  linalg::Matrix xc(n, p);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < p; ++j) xc(i, j) = x(i, j) - mean[j];

  linalg::Matrix cov = xc.TransposeMultiply(xc).Scale(
      1.0 / static_cast<double>(n - 1));
  total_variance_ = 0.0;
  for (size_t j = 0; j < p; ++j) total_variance_ += cov(j, j);

  const linalg::TopEigen top = linalg::TopKEigenSymmetric(cov, k);
  QPP_CHECK_MSG(top.converged, "PCA eigensolver did not converge");
  components_ = top.vectors;  // p x k, descending eigenvalues
  variance_ = top.values;
  for (double& v : variance_) v = std::max(v, 0.0);
  fitted_ = true;
}

double Pca::ExplainedVarianceRatio() const {
  QPP_CHECK(fitted_);
  if (total_variance_ <= 0.0) return 0.0;
  double kept = 0.0;
  for (double v : variance_) kept += v;
  return kept / total_variance_;
}

}  // namespace qpp::ml
