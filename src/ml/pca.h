// Principal Component Analysis (paper Section V-C).
//
// Evaluated and rejected: PCA finds directions of maximal variance within
// ONE dataset, so it cannot expose correlations BETWEEN the query features
// and the performance features — the motivation for moving to (K)CCA.
#pragma once

#include "linalg/matrix.h"

namespace qpp::ml {

class Pca {
 public:
  /// Fits on the rows of x, keeping `num_components` directions.
  void Fit(const linalg::Matrix& x, size_t num_components);

  /// p x k matrix of principal directions (columns, unit length).
  const linalg::Matrix& components() const { return components_; }
  /// Variance captured by each kept component, descending.
  const linalg::Vector& explained_variance() const { return variance_; }
  /// Fraction of total variance captured by the kept components.
  double ExplainedVarianceRatio() const;

 private:
  linalg::Matrix components_;
  linalg::Vector variance_;
  double total_variance_ = 0.0;
  bool fitted_ = false;
};

}  // namespace qpp::ml
