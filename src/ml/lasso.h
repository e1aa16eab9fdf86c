// L1-penalized least squares via cyclic coordinate descent.
//
// Used to reproduce the paper's Section V-A observation that regression
// "did not use all of the covariates" — e.g. assigning a zero coefficient
// to hashgroupby cardinalities when predicting elapsed time — and that the
// discarded features differ per target metric, defeating a unified model.
#pragma once

#include "linalg/matrix.h"

namespace qpp::ml {

class Lasso {
 public:
  /// Fits with L1 penalty `lambda` (on standardized features internally);
  /// `max_iters` full coordinate sweeps, stopping early at `tol` coefficient
  /// movement.
  void Fit(const linalg::Matrix& x, const linalg::Vector& y, double lambda,
           size_t max_iters = 200, double tol = 1e-7);

  const linalg::Vector& coefficients() const { return beta_; }
  /// Indices of features whose coefficient was driven to exactly zero.
  std::vector<size_t> DiscardedFeatures() const;

 private:
  linalg::Vector beta_;
  bool fitted_ = false;
};

}  // namespace qpp::ml
