// Classical (linear) Canonical Correlation Analysis (paper Section V-D).
//
// Finds direction pairs (wx, wy) maximizing corr(X wx, Y wy). Directly
// usable on its own (and benchmarked as such), and the workhorse inside the
// incomplete-Cholesky KCCA path, where it runs on the low-rank kernel
// feature maps.
#pragma once

#include "linalg/matrix.h"

namespace qpp::ml {

struct CcaModel {
  linalg::Vector mean_x;         ///< column means of X
  linalg::Vector mean_y;
  linalg::Matrix wx;             ///< p x d canonical directions for X
  linalg::Matrix wy;             ///< q x d canonical directions for Y
  linalg::Vector correlations;   ///< d canonical correlations, descending

  /// Projects a (raw, uncentered) X-row into the canonical space.
  linalg::Vector ProjectX(const linalg::Vector& x) const;

  /// Projects all rows (n x d).
  linalg::Matrix ProjectXAll(const linalg::Matrix& x) const;
  linalg::Matrix ProjectYAll(const linalg::Matrix& y) const;
};

/// Fits CCA between the rows of x (n x p) and y (n x q), keeping
/// `num_dims` direction pairs. `reg` is a relative ridge added to both
/// covariance matrices (scaled by their mean diagonal) — required when
/// p or q approaches n, and always healthy for kernel feature maps.
CcaModel FitCca(const linalg::Matrix& x, const linalg::Matrix& y,
                size_t num_dims, double reg = 1e-3);

}  // namespace qpp::ml
