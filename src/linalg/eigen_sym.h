// Dense symmetric eigendecomposition.
//
// Householder tridiagonalization followed by the implicit-shift QL iteration
// (the classic tred2/tqli pair). O(n^3), adequate for the sizes this library
// meets: covariance matrices (dims ~ 30), reduced KCCA problems (m ~ 200),
// and exact-path kernel problems up to N ~ 1500.
#pragma once

#include "linalg/matrix.h"

namespace qpp::linalg {

/// Result of a symmetric eigendecomposition: A = V diag(values) V^T with
/// eigenvalues sorted ascending and eigenvectors in the matching columns
/// of `vectors`.
struct SymmetricEigen {
  Vector values;    ///< ascending eigenvalues
  Matrix vectors;   ///< column i is the eigenvector for values[i]
  bool converged = false;
};

/// Computes the full eigendecomposition of symmetric matrix `a`.
/// The strictly-lower triangle is trusted; the upper triangle is ignored
/// after symmetrization (a is averaged with its transpose first to absorb
/// round-off asymmetry).
SymmetricEigen EigenSymmetric(const Matrix& a);

/// Convenience: the top-k eigenpairs (largest eigenvalues first) as
/// (values, n-by-k matrix of column eigenvectors). `converged` is false
/// when the QL iteration gave up (e.g. on NaN input); the pairs are then
/// meaningless.
struct TopEigen {
  Vector values;
  Matrix vectors;
  bool converged = false;
};
TopEigen TopKEigenSymmetric(const Matrix& a, size_t k);

}  // namespace qpp::linalg
