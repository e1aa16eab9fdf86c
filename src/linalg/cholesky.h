// Cholesky factorization and triangular solves for symmetric positive
// definite systems. Used by linear regression (normal equations), CCA
// whitening, and the KCCA generalized-eigenproblem reduction.
#pragma once

#include "linalg/matrix.h"

namespace qpp::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive definite matrix.
class Cholesky {
 public:
  /// Factorizes `a` (must be square and symmetric). If the matrix is not
  /// numerically positive definite, a diagonal jitter is escalated (up to
  /// `max_jitter` relative to the mean diagonal) before giving up.
  /// `ok()` reports success.
  explicit Cholesky(const Matrix& a, double max_jitter = 1e-6);

  bool ok() const { return ok_; }
  /// Jitter actually applied to the diagonal (0 when the input was SPD).
  double jitter() const { return jitter_; }

  /// The lower-triangular factor L with A + jitter*I = L L^T.
  const Matrix& L() const { return l_; }

  /// Solves A x = b. Requires ok().
  Vector Solve(const Vector& b) const;

  /// Solves L y = b (forward substitution).
  Vector SolveLower(const Vector& b) const;

  /// Solves L^T x = b (backward substitution).
  Vector SolveLowerTranspose(const Vector& b) const;

  /// Computes L^{-1} B, i.e. forward-substitution applied to each column:
  /// the blocked linalg::ForwardSubstBlocked over column ranges, each
  /// column bit-identical to SolveLower of that column.
  Matrix SolveLowerMatrix(const Matrix& b) const;

 private:
  bool Factorize(const Matrix& a, double jitter);

  Matrix l_;
  bool ok_ = false;
  double jitter_ = 0.0;
};

}  // namespace qpp::linalg
