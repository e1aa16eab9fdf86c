// Kernel Canonical Correlation Analysis — the paper's core technique
// (Sections V-E and VI).
//
// Training correlates a Gaussian-kernel view of the query feature matrix
// with a Gaussian-kernel view of the performance feature matrix, producing
// a query projection K_x A and a performance projection K_y B that are
// maximally correlated (and, through the kernel, cluster similar queries —
// the paper's Fig. 6). Prediction projects a new query's kernel vector onto
// the query projection; the caller (core::Predictor) then finds k nearest
// training neighbors there and averages their raw performance vectors,
// side-stepping the kernel pre-image problem exactly as the paper does.
//
// Two solver paths:
//  * kExact   — dense N x N kernel matrices, the regularized generalized
//               eigenproblem reduced via Cholesky to one symmetric
//               eigenproblem. Cubic in N; used for small N and as the
//               reference implementation in tests.
//  * kIcd     — pivoted incomplete Cholesky kernel approximations of rank
//               m << N followed by a regularized linear CCA in the induced
//               feature space (Bach & Jordan, the paper's reference [22]).
//               This is the production path for N ~ 1000+.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "linalg/matrix.h"
#include "ml/cca.h"
#include "ml/kernel.h"

namespace qpp::par {
class Workspace;
}  // namespace qpp::par

namespace qpp::ml {

enum class KccaSolver { kAuto, kExact, kIcd };

/// Wall-clock seconds accumulated per stage of the ICD batch projection
/// (ProjectXBatchInto): pivot-kernel block, triangular solve, CCA-direction
/// projection. Purely observational — timing never affects results, and an
/// untimed call reads no clock.
struct KccaProjectTimes {
  double kernel_s = 0.0;
  double solve_s = 0.0;
  double project_s = 0.0;
};

struct KccaOptions {
  size_t num_dims = 16;       ///< projection dimensions kept
  double kappa = 0.05;        ///< regularization strength (relative)
  /// Kernel scale factors: fraction of the norm variance (paper Section
  /// VI-A). The paper uses 0.1 / 0.2 on raw feature vectors; our features
  /// are log1p-standardized first, which shrinks the norm variance, so the
  /// equivalent fractions are larger (tuned by the ablation bench).
  double tau_factor_x = 0.8;
  double tau_factor_y = 1.6;
  KccaSolver solver = KccaSolver::kAuto;
  /// kAuto uses kExact at or below this many training points.
  size_t exact_threshold = 320;
  size_t icd_max_rank = 256;
};

/// ICD stops early once the largest remaining kernel-diagonal residual
/// falls below this (linalg::IncompleteCholesky's `tol`).
inline constexpr double kIcdTolerance = 1e-4;

class KccaModel {
 public:
  /// Trains on preprocessed feature matrices (rows aligned across x and y).
  static KccaModel Train(const linalg::Matrix& x, const linalg::Matrix& y,
                         const KccaOptions& options);

  /// N x d training query projection (K_x A).
  const linalg::Matrix& x_projection() const { return px_; }
  /// N x d training performance projection (K_y B).
  const linalg::Matrix& y_projection() const { return py_; }
  /// Canonical correlations per kept dimension, descending.
  const linalg::Vector& correlations() const { return correlations_; }
  /// Which solver actually ran.
  KccaSolver solver_used() const { return solver_used_; }
  /// Width p of the feature rows the model projects: the training rows'
  /// for the exact solver, the pivot rows' for ICD.
  size_t input_dims() const {
    return solver_used_ == KccaSolver::kExact ? train_x_.cols()
                                              : pivot_x_.cols();
  }

  /// Projects a new (preprocessed) query feature vector into the query
  /// projection space: a one-row ProjectXBatchInto with call-local
  /// scratch.
  linalg::Vector ProjectX(const linalg::Vector& x) const;

  /// The batch projection, and the only one: ProjectX and every
  /// core::Predictor path run through it. Row q of `out` is the
  /// projection of row q of `xs`, and each row's value depends on that
  /// row alone — not on B, the thread count or the blocking.
  ///
  /// For the ICD solver each row's chain is pivot kernel vector → forward
  /// substitution → CCA directions, run as three batch-level phases over
  /// an m×B right-hand-side block carved from `ws`: one multi-query pass
  /// over the pivot tiles (ml::GaussianKernelTilesBatch), the solve, and
  /// one projection pass. Only the solve differs across the batch sizes:
  /// SIMD batches under 16 rows substitute per query over the cached
  /// transposed factor; larger ones, and the scalar oracle at every B, run
  /// one blocked triangular solve (linalg::ForwardSubstBlocked) that reads
  /// the 256 KB factor once per B-column block instead of once per query.
  /// Every output element keeps its scalar chain; blocking only reorders
  /// which element advances next (pinned by tests/simd_kernel_test.cpp and
  /// tests/knn_oracle_test.cpp). The exact solver projects row chunks in
  /// parallel, each row's centered kernel vector in its own slice of `ws`.
  ///
  /// `ws` and `out` are caller-owned and reused across calls: after one
  /// warmup batch of the steady-state shape the call performs zero heap
  /// allocations on either solver (tests/alloc_test.cpp). `times`, when
  /// non-null, accumulates the ICD path's per-stage wall clock.
  void ProjectXBatchInto(const linalg::Matrix& xs, par::Workspace* ws,
                         linalg::Matrix* out,
                         KccaProjectTimes* times = nullptr) const;

  void Save(BinaryWriter* w) const;
  static KccaModel Load(BinaryReader* r);

 private:
  KccaOptions options_;
  KccaSolver solver_used_ = KccaSolver::kExact;
  double tau_x_ = 1.0;

  // Shared outputs.
  linalg::Matrix px_;
  linalg::Matrix py_;
  linalg::Vector correlations_;

  // Exact path state: kernel against all training points.
  linalg::Matrix train_x_;       ///< N x p preprocessed features
  linalg::Matrix a_;             ///< N x d dual coefficients
  linalg::Vector kx_row_means_;  ///< uncentered K_x row means
  double kx_grand_mean_ = 0.0;

  // ICD path state: kernel against pivot points only.
  linalg::Matrix pivot_x_;       ///< m x p pivot feature rows
  linalg::Matrix lpp_;           ///< m x m lower factor of K[P,P]
  /// Derived: lpp_ transposed, so the column-oriented (vectorized)
  /// per-query forward substitution reads columns of the factor
  /// contiguously. Rebuilt in Train and Load, never serialized (the model
  /// format is unchanged).
  linalg::Matrix lpp_t_;
  /// Derived: pivot_x_ repacked into the column-major tile layout
  /// (ml::PackRowsToTiles) the tiled Gaussian kernel consumes, so the
  /// serving-path pivot kernel vector runs on contiguous vector loads.
  /// Rebuilt in Train and Load, never serialized.
  std::vector<double> pivot_tiles_;
  linalg::Vector gx_means_;      ///< column means of G_x
  linalg::Matrix wx_;            ///< m x d CCA directions in feature space
};

}  // namespace qpp::ml
