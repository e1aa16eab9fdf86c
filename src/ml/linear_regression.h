// Ordinary least squares — the paper's baseline (Section V-A).
//
// Fit by normal equations with a tiny ridge jitter for rank-deficient
// feature matrices. The paper's Figures 3 and 4 show this baseline failing:
// predictions off by orders of magnitude and even negative elapsed times.
// Nothing here prevents negative predictions — that IS the reproduced
// behavior.
#pragma once

#include "common/serde.h"
#include "linalg/matrix.h"

namespace qpp::ml {

class LinearRegression {
 public:
  /// Fits y ≈ X beta + intercept. `ridge` is an absolute L2 penalty on the
  /// coefficients (0 keeps pure OLS up to numerical jitter).
  void Fit(const linalg::Matrix& x, const linalg::Vector& y,
           double ridge = 0.0);

  double Predict(const linalg::Vector& x) const;

  const linalg::Vector& coefficients() const { return beta_; }
  double intercept() const { return intercept_; }

  void Save(BinaryWriter* w) const;
  static LinearRegression Load(BinaryReader* r);

 private:
  linalg::Vector beta_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

/// Independent per-metric regressions over a multi-output target — the
/// paper's observation that "each dependent variable is predicted from a
/// different set of chosen features" makes a joint model impossible with
/// this technique.
class MultiOutputRegression {
 public:
  void Fit(const linalg::Matrix& x, const linalg::Matrix& y,
           double ridge = 0.0);
  linalg::Vector Predict(const linalg::Vector& x) const;  ///< one row of ys
  const std::vector<LinearRegression>& models() const { return models_; }
  /// Reinstalls deserialized per-metric models (model reload path).
  void set_models(std::vector<LinearRegression> models) {
    models_ = std::move(models);
  }

 private:
  std::vector<LinearRegression> models_;
};

}  // namespace qpp::ml
