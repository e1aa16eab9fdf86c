// Test fixtures shared by more than one suite. Each draws the same
// numbers in the same order for the same arguments, so every pin that
// reads them stays put.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/predictor.h"
#include "ml/feature_vector.h"
#include "par/simd.h"

namespace qpp::fixtures {

/// Plan-shaped synthetic examples, for tests that train on the 28 plan
/// features without a workload behind them. Each feature is
/// LogNormal(feature_mu, feature_sigma) with probability 0.3 and zero
/// otherwise; the five metrics are LogNormal with fixed parameters.
inline std::vector<ml::TrainingExample> PlanShapedExamples(
    size_t n, uint64_t seed, double feature_mu, double feature_sigma) {
  Rng rng(seed);
  std::vector<ml::TrainingExample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ml::TrainingExample ex;
    ex.query_features.resize(ml::kPlanFeatureDims);
    for (double& v : ex.query_features) {
      v = rng.Bernoulli(0.3) ? rng.LogNormal(feature_mu, feature_sigma) : 0.0;
    }
    ex.metrics.elapsed_seconds = rng.LogNormal(1.0, 2.0);
    ex.metrics.records_accessed = rng.LogNormal(12.0, 2.0);
    ex.metrics.records_used = rng.LogNormal(10.0, 2.0);
    ex.metrics.message_count = rng.LogNormal(6.0, 2.0);
    ex.metrics.message_bytes = rng.LogNormal(14.0, 2.0);
    out.push_back(std::move(ex));
  }
  return out;
}

/// A regression model (instant to train) on 40 three-feature examples
/// whose elapsed time and records accessed are linear in the first.
inline std::shared_ptr<const core::Predictor> TinyModel(uint64_t seed) {
  Rng rng(seed);
  std::vector<ml::TrainingExample> examples;
  for (int i = 0; i < 40; ++i) {
    ml::TrainingExample ex;
    const double x = rng.Uniform(1.0, 10.0);
    ex.query_features = {x, x * x, rng.Uniform(0.0, 1.0)};
    ex.metrics.elapsed_seconds = 2.0 * x;
    ex.metrics.records_accessed = 100.0 * x;
    examples.push_back(std::move(ex));
  }
  core::PredictorConfig cfg;
  cfg.model = core::ModelKind::kRegression;
  auto model = std::make_shared<core::Predictor>(cfg);
  model->Train(examples);
  return model;
}

/// Forces the scalar oracle path (or re-allows SIMD) for one scope, so a
/// failing assertion cannot leak the forced state into later tests.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force)
      : prev_(simd::SetForceScalar(force)) {}
  ~ScopedForceScalar() { simd::SetForceScalar(prev_); }

 private:
  bool prev_;
};

}  // namespace qpp::fixtures
