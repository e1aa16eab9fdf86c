#include "core/retraining.h"

#include "common/check.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace qpp::core {

SlidingWindowPredictor::SlidingWindowPredictor(SlidingWindowConfig config)
    : config_(config), rng_(kSlidingWindowSeed) {
  QPP_CHECK(config_.window_capacity >= 8);
  QPP_CHECK(config_.retrain_every >= 1);
}

bool SlidingWindowPredictor::Observe(const linalg::Vector& query_features,
                                     const engine::QueryMetrics& measured) {
  ml::TrainingExample ex;
  ex.query_features = query_features;
  ex.metrics = measured;
  window_.push_back(std::move(ex));
  while (window_.size() > config_.window_capacity) window_.pop_front();

  if (++since_retrain_ < config_.retrain_every && predictor_.trained()) {
    return false;
  }
  return Retrain();
}

bool SlidingWindowPredictor::Retrain() {
  const size_t min_needed = predictor_.config().k_neighbors + 4;
  if (window_.size() < min_needed) return false;

  // Age-based down-sampling: window_[0] is the oldest observation.
  const size_t n = window_.size();
  const size_t fresh_start = static_cast<size_t>(
      static_cast<double>(n) * (1.0 - kFreshFraction));
  std::vector<ml::TrainingExample> sample;
  sample.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i >= fresh_start) {
      sample.push_back({window_[i].query_features, window_[i].metrics});
      continue;
    }
    // Linear interpolation of survival probability over the stale region:
    // oldest -> kOldestKeepProbability, newest-stale -> 1.0.
    const double age_frac =
        fresh_start > 0
            ? static_cast<double>(fresh_start - i) /
                  static_cast<double>(fresh_start)
            : 0.0;
    const double keep = 1.0 - age_frac * (1.0 - kOldestKeepProbability);
    if (rng_.Bernoulli(keep)) {
      sample.push_back({window_[i].query_features, window_[i].metrics});
    }
  }
  if (sample.size() < min_needed) return false;

  // The heavy phases inside Train (kernel matrices, Gram products,
  // triangular solves) all route through the qpp::par pool, so a retrain
  // spreads across compute threads instead of monopolizing the observing
  // thread; the umbrella span puts the whole retrain on the "par" trace
  // timeline next to the individual region spans.
  Predictor fresh;
  {
    obs::Span span(par::ObservedTrace(), "retrain", "par");
    span.AddArg("window", static_cast<uint64_t>(n));
    span.AddArg("sample", static_cast<uint64_t>(sample.size()));
    fresh.Train(sample);
  }
  predictor_ = std::move(fresh);
  since_retrain_ = 0;
  ++generation_;
  return true;
}

}  // namespace qpp::core
