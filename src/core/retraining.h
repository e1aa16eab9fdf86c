// Continuous retraining (paper Section VII-C.4, future work implemented):
// "We also plan to investigate techniques to make KCCA more amenable to
//  continuous retraining (e.g., to reflect recently executed queries).
//  Such an enhancement would allow us to maintain a sliding training set
//  of data with a larger emphasis on more recently executed queries."
//
// SlidingWindowPredictor keeps a bounded window of the most recent
// (features, metrics) observations and retrains the underlying Predictor
// every `retrain_every` new observations. Recency emphasis is implemented
// by age-based down-sampling: the newest kFreshFraction of the window is
// always used, while older observations are kept with a probability that
// decays with age — so a regime change (data growth, configuration change,
// OS upgrade) washes out of the model at a controlled rate. Each retrain
// trains a default-configured Predictor.
#pragma once

#include <cstdint>
#include <deque>

#include "core/predictor.h"

namespace qpp::core {

/// Newest fraction of the window always included in training.
inline constexpr double kFreshFraction = 0.5;
/// Survival probability of the OLDEST retained observation; observations
/// between the fresh region and the window tail interpolate linearly.
inline constexpr double kOldestKeepProbability = 0.25;
/// Seed for the age-based down-sampling.
inline constexpr uint64_t kSlidingWindowSeed = 0x51EEDull;

struct SlidingWindowConfig {
  /// Maximum observations retained.
  size_t window_capacity = 2000;
  /// Retrain after this many new observations (training is minutes-scale in
  /// the paper, sub-second here; still not something to do per query).
  size_t retrain_every = 200;
};

class SlidingWindowPredictor {
 public:
  explicit SlidingWindowPredictor(SlidingWindowConfig config = {});

  /// Records a finished query's features and measured metrics; retrains
  /// when due. Returns true if a retrain happened.
  bool Observe(const linalg::Vector& query_features,
               const engine::QueryMetrics& measured);

  /// Forces a retrain on the current window (no-op when the window is too
  /// small to train).
  bool Retrain();

  Prediction Predict(const linalg::Vector& query_features) const {
    return predictor_.Predict(query_features);
  }

  size_t window_size() const { return window_.size(); }
  /// Number of completed retrains (model generation).
  size_t generation() const { return generation_; }
  const Predictor& predictor() const { return predictor_; }

 private:
  SlidingWindowConfig config_;
  std::deque<ml::TrainingExample> window_;
  size_t since_retrain_ = 0;
  size_t generation_ = 0;
  Predictor predictor_;
  Rng rng_;
};

}  // namespace qpp::core
