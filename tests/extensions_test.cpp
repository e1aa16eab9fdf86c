// Tests for the paper's future-work features implemented in this repo:
// sliding-window retraining (Sec. VII-C.4) and feature-influence probes
// (Sec. VII-C.2).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/feature_importance.h"
#include "core/retraining.h"

namespace qpp::core {
namespace {

/// A one-knob workload: elapsed = scale * x, features = {x, x^2}.
ml::TrainingExample MakeObservation(double x, double scale) {
  ml::TrainingExample ex;
  ex.query_features = {x, x * x, 1.0};
  ex.metrics.elapsed_seconds = scale * x;
  ex.metrics.records_accessed = 1000.0 * x;
  ex.metrics.records_used = 100.0 * x;
  ex.metrics.message_count = 10.0 * x;
  ex.metrics.message_bytes = 1000.0 * x;
  return ex;
}

TEST(SlidingWindowTest, TrainsOnceEnoughObservations) {
  SlidingWindowConfig cfg;
  cfg.retrain_every = 10;
  SlidingWindowPredictor sw(cfg);
  EXPECT_EQ(sw.generation(), 0u);
  Rng rng(1);
  bool retrained = false;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.Uniform(1.0, 100.0);
    const auto obs = MakeObservation(x, 1.0);
    retrained |= sw.Observe(obs.query_features, obs.metrics);
  }
  EXPECT_TRUE(retrained);
  EXPECT_GE(sw.generation(), 1u);
  const Prediction p = sw.Predict({50.0, 2500.0, 1.0});
  EXPECT_NEAR(p.metrics.elapsed_seconds, 50.0, 15.0);
}

TEST(SlidingWindowTest, WindowIsBounded) {
  SlidingWindowConfig cfg;
  cfg.window_capacity = 50;
  cfg.retrain_every = 1000;  // avoid retrains in this test
  SlidingWindowPredictor sw(cfg);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const auto obs = MakeObservation(rng.Uniform(1.0, 10.0), 1.0);
    sw.Observe(obs.query_features, obs.metrics);
  }
  EXPECT_EQ(sw.window_size(), 50u);
}

TEST(SlidingWindowTest, AdaptsToRegimeChange) {
  // Regime A: elapsed = x. Then the "system is upgraded" and elapsed = 4x.
  // A static model keeps predicting the old regime; the sliding window
  // adapts once the old observations age out.
  SlidingWindowConfig cfg;
  cfg.window_capacity = 200;
  cfg.retrain_every = 50;
  SlidingWindowPredictor sw(cfg);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto obs = MakeObservation(rng.Uniform(1.0, 100.0), 1.0);
    sw.Observe(obs.query_features, obs.metrics);
  }
  const double before = sw.Predict({50.0, 2500.0, 1.0}).metrics.elapsed_seconds;
  EXPECT_NEAR(before, 50.0, 15.0);

  for (int i = 0; i < 400; ++i) {  // new regime floods the window
    const auto obs = MakeObservation(rng.Uniform(1.0, 100.0), 4.0);
    sw.Observe(obs.query_features, obs.metrics);
  }
  const double after = sw.Predict({50.0, 2500.0, 1.0}).metrics.elapsed_seconds;
  EXPECT_NEAR(after, 200.0, 60.0);
  EXPECT_GE(sw.generation(), 2u);
}

TEST(SlidingWindowTest, RecencySamplingKeepsAllFreshExamples) {
  // The newest kFreshFraction of the window always trains; the stale part
  // is down-sampled, its oldest end kept with kOldestKeepProbability.
  SlidingWindowConfig cfg;
  cfg.window_capacity = 100;
  cfg.retrain_every = 1000;
  SlidingWindowPredictor sw(cfg);
  Rng rng(4);
  std::vector<double> elapsed;
  for (int i = 0; i < 100; ++i) {
    const auto obs = MakeObservation(rng.Uniform(1.0, 50.0), 2.0);
    elapsed.push_back(obs.metrics.elapsed_seconds);
    sw.Observe(obs.query_features, obs.metrics);
  }
  EXPECT_TRUE(sw.Retrain());
  const linalg::Matrix& trained = sw.predictor().training_metrics();
  EXPECT_LT(trained.rows(), 100u);  // some stale examples dropped
  const size_t fresh_start = static_cast<size_t>(100 * (1.0 - kFreshFraction));
  for (size_t i = fresh_start; i < elapsed.size(); ++i) {
    bool found = false;
    for (size_t r = 0; r < trained.rows(); ++r) {
      found = found || trained(r, 0) == elapsed[i];
    }
    EXPECT_TRUE(found) << "fresh observation " << i;
  }
}

TEST(SlidingWindowTest, RetrainRefusesTinyWindow) {
  SlidingWindowPredictor sw;
  const auto obs = MakeObservation(1.0, 1.0);
  sw.Observe(obs.query_features, obs.metrics);
  EXPECT_FALSE(sw.Retrain());
  EXPECT_EQ(sw.generation(), 0u);
}

TEST(FeatureInfluenceTest, IdentifiesTheDrivingFeature) {
  // Feature 0 drives elapsed; feature 2 is constant; feature 3 is noise.
  Rng rng(5);
  std::vector<ml::TrainingExample> train;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(1.0, 100.0);
    ml::TrainingExample ex;
    ex.query_features = {x, x * x, 7.0, rng.Uniform(0.0, 1.0)};
    ex.metrics.elapsed_seconds = x;
    ex.metrics.records_accessed = 100.0 * x;
    train.push_back(std::move(ex));
  }
  Predictor pred;
  pred.Train(train);

  std::vector<ml::TrainingExample> probes(train.begin(), train.begin() + 40);
  const auto influences = AnalyzeFeatureInfluence(
      pred, probes, {"driver", "driver_sq", "constant", "noise"});
  ASSERT_EQ(influences.size(), 4u);
  // The driver responds strongly to perturbation; the noise dim barely.
  EXPECT_GT(influences[0].perturbation_response,
            3.0 * influences[3].perturbation_response);
  // Constant dims produce no perturbation response at all.
  EXPECT_EQ(influences[2].perturbation_response, 0.0);
  // The table renders, sorted with the driver among the top rows.
  const std::string table = InfluenceTable(influences, 2);
  EXPECT_NE(table.find("driver"), std::string::npos);
  EXPECT_EQ(table.find("constant"), std::string::npos);
}

TEST(FeatureInfluenceTest, NeighborDisagreementSmallOnDrivingDims) {
  // Neighbors picked by the projection must agree on performance-relevant
  // dims more than on pure-noise dims.
  Rng rng(6);
  std::vector<ml::TrainingExample> train;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(1.0, 100.0);
    ml::TrainingExample ex;
    ex.query_features = {x, rng.Uniform(0.0, 100.0)};  // driver, noise
    ex.metrics.elapsed_seconds = x;
    ex.metrics.records_used = 10.0 * x;
    train.push_back(std::move(ex));
  }
  Predictor pred;
  pred.Train(train);
  std::vector<ml::TrainingExample> probes(train.begin(), train.begin() + 50);
  const auto influences =
      AnalyzeFeatureInfluence(pred, probes, {"driver", "noise"});
  EXPECT_LT(influences[0].neighbor_disagreement,
            influences[1].neighbor_disagreement);
}

}  // namespace
}  // namespace qpp::core
