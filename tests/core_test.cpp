// Tests for core/: Predictor facade, two-step predictor, model file I/O,
// WorkloadManager, CapacityPlanner.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/serde.h"
#include "core/capacity_planner.h"
#include "core/experiment.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "core/two_step.h"
#include "core/workload_manager.h"

namespace qpp::core {
namespace {

/// Synthetic examples: features on a line; elapsed grows with the feature.
/// Three "performance regimes" give the projection something to cluster.
std::vector<ml::TrainingExample> SyntheticExamples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ml::TrainingExample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int regime = static_cast<int>(rng.UniformInt(0, 2));
    const double base = regime == 0 ? 1.0 : (regime == 1 ? 400.0 : 3000.0);
    const double wobble = rng.Uniform(0.9, 1.1);
    ml::TrainingExample ex;
    ex.query_features = {static_cast<double>(regime),
                         base * wobble,
                         base * base * wobble,
                         rng.Uniform(0.0, 1.0)};
    ex.metrics.elapsed_seconds = base * wobble;
    ex.metrics.records_accessed = base * 1000.0 * wobble;
    ex.metrics.records_used = base * 100.0 * wobble;
    ex.metrics.disk_ios = regime == 2 ? 500.0 * wobble : 0.0;
    ex.metrics.message_count = base * 10.0 * wobble;
    ex.metrics.message_bytes = base * 8000.0 * wobble;
    out.push_back(std::move(ex));
  }
  return out;
}

TEST(PredictorTest, PredictsRegimeMetricsAccurately) {
  const auto train = SyntheticExamples(200, 1);
  Predictor pred;
  pred.Train(train);
  ASSERT_TRUE(pred.trained());
  const auto test = SyntheticExamples(30, 2);
  for (const auto& ex : test) {
    const Prediction p = pred.Predict(ex.query_features);
    EXPECT_NEAR(p.metrics.elapsed_seconds, ex.metrics.elapsed_seconds,
                0.3 * ex.metrics.elapsed_seconds + 1.0);
    EXPECT_FALSE(p.anomalous);
    EXPECT_EQ(p.neighbor_indices.size(), 3u);
    EXPECT_GT(p.confidence, 0.0);
    EXPECT_LE(p.confidence, 1.0);
  }
}

TEST(PredictorTest, PredictBeforeTrainThrows) {
  Predictor pred;
  EXPECT_THROW(pred.Predict({1.0, 2.0, 3.0, 4.0}), CheckFailure);
}

TEST(PredictorTest, NeedsMoreExamplesThanNeighbors) {
  Predictor pred;
  EXPECT_THROW(pred.Train(SyntheticExamples(3, 1)), CheckFailure);
}

TEST(PredictorTest, AnomalyFlagFiresFarFromTraining) {
  const auto train = SyntheticExamples(200, 3);
  Predictor pred;
  pred.Train(train);
  const Prediction p = pred.Predict({9.0, 1e9, 1e18, 0.5});
  EXPECT_TRUE(p.anomalous);
  EXPECT_LT(p.confidence, 0.6);
}

TEST(PredictorTest, PredictedTypeFollowsNeighborElapsed) {
  const auto train = SyntheticExamples(300, 4);
  Predictor pred;
  pred.Train(train);
  // Regime 2 examples (~3000 s) are bowling balls; regime 0 are feathers.
  const Prediction fast = pred.Predict({0.0, 1.0, 1.0, 0.5});
  EXPECT_EQ(fast.predicted_type, workload::QueryType::kFeather);
  const Prediction slow = pred.Predict({2.0, 3000.0, 9e6, 0.5});
  EXPECT_EQ(slow.predicted_type, workload::QueryType::kBowlingBall);
}

TEST(PredictorTest, RegressionModeWorks) {
  PredictorConfig cfg;
  cfg.model = ModelKind::kRegression;
  Predictor pred(cfg);
  pred.Train(SyntheticExamples(200, 5));
  const Prediction p = pred.Predict({1.0, 400.0, 160000.0, 0.5});
  EXPECT_GT(p.metrics.elapsed_seconds, 100.0);
  EXPECT_LT(p.metrics.elapsed_seconds, 2000.0);
}

TEST(PredictorTest, StreamSaveLoadPreservesPredictions) {
  const auto train = SyntheticExamples(150, 6);
  Predictor pred;
  pred.Train(train);
  std::stringstream ss;
  pred.Save(&ss);
  const Predictor back = Predictor::Load(&ss);
  for (uint64_t s = 0; s < 5; ++s) {
    const auto probe = SyntheticExamples(1, 100 + s)[0].query_features;
    const Prediction a = pred.Predict(probe);
    const Prediction b = back.Predict(probe);
    EXPECT_EQ(a.metrics.ToVector(), b.metrics.ToVector());
    EXPECT_EQ(a.neighbor_indices, b.neighbor_indices);
    EXPECT_EQ(a.anomalous, b.anomalous);
  }
}

TEST(PredictorTest, RegressionSaveLoadRoundTrip) {
  PredictorConfig cfg;
  cfg.model = ModelKind::kRegression;
  Predictor pred(cfg);
  pred.Train(SyntheticExamples(150, 7));
  std::stringstream ss;
  pred.Save(&ss);
  const Predictor back = Predictor::Load(&ss);
  const auto probe = SyntheticExamples(1, 200)[0].query_features;
  EXPECT_EQ(back.Predict(probe).metrics.ToVector(),
            pred.Predict(probe).metrics.ToVector());
}

TEST(ModelIoTest, FileRoundTripAndErrors) {
  const auto path =
      (std::filesystem::temp_directory_path() / "qpp_model_test.bin")
          .string();
  Predictor pred;
  pred.Train(SyntheticExamples(100, 8));
  ASSERT_TRUE(SaveModelFile(pred, path).ok());
  const auto loaded = LoadModelFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const auto probe = SyntheticExamples(1, 300)[0].query_features;
  EXPECT_EQ(loaded.value().Predict(probe).metrics.ToVector(),
            pred.Predict(probe).metrics.ToVector());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadModelFile(path).ok());
  EXPECT_FALSE(LoadModelFile("/nonexistent/dir/model.bin").ok());
}

TEST(ModelIoTest, TrailingBytesAreAnError) {
  const auto path =
      (std::filesystem::temp_directory_path() / "qpp_trailing_model.bin")
          .string();
  Predictor pred;
  pred.Train(SyntheticExamples(100, 8));
  ASSERT_TRUE(SaveModelFile(pred, path).ok());
  ASSERT_TRUE(LoadModelFile(path).ok());
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.put('\0');
  }
  const auto loaded = LoadModelFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing bytes"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(ModelIoTest, CorruptFileReportsError) {
  const auto path =
      (std::filesystem::temp_directory_path() / "qpp_corrupt.bin").string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a model";
  }
  EXPECT_FALSE(LoadModelFile(path).ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, OutOfRangeEnumFieldsAreErrors) {
  const auto path =
      (std::filesystem::temp_directory_path() / "qpp_enum_flip.bin").string();
  Predictor pred;
  pred.Train(SyntheticExamples(100, 9));
  std::stringstream ss;
  pred.Save(&ss);
  const std::string bytes = ss.str();
  // The KCCA block closes the file; its first field is the solver.
  std::ostringstream kcca;
  {
    BinaryWriter w(kcca);
    pred.kcca().Save(&w);
  }
  const size_t solver_at = bytes.size() - kcca.str().size();

  // Saving what was loaded reproduces the file byte for byte.
  std::stringstream in(bytes);
  std::stringstream again;
  Predictor::Load(&in).Save(&again);
  EXPECT_EQ(again.str(), bytes);

  // Offsets: magic 0, version 4, model kind 8, k 12, distance 20,
  // weighting 24, log1p 28, standardize 32.
  const std::pair<size_t, uint32_t> flips[] = {
      {8, 2}, {20, 7}, {24, 9}, {28, 2}, {32, 5}, {solver_at, 3}};
  for (const auto& [offset, value] : flips) {
    std::string bad = bytes;
    std::memcpy(&bad[offset], &value, sizeof(value));
    {
      std::ofstream os(path, std::ios::binary);
      os << bad;
    }
    const auto loaded = LoadModelFile(path);
    EXPECT_FALSE(loaded.ok()) << "byte " << offset << " = " << value;
  }
  std::remove(path.c_str());
}

/// A WriteMatrix section: the rows x cols header, then a payload of
/// `count` doubles.
std::string MatrixSection(uint64_t rows, uint64_t cols, uint64_t count) {
  std::ostringstream os;
  BinaryWriter w(os);
  w.WriteU64(rows);
  w.WriteU64(cols);
  w.WriteDoubles(std::vector<double>(count, 1.0));
  return os.str();
}

/// `bytes` with its first rows x cols matrix section at or after offset
/// `from` replaced by `section`.
std::string SpliceMatrix(const std::string& bytes, uint64_t rows,
                         uint64_t cols, const std::string& section,
                         size_t from = 0) {
  const std::string old = MatrixSection(rows, cols, rows * cols);
  const size_t at = bytes.find(old.substr(0, 3 * sizeof(uint64_t)), from);
  QPP_CHECK(at != std::string::npos);
  return bytes.substr(0, at) + section + bytes.substr(at + old.size());
}

/// Whether LoadModelFile accepts `bytes`, written to a file named after
/// the running test (ctest runs tests in parallel processes).
bool Loads(const std::string& bytes) {
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const auto path = (std::filesystem::temp_directory_path() /
                     ("qpp_splice_" + name + ".bin"))
                        .string();
  {
    std::ofstream os(path, std::ios::binary);
    os << bytes;
  }
  const bool ok = LoadModelFile(path).ok();
  std::remove(path.c_str());
  return ok;
}

TEST(ModelIoTest, SectionsThatDisagreeInShapeAreErrors) {
  for (const ml::KccaSolver solver :
       {ml::KccaSolver::kExact, ml::KccaSolver::kIcd}) {
    PredictorConfig cfg;
    cfg.kcca.solver = solver;
    Predictor pred(cfg);
    pred.Train(SyntheticExamples(120, 10));
    std::stringstream ss;
    pred.Save(&ss);
    const std::string bytes = ss.str();
    const uint64_t n = 120;
    const uint64_t d = pred.kcca().x_projection().cols();
    // The splices find a section by its shape: the first n x 6 one is the
    // metrics, and the projection opens the KCCA block that closes the
    // file.
    std::ostringstream kcca;
    {
      BinaryWriter w(kcca);
      pred.kcca().Save(&w);
    }
    const size_t kcca_at = bytes.size() - kcca.str().size();

    // A valid file loads, and saving what was loaded gives it back.
    ASSERT_TRUE(Loads(bytes));
    std::stringstream in(bytes);
    std::stringstream again;
    Predictor::Load(&in).Save(&again);
    EXPECT_EQ(again.str(), bytes);

    // The training metrics with a seventh column, then with half the rows:
    // Predict would write past its six-metric average and Classify would
    // read past the metrics.
    EXPECT_FALSE(Loads(SpliceMatrix(bytes, n, 6, MatrixSection(n, 7, 7 * n))));
    EXPECT_FALSE(
        Loads(SpliceMatrix(bytes, n, 6, MatrixSection(n / 2, 6, 3 * n))));
    // The KCCA projection one column wider than the solver's directions.
    EXPECT_FALSE(Loads(SpliceMatrix(
        bytes, n, d, MatrixSection(n, d + 1, n * (d + 1)), kcca_at)));
  }
}

TEST(ModelIoTest, MatrixShapeThatWrapsIsAnError) {
  Predictor pred;
  pred.Train(SyntheticExamples(120, 11));
  std::stringstream ss;
  pred.Save(&ss);
  // 2^32 x 2^32 wraps to 0 doubles, the length of an empty payload.
  const uint64_t big = uint64_t{1} << 32;
  EXPECT_FALSE(
      Loads(SpliceMatrix(ss.str(), 120, 6, MatrixSection(big, big, 0))));
}

TEST(ModelIoTest, NeighborCountNotBelowTheTrainingRowsIsAnError) {
  Predictor pred;
  pred.Train(SyntheticExamples(100, 13));
  std::stringstream ss;
  pred.Save(&ss);
  const std::string bytes = ss.str();
  // A valid file loads, and saving what was loaded gives it back.
  ASSERT_TRUE(Loads(bytes));
  std::stringstream in(bytes);
  std::stringstream again;
  Predictor::Load(&in).Save(&again);
  EXPECT_EQ(again.str(), bytes);
  // k sits at offset 12. Train allows at most n - 1 = 99. With k = n every
  // prediction would average all rows; with 2^40 the first one would try
  // to reserve 2^40 neighbor indices. Both fail at load.
  const auto with_k = [&](uint64_t k) {
    std::string patched = bytes;
    std::memcpy(&patched[12], &k, sizeof(k));
    return patched;
  };
  EXPECT_TRUE(Loads(with_k(99)));
  EXPECT_FALSE(Loads(with_k(100)));
  EXPECT_FALSE(Loads(with_k(uint64_t{1} << 40)));
}

/// Whether LoadModelFile accepts a saved `solver` model whose KCCA block is
/// replaced by one trained on the same rows with a fifth feature: every
/// section still agrees in shape with the file except the KCCA's input
/// width, p + 1, so each Predict would fail its projection's width check.
bool LoadsWithWiderKccaInput(ml::KccaSolver solver) {
  PredictorConfig cfg;
  cfg.kcca.solver = solver;
  auto examples = SyntheticExamples(120, 12);
  Predictor pred(cfg);
  pred.Train(examples);
  for (auto& ex : examples) {
    ex.query_features.push_back(ex.query_features[3] * ex.query_features[3]);
  }
  Predictor wide(cfg);
  wide.Train(examples);
  std::stringstream ss;
  pred.Save(&ss);
  std::ostringstream narrow_kcca, wide_kcca;
  {
    BinaryWriter narrow(narrow_kcca), w(wide_kcca);
    pred.kcca().Save(&narrow);
    wide.kcca().Save(&w);
  }
  EXPECT_EQ(wide.kcca().input_dims(), pred.kcca().input_dims() + 1);
  const std::string bytes = ss.str();
  return Loads(bytes.substr(0, bytes.size() - narrow_kcca.str().size()) +
               wide_kcca.str());
}

TEST(ModelIoTest, ExactKccaOfTheWrongInputWidthIsAnError) {
  EXPECT_FALSE(LoadsWithWiderKccaInput(ml::KccaSolver::kExact));
}

TEST(ModelIoTest, IcdKccaOfTheWrongInputWidthIsAnError) {
  EXPECT_FALSE(LoadsWithWiderKccaInput(ml::KccaSolver::kIcd));
}

TEST(TwoStepTest, BuildsPerCategoryModels) {
  // 100 of each regime so every category clears min_category_size.
  std::vector<ml::TrainingExample> train;
  Rng rng(9);
  for (int regime = 0; regime < 3; ++regime) {
    const double base = regime == 0 ? 1.0 : (regime == 1 ? 400.0 : 3000.0);
    for (int i = 0; i < 100; ++i) {
      const double wobble = rng.Uniform(0.9, 1.1);
      ml::TrainingExample ex;
      ex.query_features = {static_cast<double>(regime), base * wobble,
                           base * base * wobble, rng.Uniform(0.0, 1.0)};
      ex.metrics.elapsed_seconds = base * wobble;
      ex.metrics.records_accessed = base * 1000.0;
      train.push_back(std::move(ex));
    }
  }
  TwoStepPredictor ts;
  ts.Train(train);
  EXPECT_TRUE(ts.HasCategoryModel(workload::QueryType::kFeather));
  EXPECT_TRUE(ts.HasCategoryModel(workload::QueryType::kGolfBall));
  EXPECT_TRUE(ts.HasCategoryModel(workload::QueryType::kBowlingBall));
  const Prediction p = ts.Predict({1.0, 410.0, 168100.0, 0.5});
  EXPECT_EQ(p.predicted_type, workload::QueryType::kGolfBall);
  EXPECT_NEAR(p.metrics.elapsed_seconds, 410.0, 100.0);
}

TEST(TwoStepTest, FallsBackWhenCategoryTooSmall) {
  // Only feathers in training: golf/bowling categories have no model.
  std::vector<ml::TrainingExample> train;
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    ml::TrainingExample ex;
    const double w = rng.Uniform(0.5, 2.0);
    ex.query_features = {w, w * 2.0, w * w, 0.0};
    ex.metrics.elapsed_seconds = w;
    train.push_back(std::move(ex));
  }
  TwoStepPredictor ts;
  ts.Train(train);
  EXPECT_TRUE(ts.HasCategoryModel(workload::QueryType::kFeather));
  EXPECT_FALSE(ts.HasCategoryModel(workload::QueryType::kBowlingBall));
  // Still predicts (via base fallback).
  const Prediction p = ts.Predict({1.0, 2.0, 1.0, 0.0});
  EXPECT_GT(p.metrics.elapsed_seconds, 0.0);
}

/// SyntheticExamples with elapsed time scaled so its regimes straddle the
/// WorkloadManager thresholds: the heavy regime (3,000 s) lands at 1.5x
/// kRejectThresholdSeconds, the medium one (400 s) between the off-peak
/// and reject thresholds, the light one (1 s) under both.
std::vector<ml::TrainingExample> AdmissionExamples(size_t n, uint64_t seed) {
  auto train = SyntheticExamples(n, seed);
  const double scale = 1.5 * kRejectThresholdSeconds / 3000.0;
  for (auto& ex : train) ex.metrics.elapsed_seconds *= scale;
  return train;
}

TEST(WorkloadManagerTest, DecisionsFollowThresholds) {
  const auto train = AdmissionExamples(300, 11);
  Predictor pred;
  pred.Train(train);
  const WorkloadManager manager(&pred);

  const auto fast = manager.Admit({0.0, 1.0, 1.0, 0.5});
  EXPECT_LT(fast.prediction.metrics.elapsed_seconds, kOffPeakThresholdSeconds);
  EXPECT_EQ(fast.decision, AdmissionDecision::kRunImmediately);
  const auto medium = manager.Admit({1.0, 400.0, 160000.0, 0.5});
  EXPECT_GT(medium.prediction.metrics.elapsed_seconds,
            kOffPeakThresholdSeconds);
  EXPECT_LT(medium.prediction.metrics.elapsed_seconds,
            kRejectThresholdSeconds);
  EXPECT_EQ(medium.decision, AdmissionDecision::kScheduleOffPeak);
  const auto heavy = manager.Admit({2.0, 3000.0, 9e6, 0.5});
  EXPECT_GT(heavy.prediction.metrics.elapsed_seconds, kRejectThresholdSeconds);
  EXPECT_EQ(heavy.decision, AdmissionDecision::kReject);
}

TEST(WorkloadManagerTest, AnomaliesRoutedToReview) {
  const auto train = SyntheticExamples(300, 12);
  Predictor pred;
  pred.Train(train);
  const WorkloadManager manager(&pred);
  const auto weird = manager.Admit({9.0, 1e9, 1e18, 0.5});
  EXPECT_EQ(weird.decision, AdmissionDecision::kNeedsReview);
}

TEST(WorkloadManagerTest, KillDeadlineScalesWithPrediction) {
  const auto train = AdmissionExamples(300, 13);
  Predictor pred;
  pred.Train(train);
  const WorkloadManager manager(&pred);
  const auto fast = manager.Admit({0.0, 1.0, 1.0, 0.5});
  ASSERT_LT(kKillMultiplier * fast.prediction.metrics.elapsed_seconds,
            kKillFloorSeconds);
  EXPECT_EQ(fast.kill_deadline_seconds, kKillFloorSeconds);
  const auto slow = manager.Admit({2.0, 3000.0, 9e6, 0.5});
  ASSERT_GT(kKillMultiplier * slow.prediction.metrics.elapsed_seconds,
            kKillFloorSeconds);
  EXPECT_NEAR(slow.kill_deadline_seconds,
              kKillMultiplier * slow.prediction.metrics.elapsed_seconds, 1e-9);
}

TEST(CapacityPlannerTest, RecommendsCheapestConfigMeetingDeadline) {
  // Two predictors: the "big" one predicts 4x faster.
  const auto train_small = SyntheticExamples(200, 14);
  auto train_big = train_small;
  for (auto& ex : train_big) {
    ex.metrics.elapsed_seconds /= 4.0;
  }
  Predictor small, big;
  small.Train(train_small);
  big.Train(train_big);

  CapacityPlanner planner;
  planner.AddConfiguration({"small", 4, 1.0, &small});
  planner.AddConfiguration({"big", 16, 4.0, &big});

  std::vector<linalg::Vector> workload;
  Rng rng(15);
  for (int i = 0; i < 10; ++i) {
    workload.push_back({1.0, 400.0 * rng.Uniform(0.95, 1.05), 160000.0, 0.5});
  }
  const auto est_small = planner.Estimate("small", workload);
  const auto est_big = planner.Estimate("big", workload);
  EXPECT_GT(est_small.total_elapsed_seconds,
            3.0 * est_big.total_elapsed_seconds);

  // Loose deadline: the cheap config wins.
  auto rec = planner.Recommend({workload, workload},
                               est_small.total_elapsed_seconds * 1.1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->config_name, "small");
  // Tight deadline: only the big one qualifies.
  rec = planner.Recommend({workload, workload},
                          est_small.total_elapsed_seconds * 0.5);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->config_name, "big");
  // Impossible deadline: no recommendation.
  rec = planner.Recommend({workload, workload}, 0.001);
  EXPECT_FALSE(rec.has_value());
}

TEST(CapacityPlannerTest, UnknownConfigurationThrows) {
  const auto train = SyntheticExamples(100, 16);
  Predictor pred;
  pred.Train(train);
  CapacityPlanner planner;
  planner.AddConfiguration({"only", 4, 1.0, &pred});
  EXPECT_THROW(planner.Estimate("nonexistent", {}), CheckFailure);
}

TEST(CapacityPlannerTest, UntrainedPredictorRejected) {
  Predictor untrained;
  CapacityPlanner planner;
  EXPECT_THROW(planner.AddConfiguration({"x", 4, 1.0, &untrained}),
               CheckFailure);
  EXPECT_THROW(planner.AddConfiguration({"y", 4, 1.0, nullptr}),
               CheckFailure);
}

TEST(PredictorTest, MismatchedFeatureDimensionThrows) {
  const auto train = SyntheticExamples(100, 17);
  Predictor pred;
  pred.Train(train);
  EXPECT_THROW(pred.Predict({1.0, 2.0}), CheckFailure);  // trained on 4 dims
}

TEST(PredictorTest, ConfidenceOrderedByNeighborDistance) {
  const auto train = SyntheticExamples(300, 18);
  Predictor pred;
  pred.Train(train);
  // A typical in-regime point vs a point between regimes.
  const Prediction typical = pred.Predict({1.0, 400.0, 160000.0, 0.5});
  const Prediction odd = pred.Predict({1.5, 1700.0, 2.9e6, 0.5});
  EXPECT_GT(typical.confidence, odd.confidence);
}

TEST(ExperimentTest, RiskTableAndScatterRender) {
  MetricEvaluation eval;
  eval.metric = "elapsed_time";
  eval.predicted = {1.0, 2.0};
  eval.actual = {1.1, 2.2};
  eval.risk = 0.9;
  eval.risk_drop1 = 0.95;
  eval.within20 = 1.0;
  const std::string table = RiskTable({eval});
  EXPECT_NE(table.find("elapsed_time"), std::string::npos);
  EXPECT_NE(table.find("0.90"), std::string::npos);
}

}  // namespace
}  // namespace qpp::core
