// Coverage for corner paths not exercised elsewhere: formatting helpers,
// degenerate model configurations, guard rails, and the pinned values of
// the library's fixed settings.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/experiment.h"
#include "core/retraining.h"
#include "core/workload_manager.h"
#include "lifecycle/lifecycle.h"
#include "linalg/matrix.h"
#include "ml/kcca.h"
#include "ml/kernel.h"
#include "ml/preprocess.h"
#include "obs/drift_monitor.h"
#include "optimizer/optimizer.h"

namespace qpp {
namespace {

TEST(StrUtilCoverageTest, FormatG) {
  EXPECT_EQ(FormatG(1234.5678, 4), "1235");
  EXPECT_EQ(FormatG(0.000123456, 3), "0.000123");
  EXPECT_EQ(FormatG(1e9, 4), "1e+09");
}

TEST(MatrixCoverageTest, EmptyMatrixOperations) {
  linalg::Matrix empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.MaxAbs(), 0.0);
  EXPECT_EQ(empty.FrobeniusNorm(), 0.0);
  const linalg::Matrix t = empty.Transpose();
  EXPECT_EQ(t.rows(), 0u);
}

TEST(PreprocessCoverageTest, TransformBeforeFitThrows) {
  ml::Preprocessor prep;
  EXPECT_THROW(prep.TransformRow({1.0}), CheckFailure);
  linalg::Matrix m(2, 1, 1.0);
  EXPECT_THROW(prep.Transform(m), CheckFailure);
}

TEST(KernelCoverageTest, MeanSquaredPairwiseDistanceSmallInputs) {
  linalg::Matrix one(1, 2, 0.0);
  EXPECT_EQ(ml::MeanSquaredPairwiseDistance(one), 1.0);  // degenerate guard
  linalg::Matrix two(2, 1);
  two(0, 0) = 0.0;
  two(1, 0) = 3.0;
  EXPECT_NEAR(ml::MeanSquaredPairwiseDistance(two), 9.0, 1e-12);
}

TEST(KccaCoverageTest, RequestedDimsClampToAvailableRank) {
  Rng rng(2);
  linalg::Matrix x(40, 2), y(40, 2);
  for (size_t i = 0; i < 40; ++i) {
    const double t = rng.Gaussian();
    x(i, 0) = t;
    x(i, 1) = 2.0 * t + 0.01 * rng.Gaussian();
    y(i, 0) = -t + 0.01 * rng.Gaussian();
    y(i, 1) = rng.Gaussian();
  }
  ml::KccaOptions opts;
  opts.num_dims = 999;  // far beyond anything available
  opts.solver = ml::KccaSolver::kIcd;
  const ml::KccaModel model = ml::KccaModel::Train(x, y, opts);
  EXPECT_LE(model.x_projection().cols(), 40u);
  EXPECT_GE(model.correlations().size(), 1u);
  // Projection of a training point still works at the clamped width.
  EXPECT_EQ(model.ProjectX(x.Row(0)).size(), model.x_projection().cols());
}

TEST(KccaCoverageTest, ConstantFeatureColumnsSurvive) {
  // A constant dimension must not break the kernel or the solver.
  Rng rng(3);
  linalg::Matrix x(30, 3), y(30, 2);
  for (size_t i = 0; i < 30; ++i) {
    const double t = rng.Gaussian();
    x(i, 0) = t;
    x(i, 1) = 42.0;  // constant
    x(i, 2) = -t;
    y(i, 0) = t;
    y(i, 1) = 42.0;  // constant
  }
  ml::KccaOptions opts;
  opts.solver = ml::KccaSolver::kExact;
  const ml::KccaModel model = ml::KccaModel::Train(x, y, opts);
  EXPECT_GT(model.correlations()[0], 0.9);
}

TEST(FixedSettingsTest, ConstantsMatchTheirHistoricalDefaults) {
  // Each of these was a config field that nothing but tests set to anything
  // but its default; it is a constant now. Pin each at that default so a
  // retune shows up as a deliberate test change, not a silent one.
  const struct {
    const char* name;
    double value;
    double historical;
  } pins[] = {
      {"core::kOffPeakThresholdSeconds", core::kOffPeakThresholdSeconds,
       300.0},
      {"core::kRejectThresholdSeconds", core::kRejectThresholdSeconds, 7200.0},
      {"core::kKillMultiplier", core::kKillMultiplier, 3.0},
      {"core::kKillFloorSeconds", core::kKillFloorSeconds, 60.0},
      {"core::kFreshFraction", core::kFreshFraction, 0.5},
      {"core::kOldestKeepProbability", core::kOldestKeepProbability, 0.25},
      {"core::kSlidingWindowSeed",
       static_cast<double>(core::kSlidingWindowSeed), 0x51EED},
      {"core::kTpcdsTemplateRepeat",
       static_cast<double>(core::kTpcdsTemplateRepeat), 3},
      {"core::kProblemTemplateRepeat",
       static_cast<double>(core::kProblemTemplateRepeat), 2},
      {"obs::kDriftAlpha", obs::kDriftAlpha, 0.1},
      {"obs::kDriftWarmupObservations",
       static_cast<double>(obs::kDriftWarmupObservations), 32},
      {"lifecycle::kMaxPendingPairs",
       static_cast<double>(lifecycle::kMaxPendingPairs), 4096},
      {"optimizer::kBroadcastRowBudget", optimizer::kBroadcastRowBudget,
       50000.0},
  };
  for (const auto& pin : pins) EXPECT_EQ(pin.value, pin.historical) << pin.name;
}

}  // namespace
}  // namespace qpp
