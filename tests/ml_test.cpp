// Tests for ml/: feature vectors, preprocessing, kernels, regression,
// lasso, k-means, PCA, kNN, and the predictive-risk metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "catalog/tpcds.h"
#include "common/check.h"
#include "common/rng.h"
#include "ml/feature_vector.h"
#include "ml/kernel.h"
#include "ml/kmeans.h"
#include "ml/knn.h"
#include "ml/lasso.h"
#include "ml/linear_regression.h"
#include "ml/pca.h"
#include "ml/preprocess.h"
#include "ml/risk.h"
#include "optimizer/optimizer.h"

namespace qpp::ml {
namespace {

linalg::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  return m;
}

TEST(FeatureVectorTest, PlanFeaturesCountOperators) {
  const catalog::Catalog cat = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&cat, {});
  const auto plan = opt.Plan(
      "SELECT COUNT(*) FROM store_sales, store_returns "
      "WHERE ss_ext_sales_price > sr_return_amt").value();
  const linalg::Vector v = PlanFeatureVector(plan);
  ASSERT_EQ(v.size(), kPlanFeatureDims);
  const auto names = PlanFeatureNames();
  ASSERT_EQ(names.size(), kPlanFeatureDims);
  // Lookup helper.
  const auto at = [&](const std::string& name) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return v[i];
    }
    ADD_FAILURE() << "no dim " << name;
    return 0.0;
  };
  EXPECT_EQ(at("file_scan_count"), 2.0);
  EXPECT_EQ(at("nested_join_count"), 1.0);
  EXPECT_EQ(at("root_count"), 1.0);
  EXPECT_EQ(at("hash_join_count"), 0.0);
  EXPECT_GT(at("nested_join_cardsum"), 0.0);
}

TEST(FeatureVectorTest, CardsumsUseCompileTimeKnowledgeOnly) {
  const catalog::Catalog cat = catalog::MakeTpcdsCatalog(1.0);
  optimizer::OptimizerOptions o1, o2;
  o1.world_seed = 111;
  o2.world_seed = 222;
  const optimizer::Optimizer opt1(&cat, o1), opt2(&cat, o2);
  // Outside histogram coverage the estimate is data-independent, so the
  // feature vector is identical across hidden worlds.
  const std::string uncovered =
      "SELECT COUNT(*) FROM store_sales WHERE ss_ticket_number = 123";
  EXPECT_EQ(PlanFeatureVector(opt1.Plan(uncovered).value()),
            PlanFeatureVector(opt2.Plan(uncovered).value()));
  // Histogram-covered predicates make features world-dependent (real
  // optimizers' histograms are built from the data), but still a pure
  // function of compile-time inputs.
  const std::string covered =
      "SELECT COUNT(*) FROM item WHERE i_category_id = 3";
  const optimizer::Optimizer opt1b(&cat, o1);
  EXPECT_EQ(PlanFeatureVector(opt1.Plan(covered).value()),
            PlanFeatureVector(opt1b.Plan(covered).value()));
}

TEST(FeatureVectorTest, StackExamplesAligned) {
  std::vector<TrainingExample> examples(3);
  for (size_t i = 0; i < 3; ++i) {
    examples[i].query_features = {double(i), double(i * 2)};
    examples[i].metrics.elapsed_seconds = double(i) * 10.0;
  }
  const FeatureMatrices m = StackExamples(examples);
  EXPECT_EQ(m.x.rows(), 3u);
  EXPECT_EQ(m.x.cols(), 2u);
  EXPECT_EQ(m.y.rows(), 3u);
  EXPECT_EQ(m.y.cols(), engine::QueryMetrics::kNumMetrics);
  EXPECT_EQ(m.y(2, 0), 20.0);
}

TEST(PreprocessTest, StandardizationProperties) {
  const linalg::Matrix x = RandomMatrix(200, 4, 1);
  Preprocessor prep(/*use_log1p=*/false, /*use_standardize=*/true);
  prep.Fit(x);
  const linalg::Matrix t = prep.Transform(x);
  for (size_t j = 0; j < 4; ++j) {
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < 200; ++i) mean += t(i, j);
    mean /= 200;
    for (size_t i = 0; i < 200; ++i) var += (t(i, j) - mean) * (t(i, j) - mean);
    var /= 200;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-10);
  }
}

TEST(PreprocessTest, SignedLog1pHandlesNegatives) {
  linalg::Matrix x(3, 1);
  x(0, 0) = -100.0;
  x(1, 0) = 0.0;
  x(2, 0) = 100.0;
  Preprocessor prep(true, false);
  prep.Fit(x);
  const linalg::Matrix t = prep.Transform(x);
  EXPECT_LT(t(0, 0), 0.0);
  EXPECT_EQ(t(1, 0), 0.0);
  EXPECT_GT(t(2, 0), 0.0);
  EXPECT_NEAR(t(2, 0), -t(0, 0), 1e-12);  // symmetric
}

TEST(PreprocessTest, ConstantColumnSurvives) {
  linalg::Matrix x(5, 1, 3.0);
  Preprocessor prep(false, true);
  prep.Fit(x);
  const linalg::Vector t = prep.TransformRow({3.0});
  EXPECT_EQ(t[0], 0.0);  // centered; stddev guard keeps it finite
}

TEST(PreprocessTest, SaveLoadRoundTrip) {
  const linalg::Matrix x = RandomMatrix(50, 3, 2);
  Preprocessor prep(true, true);
  prep.Fit(x);
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    prep.Save(&w);
  }
  BinaryReader r(ss);
  const Preprocessor back = Preprocessor::Load(&r);
  EXPECT_EQ(back.TransformRow(x.Row(7)), prep.TransformRow(x.Row(7)));
}

class KernelParamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelParamTest, KernelMatrixSymmetricUnitDiagonalBounded) {
  const linalg::Matrix x = RandomMatrix(30, 5, GetParam());
  const GaussianKernel k{GaussianScaleFromNorms(x, 0.5)};
  const linalg::Matrix km = KernelMatrix(x, k);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(km(i, i), 1.0);
    for (size_t j = 0; j < 30; ++j) {
      EXPECT_EQ(km(i, j), km(j, i));
      EXPECT_GE(km(i, j), 0.0);
      EXPECT_LE(km(i, j), 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelParamTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(KernelTest, CenteringZeroesRowSums) {
  const linalg::Matrix x = RandomMatrix(20, 4, 9);
  const GaussianKernel k{2.0};
  linalg::Matrix km = KernelMatrix(x, k);
  CenterKernelMatrix(&km);
  for (size_t i = 0; i < 20; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 20; ++j) sum += km(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-9);
  }
}

TEST(KernelTest, ScaleFallsBackWhenNormsDegenerate) {
  // All rows on the unit circle: norm variance == 0.
  linalg::Matrix x(8, 2);
  for (size_t i = 0; i < 8; ++i) {
    const double a = static_cast<double>(i);
    x(i, 0) = std::cos(a);
    x(i, 1) = std::sin(a);
  }
  const double tau = GaussianScaleFromNorms(x, 0.1);
  EXPECT_GT(tau, 0.0);
}

TEST(KernelTest, ScaleStableWithNearConstantLargeNorms) {
  // Norms around 1e8 with ~1e-3 jitter. The one-pass E[X^2] - E[X]^2
  // variance cancels to zero here (both terms ~1e16, the true variance
  // ~1e-6 is below double precision at that magnitude), which would
  // silently punt to the pairwise fallback. The stable two-pass form must
  // recover the true norm variance.
  const size_t n = 32;
  linalg::Matrix x(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = 1e8 + 1e-3 * static_cast<double>(i);
  }
  const double factor = 0.5;
  const double tau = GaussianScaleFromNorms(x, factor);

  // Same two-pass over the same norms in the same order.
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += linalg::Norm(x.Row(i));
  const double mean = sum / static_cast<double>(n);
  double sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = linalg::Norm(x.Row(i)) - mean;
    sq += d * d;
  }
  const double expected = factor * (sq / static_cast<double>(n));
  EXPECT_GT(expected, 1e-9);  // the jitter variance is genuinely there
  EXPECT_DOUBLE_EQ(tau, expected);
}

TEST(RegressionTest, RecoversPlantedLinearModel) {
  Rng rng(3);
  const size_t n = 300, p = 4;
  linalg::Matrix x(n, p);
  linalg::Vector y(n);
  const linalg::Vector beta = {2.0, -1.5, 0.0, 4.0};
  for (size_t i = 0; i < n; ++i) {
    double t = 7.0;  // intercept
    for (size_t j = 0; j < p; ++j) {
      x(i, j) = rng.Gaussian();
      t += beta[j] * x(i, j);
    }
    y[i] = t + 0.01 * rng.Gaussian();
  }
  LinearRegression model;
  model.Fit(x, y);
  for (size_t j = 0; j < p; ++j) {
    EXPECT_NEAR(model.coefficients()[j], beta[j], 0.01);
  }
  EXPECT_NEAR(model.intercept(), 7.0, 0.01);
  EXPECT_NEAR(model.Predict({1, 1, 1, 1}), 7 + 2 - 1.5 + 0 + 4, 0.05);
}

TEST(RegressionTest, CanProduceNegativePredictions) {
  // The paper's Fig. 3 observation: nothing constrains OLS to nonnegative
  // outputs.
  linalg::Matrix x(4, 1);
  linalg::Vector y(4);
  x(0, 0) = 0;
  x(1, 0) = 1;
  x(2, 0) = 2;
  x(3, 0) = 3;
  y = {1.0, 2.0, 3.0, 4.0};
  LinearRegression model;
  model.Fit(x, y);
  EXPECT_LT(model.Predict({-10.0}), 0.0);
}

TEST(RegressionTest, MultiOutputFitsEachMetric) {
  const linalg::Matrix x = RandomMatrix(100, 3, 4);
  linalg::Matrix y(100, 2);
  for (size_t i = 0; i < 100; ++i) {
    y(i, 0) = 2.0 * x(i, 0);
    y(i, 1) = -3.0 * x(i, 2) + 1.0;
  }
  MultiOutputRegression model;
  model.Fit(x, y);
  const linalg::Vector pred = model.Predict({1.0, 5.0, 2.0});
  EXPECT_NEAR(pred[0], 2.0, 1e-6);
  EXPECT_NEAR(pred[1], -5.0, 1e-6);
}

TEST(LassoTest, DiscardsIrrelevantFeatures) {
  Rng rng(5);
  const size_t n = 200;
  linalg::Matrix x(n, 3);
  linalg::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.Gaussian();
    y[i] = 5.0 * x(i, 0) + 0.05 * rng.Gaussian();  // only feature 0 matters
  }
  Lasso lasso;
  lasso.Fit(x, y, /*lambda=*/0.5);
  const auto discarded = lasso.DiscardedFeatures();
  EXPECT_NE(lasso.coefficients()[0], 0.0);
  EXPECT_EQ(discarded.size(), 2u);  // features 1 and 2 zeroed
}

TEST(LassoTest, ZeroPenaltyApproachesOls) {
  Rng rng(6);
  linalg::Matrix x(100, 2);
  linalg::Vector y(100);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.Gaussian();
    x(i, 1) = rng.Gaussian();
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1);
  }
  Lasso lasso;
  lasso.Fit(x, y, 0.0, /*max_iters=*/500);
  EXPECT_NEAR(lasso.coefficients()[0], 3.0, 1e-3);
  EXPECT_NEAR(lasso.coefficients()[1], -2.0, 1e-3);
}

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng rng(7);
  linalg::Matrix x(60, 2);
  for (size_t i = 0; i < 60; ++i) {
    const double cx = i < 30 ? 0.0 : 100.0;
    x(i, 0) = cx + rng.Gaussian();
    x(i, 1) = cx + rng.Gaussian();
  }
  const KMeansResult result = KMeans(x, 2, /*seed=*/1);
  EXPECT_EQ(result.assignment.size(), 60u);
  // All first-half points share a label; all second-half share the other.
  for (size_t i = 1; i < 30; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[0]);
  }
  for (size_t i = 31; i < 60; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[30]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[30]);
}

TEST(KMeansTest, DeterministicUnderSeed) {
  const linalg::Matrix x = RandomMatrix(50, 3, 8);
  const KMeansResult a = KMeans(x, 4, 9);
  const KMeansResult b = KMeans(x, 4, 9);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, RandIndexBounds) {
  const std::vector<size_t> a = {0, 0, 1, 1};
  EXPECT_EQ(RandIndex(a, a), 1.0);
  const std::vector<size_t> b = {0, 1, 0, 1};
  EXPECT_LT(RandIndex(a, b), 1.0);
  EXPECT_GE(RandIndex(a, b), 0.0);
}

TEST(PcaTest, FindsDominantDirection) {
  Rng rng(10);
  linalg::Matrix x(300, 2);
  for (size_t i = 0; i < 300; ++i) {
    const double t = rng.Gaussian() * 10.0;  // dominant along (1,1)
    x(i, 0) = t + 0.1 * rng.Gaussian();
    x(i, 1) = t + 0.1 * rng.Gaussian();
  }
  Pca pca;
  pca.Fit(x, 1);
  EXPECT_GT(pca.ExplainedVarianceRatio(), 0.99);
  const double c0 = pca.components()(0, 0);
  const double c1 = pca.components()(1, 0);
  EXPECT_NEAR(std::abs(c0), std::abs(c1), 0.02);  // direction ~ (1,1)/sqrt2
}

TEST(PcaTest, VarianceDescending) {
  const linalg::Matrix x = RandomMatrix(100, 5, 11);
  Pca pca;
  pca.Fit(x, 5);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_GE(pca.explained_variance()[i - 1], pca.explained_variance()[i]);
  }
}

TEST(PcaTest, RefusesAnUnconvergedEigensolve) {
  linalg::Matrix x = RandomMatrix(20, 4, 12);
  x(3, 1) = std::nan("");
  Pca pca;
  EXPECT_THROW(pca.Fit(x, 2), CheckFailure);
}

TEST(KnnTest, FindsExactNearest) {
  linalg::Matrix points(4, 1);
  points(0, 0) = 0.0;
  points(1, 0) = 10.0;
  points(2, 0) = 20.0;
  points(3, 0) = 30.0;
  const auto nbrs =
      FindNearest(points, {11.0}, 2, DistanceKind::kEuclidean);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].index, 1u);   // 10 is 1 away
  EXPECT_EQ(nbrs[1].index, 2u);   // 20 is 9 away (0 is 11 away)
  EXPECT_NEAR(nbrs[0].distance, 1.0, 1e-12);
}

TEST(KnnTest, CosineIgnoresMagnitude) {
  linalg::Matrix points(2, 2);
  points(0, 0) = 100.0;  // along x
  points(0, 1) = 0.0;
  points(1, 0) = 0.9;    // diagonal-ish
  points(1, 1) = 1.0;
  const auto euclid = FindNearest(points, {1.0, 1.0}, 1,
                                  DistanceKind::kEuclidean);
  const auto cosine = FindNearest(points, {1.0, 1.0}, 1,
                                  DistanceKind::kCosine);
  EXPECT_EQ(euclid[0].index, 1u);
  EXPECT_EQ(cosine[0].index, 1u);
  // Against a pure-x query, cosine picks the far x point; Euclid the near
  // diagonal one.
  const auto cosine_x =
      FindNearest(points, {1.0, 0.0}, 1, DistanceKind::kCosine);
  EXPECT_EQ(cosine_x[0].index, 0u);
}

TEST(KnnTest, WeightSchemes) {
  // Averaging the rows of the identity reads each neighbor's normalized
  // weight back exactly: column i holds 1.0 times neighbor i's weight plus
  // zeros.
  std::vector<Neighbor> nbrs = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  linalg::Matrix identity(3, 3);
  for (size_t i = 0; i < 3; ++i) identity(i, i) = 1.0;
  const auto equal =
      WeightedAverage(nbrs, identity, NeighborWeighting::kEqual);
  EXPECT_NEAR(equal[0], 1.0 / 3.0, 1e-12);
  const auto ratio =
      WeightedAverage(nbrs, identity, NeighborWeighting::kRankRatio);
  EXPECT_NEAR(ratio[0], 3.0 / 6.0, 1e-12);  // 3:2:1
  EXPECT_NEAR(ratio[2], 1.0 / 6.0, 1e-12);
  const auto inv =
      WeightedAverage(nbrs, identity, NeighborWeighting::kInverseDistance);
  EXPECT_GT(inv[0], inv[1]);
  EXPECT_GT(inv[1], inv[2]);
  for (const auto& w : {equal, ratio, inv}) {
    double sum = 0.0;
    for (double v : w) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(KnnTest, WeightedAverageEqualIsPlainMean) {
  linalg::Matrix values(3, 2);
  values(0, 0) = 1.0;
  values(1, 0) = 2.0;
  values(2, 0) = 6.0;
  std::vector<Neighbor> nbrs = {{0, 0.1}, {1, 0.2}, {2, 0.3}};
  const auto avg = WeightedAverage(nbrs, values, NeighborWeighting::kEqual);
  EXPECT_NEAR(avg[0], 3.0, 1e-12);
}

TEST(KnnTest, TiesBrokenByIndexAscending) {
  // Four points at distance 1, two at distance 2: the selection (now
  // nth_element + partial sort rather than a full sort) must keep the
  // documented (distance, index) order, so equal distances come back in
  // index order.
  linalg::Matrix points(7, 1);
  const double coords[7] = {1.0, -1.0, 2.0, -2.0, 1.0, -1.0, 3.0};
  for (size_t i = 0; i < 7; ++i) points(i, 0) = coords[i];
  const auto nbrs =
      FindNearest(points, {0.0}, 5, DistanceKind::kEuclidean);
  ASSERT_EQ(nbrs.size(), 5u);
  const size_t expected[5] = {0, 1, 4, 5, 2};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(nbrs[i].index, expected[i]) << "position " << i;
  }
}

TEST(KnnTest, TopKOrderMatchesFullSortReference) {
  // Regression pin for the nth_element-based selection: on random data
  // with deliberate duplicates, every k must reproduce exactly the prefix
  // of a full stable (distance, index) sort.
  Rng rng(21);
  const size_t n = 200;
  linalg::Matrix points(n, 3);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      // Coarse grid so exact-distance ties actually occur.
      points(i, j) = std::round(rng.Gaussian() * 2.0) / 2.0;
    }
  }
  const linalg::Vector query = {0.25, -0.5, 1.0};

  std::vector<Neighbor> ref(n);
  for (size_t i = 0; i < n; ++i) {
    ref[i].index = i;
    ref[i].distance =
        std::sqrt(linalg::SquaredDistance(points.Row(i), query));
  }
  std::sort(ref.begin(), ref.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.index < b.index;
  });

  for (const size_t k : {size_t{1}, size_t{3}, size_t{7}, size_t{50}, n}) {
    const auto got = FindNearest(points, query, k, DistanceKind::kEuclidean);
    ASSERT_EQ(got.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got[i].index, ref[i].index) << "k=" << k << " pos=" << i;
      EXPECT_EQ(got[i].distance, ref[i].distance);
    }
  }
}

TEST(KnnTest, BatchMatchesSingleQueryBitwise) {
  Rng rng(22);
  linalg::Matrix points(120, 4);
  for (double& v : points.data()) v = rng.Gaussian();
  linalg::Matrix queries(9, 4);
  for (double& v : queries.data()) v = rng.Gaussian();

  for (const auto metric : {DistanceKind::kEuclidean, DistanceKind::kCosine}) {
    const auto batch = FindNearestBatch(points, queries, 5, metric);
    ASSERT_EQ(batch.size(), queries.rows());
    for (size_t q = 0; q < queries.rows(); ++q) {
      const auto single = FindNearest(points, queries.Row(q), 5, metric);
      ASSERT_EQ(batch[q].size(), single.size());
      for (size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(batch[q][i].index, single[i].index);
        EXPECT_EQ(batch[q][i].distance, single[i].distance);
      }
    }
  }
}

TEST(RiskTest, PerfectAndMeanBaselines) {
  const linalg::Vector actual = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(PredictiveRisk(actual, actual), 1.0);
  const linalg::Vector mean_pred(4, 2.5);
  EXPECT_NEAR(PredictiveRisk(mean_pred, actual), 0.0, 1e-12);
  // Worse than the mean -> negative (possible on test data, per the paper).
  const linalg::Vector bad = {4.0, 3.0, 2.0, 1.0};
  EXPECT_LT(PredictiveRisk(bad, actual), 0.0);
}

TEST(RiskTest, NullOnConstantActuals) {
  const linalg::Vector actual(5, 0.0);
  const linalg::Vector pred = {0, 0, 0, 0, 1};
  const double risk = PredictiveRisk(pred, actual);
  EXPECT_TRUE(IsNullRisk(risk));
  EXPECT_EQ(FormatRisk(risk), "Null");
  EXPECT_FALSE(IsNullRisk(0.5));
}

TEST(RiskTest, FractionWithinRelative) {
  const linalg::Vector actual = {100.0, 100.0, 100.0, 100.0};
  const linalg::Vector pred = {81.0, 119.0, 120.0, 121.0};
  EXPECT_NEAR(FractionWithinRelative(pred, actual, 0.20), 0.75, 1e-12);
}

TEST(RiskTest, OutlierDroppingImproves) {
  linalg::Vector actual = {1, 2, 3, 4, 5, 6, 7, 8, 9, 100};
  linalg::Vector pred = actual;
  pred[9] = 1.0;  // one catastrophic miss
  const double with = PredictiveRisk(pred, actual);
  const double without = PredictiveRiskDroppingOutliers(pred, actual, 1);
  EXPECT_LT(with, 0.0);
  EXPECT_EQ(without, 1.0);
}

TEST(RiskTest, CountNegative) {
  EXPECT_EQ(CountNegative({1.0, -0.5, 2.0, -82.0}), 2u);
  EXPECT_EQ(CountNegative({0.0, 1.0}), 0u);
}

TEST(RiskTest, MeanRelativeError) {
  EXPECT_NEAR(MeanRelativeError({110.0, 90.0}, {100.0, 100.0}), 0.1, 1e-12);
}

}  // namespace
}  // namespace qpp::ml
