// Differential oracle suite for ml::KdTree (the sublinear kNN index behind
// core::Predictor). The contract under test is EXACTNESS IN BITS: for every
// query and every k, the tree returns the same neighbors, in the same
// (distance, index) order, with byte-identical distances, as the
// brute-force ml::FindNearest over the same matrix — with the SIMD kernels
// on or forced off, at any thread count. The sweeps lean on
// duplicates and exactly-tied distances because those are the cases where an
// "approximately exact" tree silently diverges: a pruning bound that rejects
// on >= instead of >, a tie broken by storage order instead of original
// index, a reassociated distance chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "linalg/matrix.h"
#include "ml/kdtree.h"
#include "ml/knn.h"
#include "par/thread_pool.h"
#include "fixtures.h"

namespace qpp {
namespace {

using ml::KdTree;

/// Bitwise neighbor-list equality (memcmp on distances: stricter than ==,
/// which would conflate 0.0/-0.0 and miss NaNs).
::testing::AssertionResult SameNeighbors(const std::vector<ml::Neighbor>& got,
                                         const std::vector<ml::Neighbor>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].index != want[i].index) {
      return ::testing::AssertionFailure()
             << "index[" << i << "] " << got[i].index << " vs "
             << want[i].index;
    }
    if (std::memcmp(&got[i].distance, &want[i].distance, sizeof(double)) !=
        0) {
      return ::testing::AssertionFailure()
             << "distance[" << i << "] bits differ: " << got[i].distance
             << " vs " << want[i].distance;
    }
  }
  return ::testing::AssertionSuccess();
}

enum class Shape {
  kUniform,
  /// Coordinates snapped to a coarse integer grid, which mass-produces
  /// duplicate rows and exact distance ties (equal coordinates, not merely
  /// close ones).
  kQuantized,
  /// A few tight clusters, the way plans of one template family sit
  /// together in feature space: the data the tree's pruning meets on the
  /// paper's workloads.
  kClustered,
};

linalg::Matrix MakePoints(Rng* rng, size_t n, size_t dims,
                          Shape shape = Shape::kUniform) {
  linalg::Matrix m(n, dims);
  if (shape == Shape::kClustered) {
    constexpr size_t kClusters = 6;
    linalg::Matrix centers(kClusters, dims);
    for (double& v : centers.data()) v = rng->Uniform(-10.0, 10.0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(kClusters) - 1));
      for (size_t j = 0; j < dims; ++j) {
        m(i, j) = centers(c, j) + rng->Gaussian(0.0, 0.05);
      }
    }
    return m;
  }
  for (double& v : m.data()) {
    v = shape == Shape::kQuantized ? static_cast<double>(rng->UniformInt(-2, 2))
                                   : rng->Uniform(-10.0, 10.0);
  }
  return m;
}

/// One tree vs the brute oracle over a mixed query battery: random probes,
/// exact training rows (distance-zero self hits), and near-duplicate
/// probes.
void CheckTreeAgainstOracle(const linalg::Matrix& points, Rng* rng,
                            size_t queries_per_shape, size_t* query_count) {
  KdTree tree;
  tree.Build(points);
  ASSERT_EQ(tree.dims(), points.cols());
  const size_t n = points.rows();
  const size_t dims = points.cols();
  for (size_t q = 0; q < queries_per_shape; ++q) {
    linalg::Vector query(dims);
    const int flavor = static_cast<int>(q % 3);
    if (flavor == 0) {
      for (double& v : query) v = rng->Uniform(-10.0, 10.0);
    } else if (flavor == 1) {
      query = points.Row(static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(n) - 1)));
    } else {
      query = points.Row(static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(n) - 1)));
      query[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(dims) - 1))] += 1.0;
    }
    for (size_t k : {size_t{1}, size_t{3}, size_t{8}, n, n + 5}) {
      const auto want =
          ml::FindNearest(points, query, k, ml::DistanceKind::kEuclidean);
      ASSERT_TRUE(SameNeighbors(tree.FindNearest(query, k), want))
          << "n=" << n << " dims=" << dims << " k=" << k
          << " flavor=" << flavor;
      ++*query_count;
    }
  }
}

TEST(KdTreeOracleTest, RandomizedSweepMatchesBruteForceBitwise) {
  Rng rng(0x5EEDull);
  size_t query_count = 0;
  for (size_t dims : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16},
                      size_t{28}}) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{17}, size_t{64},
                     size_t{257}}) {
      for (Shape shape : {Shape::kUniform, Shape::kQuantized}) {
        const linalg::Matrix points = MakePoints(&rng, n, dims, shape);
        CheckTreeAgainstOracle(points, &rng, /*queries_per_shape=*/9,
                               &query_count);
      }
    }
  }
  // The paper's shapes: the Experiment-1 training sets (767 feathers alone,
  // 1027 in all) in the 16-d projection and the 28-d plan-feature space.
  for (size_t dims : {size_t{16}, size_t{28}}) {
    for (size_t n : {size_t{767}, size_t{1027}}) {
      for (Shape shape : {Shape::kUniform, Shape::kClustered}) {
        const linalg::Matrix points = MakePoints(&rng, n, dims, shape);
        CheckTreeAgainstOracle(points, &rng, /*queries_per_shape=*/9,
                               &query_count);
      }
    }
  }
  // The suite's claim is "thousands of seeded queries"; hold it to that.
  EXPECT_GT(query_count, 3000u) << "oracle sweep lost coverage";
}

TEST(KdTreeOracleTest, AllIdenticalPointsTieEntirelyByIndex) {
  // Every distance is exactly equal, so the (distance, index) order is
  // decided by index alone: the tree must return 0, 1, 2, ... like brute.
  linalg::Matrix points(50, 6, 2.5);
  KdTree tree;
  tree.Build(points);
  linalg::Vector query(6, -1.0);
  for (size_t k : {size_t{1}, size_t{7}, size_t{50}}) {
    const auto got = tree.FindNearest(query, k);
    ASSERT_EQ(got.size(), std::min(k, size_t{50}));
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, i);
      EXPECT_EQ(
          std::memcmp(&got[i].distance, &got[0].distance, sizeof(double)), 0);
    }
  }
}

TEST(KdTreeOracleTest, MirroredPointsProduceExactCrossLeafTies) {
  // Pairs (v, -v) queried from the origin: every pair is an exact tie that
  // the tree must resolve by original index even when the two points land
  // in different leaves (this is the case the tie_possible re-check in the
  // block-reject gate exists for).
  Rng rng(0x7135ull);
  const size_t pairs = 48;
  linalg::Matrix points(2 * pairs, 5);
  for (size_t p = 0; p < pairs; ++p) {
    for (size_t j = 0; j < 5; ++j) {
      const double v = rng.Uniform(0.5, 4.0);
      points(2 * p, j) = v;
      points(2 * p + 1, j) = -v;
    }
  }
  KdTree tree;
  tree.Build(points);
  const linalg::Vector origin(5, 0.0);
  const auto want =
      ml::FindNearest(points, origin, 11, ml::DistanceKind::kEuclidean);
  EXPECT_TRUE(SameNeighbors(tree.FindNearest(origin, 11), want));
}

TEST(KdTreeOracleTest, KClampsByNAndRequiresValidArguments) {
  KdTree empty;
  empty.Build(linalg::Matrix());
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.FindNearest(linalg::Vector{1.0}, 1), CheckFailure);

  Rng rng(0xC1A4ull);
  const linalg::Matrix pts = MakePoints(&rng, 5, 3);
  KdTree tree;
  tree.Build(pts);
  EXPECT_THROW(tree.FindNearest(linalg::Vector(3, 0.0), 0), CheckFailure);
  EXPECT_THROW(tree.FindNearest(linalg::Vector(2, 0.0), 1), CheckFailure);
  // k > n clamps to n, exactly as brute does.
  const linalg::Vector q(3, 0.25);
  const auto got = tree.FindNearest(q, 99);
  const auto want = ml::FindNearest(pts, q, 99, ml::DistanceKind::kEuclidean);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_TRUE(SameNeighbors(got, want));

  tree.Clear();
  EXPECT_TRUE(tree.empty());
}

TEST(KdTreeOracleTest, RebuildAfterClearMatchesFreshTree) {
  Rng rng(0x4EB1ull);
  const linalg::Matrix a = MakePoints(&rng, 40, 4, Shape::kQuantized);
  const linalg::Matrix b = MakePoints(&rng, 23, 7);
  KdTree reused;
  reused.Build(a);
  reused.Build(b);  // implicit clear + rebuild
  KdTree fresh;
  fresh.Build(b);
  Rng probe_rng(0x4EB2ull);
  for (int i = 0; i < 20; ++i) {
    linalg::Vector q(7);
    for (double& v : q) v = probe_rng.Uniform(-10.0, 10.0);
    EXPECT_TRUE(SameNeighbors(reused.FindNearest(q, 4), fresh.FindNearest(q, 4)));
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the indexes inside core::Predictor.

::testing::AssertionResult SamePrediction(const core::Prediction& a,
                                          const core::Prediction& b) {
  const auto av = a.metrics.ToVector();
  const auto bv = b.metrics.ToVector();
  if (std::memcmp(av.data(), bv.data(), av.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "metric bytes differ";
  }
  if (std::memcmp(&a.mean_neighbor_distance, &b.mean_neighbor_distance,
                  sizeof(double)) != 0 ||
      std::memcmp(&a.confidence, &b.confidence, sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "distance/confidence differ";
  }
  if (a.anomalous != b.anomalous || a.predicted_type != b.predicted_type ||
      a.neighbor_indices != b.neighbor_indices) {
    return ::testing::AssertionFailure() << "flags/neighbors differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(KdTreePredictorTest, IndexedPredictorIsBitIdenticalToBruteForce) {
  const auto examples = fixtures::PlanShapedExamples(160, 0x9D1Cull, 5.0, 2.0);
  core::PredictorConfig brute_cfg;
  brute_cfg.use_knn_index = false;
  core::Predictor indexed, brute(brute_cfg);
  indexed.Train(examples);
  brute.Train(examples);

  // Identical training state (the index is derived, never serialized).
  std::ostringstream ia, ib;
  indexed.Save(&ia);
  brute.Save(&ib);
  EXPECT_EQ(ia.str(), ib.str());
  const auto si = indexed.training_distance_stats();
  const auto sb = brute.training_distance_stats();
  EXPECT_EQ(std::memcmp(&si, &sb, sizeof(si)), 0);

  std::vector<linalg::Vector> probes;
  for (size_t i = 0; i < 32; ++i) {
    probes.push_back(examples[(i * 7 + 3) % examples.size()].query_features);
  }
  const auto batch_i = indexed.PredictBatch(probes);
  const auto batch_b = brute.PredictBatch(probes);
  ASSERT_EQ(batch_i.size(), batch_b.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(SamePrediction(indexed.Predict(probes[i]), batch_b[i]))
        << "probe " << i;
    EXPECT_TRUE(SamePrediction(batch_i[i], batch_b[i])) << "probe " << i;
  }
}

TEST(KdTreePredictorTest, TrainAndPredictBytesStableAcrossThreadsAndSimd) {
  // The cross-dispatch matrix: thread counts {1, 2, 8} x {SIMD, forced
  // scalar} must all produce byte-identical models AND byte-identical
  // predictions. This is the product of the qpp::par determinism contract
  // and the SIMD oracle contract, end to end through the k-d tree serving
  // path.
  const auto examples = fixtures::PlanShapedExamples(120, 0xCD15ull, 5.0, 2.0);
  std::vector<linalg::Vector> probes;
  for (size_t i = 0; i < 12; ++i) {
    probes.push_back(examples[(i * 13 + 1) % examples.size()].query_features);
  }
  std::string first_model;
  std::vector<std::vector<double>> first_metrics;
  bool have_first = false;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (bool force_scalar : {false, true}) {
      par::SetGlobalThreads(threads);
      fixtures::ScopedForceScalar guard(force_scalar);
      core::Predictor pred;
      pred.Train(examples);
      std::ostringstream os;
      pred.Save(&os);
      std::vector<std::vector<double>> metrics;
      for (const auto& b : pred.PredictBatch(probes)) {
        metrics.push_back(b.metrics.ToVector());
      }
      if (!have_first) {
        first_model = os.str();
        first_metrics = metrics;
        have_first = true;
        continue;
      }
      EXPECT_EQ(os.str(), first_model)
          << "threads=" << threads << " force_scalar=" << force_scalar;
      ASSERT_EQ(metrics.size(), first_metrics.size());
      for (size_t i = 0; i < metrics.size(); ++i) {
        EXPECT_EQ(std::memcmp(metrics[i].data(), first_metrics[i].data(),
                              metrics[i].size() * sizeof(double)),
                  0)
            << "threads=" << threads << " force_scalar=" << force_scalar
            << " probe=" << i;
      }
    }
  }
  par::SetGlobalThreads(par::DefaultThreads());
}

TEST(KdTreePredictorTest, LoadRebuildsIndexesAndAnswersIdentically) {
  const auto examples = fixtures::PlanShapedExamples(100, 0x10ADull, 5.0, 2.0);
  core::Predictor pred;
  pred.Train(examples);
  std::ostringstream os;
  pred.Save(&os);
  std::istringstream is(os.str());
  const core::Predictor back = core::Predictor::Load(&is);
  for (size_t i = 0; i < 10; ++i) {
    const auto& probe = examples[i * 9 % examples.size()].query_features;
    EXPECT_TRUE(SamePrediction(back.Predict(probe), pred.Predict(probe)))
        << "probe " << i;
  }
}

}  // namespace
}  // namespace qpp
