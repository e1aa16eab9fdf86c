// Edge-case battery for ml::FindNearest / ml::FindNearestBatch, plus the
// executable form of the batch ≡ row-wise contract: every FindNearestBatch
// row this file makes is compared bitwise against FindNearest on the same
// query.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "linalg/matrix.h"
#include "ml/kernel.h"
#include "ml/knn.h"
#include "par/simd_lanes.h"
#include "par/thread_pool.h"
#include "fixtures.h"

namespace qpp {
namespace {

linalg::Matrix RandomMatrix(Rng* rng, size_t rows, size_t cols) {
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->Uniform(-10.0, 10.0);
  return m;
}

::testing::AssertionResult SameNeighbors(const std::vector<ml::Neighbor>& got,
                                         const std::vector<ml::Neighbor>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].index != want[i].index ||
        std::memcmp(&got[i].distance, &want[i].distance, sizeof(double)) !=
            0) {
      return ::testing::AssertionFailure() << "entry " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Bytewise equality of two predictions: all six metrics compared by bit
// pattern, every auxiliary field exactly.
::testing::AssertionResult SamePredictionBits(const core::Prediction& got,
                                              const core::Prediction& want) {
  const auto gm = got.metrics.ToVector();
  const auto wm = want.metrics.ToVector();
  for (size_t i = 0; i < gm.size(); ++i) {
    if (std::memcmp(&gm[i], &wm[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "metric [" << i << "] bits differ: " << gm[i] << " vs "
             << wm[i];
    }
  }
  if (std::memcmp(&got.mean_neighbor_distance, &want.mean_neighbor_distance,
                  sizeof(double)) != 0 ||
      std::memcmp(&got.confidence, &want.confidence, sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "distance/confidence bits differ";
  }
  if (got.anomalous != want.anomalous ||
      got.predicted_type != want.predicted_type ||
      got.neighbor_indices != want.neighbor_indices) {
    return ::testing::AssertionFailure()
           << "anomalous/type/neighbor_indices differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(KnnOracleTest, InvalidArgumentsThrowCheckFailure) {
  Rng rng(0xBAD1ull);
  const linalg::Matrix points = RandomMatrix(&rng, 4, 3);
  const linalg::Vector q(3, 0.0);
  // k = 0 is a caller bug, not a valid "no neighbors" request.
  EXPECT_THROW(ml::FindNearest(points, q, 0, ml::DistanceKind::kEuclidean),
               CheckFailure);
  // Empty training sets cannot answer at all.
  EXPECT_THROW(
      ml::FindNearest(linalg::Matrix(), linalg::Vector(), 1,
                      ml::DistanceKind::kEuclidean),
      CheckFailure);
  // Dimension mismatch.
  EXPECT_THROW(
      ml::FindNearest(points, linalg::Vector(2, 0.0), 1,
                      ml::DistanceKind::kEuclidean),
      CheckFailure);
  // Same checks on the batch entry point.
  EXPECT_THROW(ml::FindNearestBatch(points, RandomMatrix(&rng, 2, 3), 0,
                                    ml::DistanceKind::kEuclidean),
               CheckFailure);
  EXPECT_THROW(ml::FindNearestBatch(points, RandomMatrix(&rng, 2, 5), 1,
                                    ml::DistanceKind::kEuclidean),
               CheckFailure);
}

TEST(KnnOracleTest, KGreaterThanNClampsToAllPointsSorted) {
  Rng rng(0xBAD2ull);
  const linalg::Matrix points = RandomMatrix(&rng, 6, 4);
  const linalg::Vector q(4, 1.0);
  for (auto metric :
       {ml::DistanceKind::kEuclidean, ml::DistanceKind::kCosine}) {
    const auto got = ml::FindNearest(points, q, 100, metric);
    ASSERT_EQ(got.size(), 6u);
    // Ascending (distance, index), and a permutation of all rows.
    std::vector<bool> seen(6, false);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_LT(got[i].index, 6u);
      EXPECT_FALSE(seen[got[i].index]);
      seen[got[i].index] = true;
      if (i > 0) {
        EXPECT_TRUE(got[i - 1].distance < got[i].distance ||
                    (got[i - 1].distance == got[i].distance &&
                     got[i - 1].index < got[i].index));
      }
    }
  }
}

TEST(KnnOracleTest, SinglePointAndSelfQuery) {
  linalg::Matrix one(1, 3);
  one(0, 0) = 1.0;
  one(0, 1) = -2.0;
  one(0, 2) = 0.5;
  const auto got =
      ml::FindNearest(one, one.Row(0), 5, ml::DistanceKind::kEuclidean);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].index, 0u);
  EXPECT_EQ(got[0].distance, 0.0);
}

TEST(KnnOracleTest, AllIdenticalPointsReturnIndexOrderNoNaN) {
  // Degenerate geometry: every pairwise distance identical (Euclidean) or
  // undefined-ish (cosine against a zero query). Neither may produce NaN,
  // and ties resolve purely by index.
  linalg::Matrix points(10, 4, 3.25);
  const linalg::Vector probe(4, 3.25);  // distance exactly 0 to every row
  const auto got =
      ml::FindNearest(points, probe, 4, ml::DistanceKind::kEuclidean);
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, i);
    EXPECT_EQ(got[i].distance, 0.0);
    EXPECT_FALSE(std::isnan(got[i].distance));
  }
  // Zero-norm query under cosine: defined as distance 1.0, never 0/0.
  const auto cos_got = ml::FindNearest(points, linalg::Vector(4, 0.0), 3,
                                       ml::DistanceKind::kCosine);
  for (const auto& nb : cos_got) {
    EXPECT_FALSE(std::isnan(nb.distance));
    EXPECT_EQ(nb.distance, 1.0);
  }
  // Zero-norm POINTS under cosine, same convention.
  linalg::Matrix zeros(5, 4, 0.0);
  const auto zero_got = ml::FindNearest(zeros, linalg::Vector(4, 1.0), 2,
                                        ml::DistanceKind::kCosine);
  for (const auto& nb : zero_got) {
    EXPECT_FALSE(std::isnan(nb.distance));
    EXPECT_EQ(nb.distance, 1.0);
  }
}

TEST(KnnOracleTest, DegenerateVarianceKernelScaleStaysFinitePositive) {
  // All rows identical: norm variance is exactly 0 AND the pairwise
  // fallback is exactly 0 — the final floor must still return a usable tau
  // instead of propagating 0 (and then NaN through exp(-d/0)).
  linalg::Matrix identical(20, 6, 7.0);
  const double tau = ml::GaussianScaleFromNorms(identical, 0.1);
  EXPECT_TRUE(std::isfinite(tau));
  EXPECT_GT(tau, 0.0);
  ml::GaussianKernel kernel{tau};
  const double k01 = kernel(identical.Row(0), identical.Row(1));
  EXPECT_FALSE(std::isnan(k01));
  EXPECT_EQ(k01, 1.0);

  // Equal norms but distinct directions: variance degenerates, the
  // pairwise fallback is nonzero and must be used.
  linalg::Matrix ring(8, 2);
  for (size_t i = 0; i < 8; ++i) {
    const double angle = 2.0 * M_PI * static_cast<double>(i) / 8.0;
    ring(i, 0) = 3.0 * std::cos(angle);
    ring(i, 1) = 3.0 * std::sin(angle);
  }
  const double ring_tau = ml::GaussianScaleFromNorms(ring, 0.1);
  EXPECT_TRUE(std::isfinite(ring_tau));
  EXPECT_GT(ring_tau, 0.0);
}

TEST(KnnOracleTest, BatchIsBitIdenticalToRowWiseAcrossDispatchMatrix) {
  // Satellite contract: FindNearestBatch ≡ row-wise FindNearest in bits,
  // under SIMD and forced scalar, at 1/2/8 threads, for both metrics, with
  // n shapes covering the 4-way remainders, and k from 1 to past n.
  Rng rng(0xBAD3ull);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    par::SetGlobalThreads(threads);
    for (bool force_scalar : {false, true}) {
      fixtures::ScopedForceScalar guard(force_scalar);
      for (size_t n : {size_t{1}, size_t{5}, size_t{33}, size_t{128}}) {
        const linalg::Matrix points = RandomMatrix(&rng, n, 7);
        const linalg::Matrix queries = RandomMatrix(&rng, 23, 7);
        for (size_t k : {size_t{1}, size_t{3}, size_t{40}}) {
          for (auto metric :
               {ml::DistanceKind::kEuclidean, ml::DistanceKind::kCosine}) {
            const auto batch = ml::FindNearestBatch(points, queries, k, metric);
            ASSERT_EQ(batch.size(), queries.rows());
            for (size_t r = 0; r < queries.rows(); ++r) {
              EXPECT_TRUE(SameNeighbors(
                  batch[r],
                  ml::FindNearest(points, queries.Row(r), k, metric)))
                  << "threads=" << threads << " scalar=" << force_scalar
                  << " n=" << n << " k=" << k << " row=" << r;
            }
          }
        }
      }
    }
  }
  par::SetGlobalThreads(par::DefaultThreads());
}

TEST(KnnOracleTest, PredictBatchBitIdenticalToPredictAcrossDispatchMatrix) {
  // End-to-end form of the batch ≡ single contract: Predictor::PredictBatch
  // (and the scratch-reusing PredictBatchInto) must reproduce per-query
  // Predict byte-for-byte at every batch size from 1 through past the
  // blocked-solve crossover (B = 16), under SIMD and forced scalar, at
  // 1/2/8 threads. This is the property that lets the serve micro-batcher
  // answer from the blocked path without forfeiting its determinism
  // guarantee.
  const std::vector<ml::TrainingExample> examples =
      fixtures::PlanShapedExamples(80, 0xBAD7ull, 5.0, 2.0);
  core::Predictor pred;
  pred.Train(examples);
  const size_t max_b =
      std::max<size_t>(2 * simd::kLanes + 1, 17);  // straddles crossover 16
  std::vector<linalg::Vector> pool;
  for (size_t i = 0; i < max_b; ++i) {
    pool.push_back(examples[(i * 13) % examples.size()].query_features);
  }
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    par::SetGlobalThreads(threads);
    for (bool force_scalar : {false, true}) {
      fixtures::ScopedForceScalar guard(force_scalar);
      // Per-query reference under this exact dispatch configuration.
      std::vector<core::Prediction> want;
      for (const auto& q : pool) want.push_back(pred.Predict(q));
      core::Predictor::BatchScratch scratch;
      std::vector<core::Prediction> got_into;
      for (size_t b = 1; b <= max_b; ++b) {
        const std::vector<linalg::Vector> queries(pool.begin(),
                                                  pool.begin() + b);
        const auto got = pred.PredictBatch(queries);
        pred.PredictBatchInto(queries, &scratch, &got_into);
        ASSERT_EQ(got.size(), b);
        ASSERT_EQ(got_into.size(), b);
        for (size_t r = 0; r < b; ++r) {
          EXPECT_TRUE(SamePredictionBits(got[r], want[r]))
              << "PredictBatch threads=" << threads
              << " scalar=" << force_scalar << " b=" << b << " row=" << r;
          EXPECT_TRUE(SamePredictionBits(got_into[r], want[r]))
              << "PredictBatchInto threads=" << threads
              << " scalar=" << force_scalar << " b=" << b << " row=" << r;
        }
      }
    }
  }
  par::SetGlobalThreads(par::DefaultThreads());
}

TEST(KnnOracleTest, DuplicateRowsTieByIndexInBothPaths) {
  // Half the rows are duplicates of the other half: ties everywhere, for
  // a small k and for a k past half the rows.
  Rng rng(0xBAD4ull);
  linalg::Matrix points(64, 5);
  for (size_t i = 0; i < 32; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      const double v = static_cast<double>(rng.UniformInt(-2, 2));
      points(i, j) = v;
      points(i + 32, j) = v;  // exact duplicate, higher index
    }
  }
  const linalg::Matrix queries = RandomMatrix(&rng, 16, 5);
  for (size_t k : {size_t{4}, size_t{33}}) {
    const auto batch =
        ml::FindNearestBatch(points, queries, k, ml::DistanceKind::kEuclidean);
    for (size_t r = 0; r < queries.rows(); ++r) {
      EXPECT_TRUE(SameNeighbors(
          batch[r], ml::FindNearest(points, queries.Row(r), k,
                                    ml::DistanceKind::kEuclidean)))
          << "k=" << k << " row=" << r;
      for (size_t i = 1; i < batch[r].size(); ++i) {
        const auto& prev = batch[r][i - 1];
        const auto& cur = batch[r][i];
        EXPECT_TRUE(prev.distance < cur.distance ||
                    (prev.distance == cur.distance && prev.index < cur.index))
            << "k=" << k << " row=" << r << " entry=" << i;
      }
    }
  }
}

TEST(KnnOracleTest, WeightingSchemesHandleZeroDistanceNeighbors) {
  // Averaging the rows of the identity reads each neighbor's normalized
  // weight back exactly, in the column of its index.
  const std::vector<ml::Neighbor> nbs = {{0, 0.0}, {3, 0.0}, {7, 2.0}};
  linalg::Matrix identity(8, 8);
  for (size_t i = 0; i < 8; ++i) identity(i, i) = 1.0;
  for (auto w : {ml::NeighborWeighting::kEqual, ml::NeighborWeighting::kRankRatio,
                 ml::NeighborWeighting::kInverseDistance}) {
    const linalg::Vector avg = ml::WeightedAverage(nbs, identity, w);
    double total = 0.0;
    for (const ml::Neighbor& nb : nbs) {
      const double v = avg[nb.index];
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GT(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
  EXPECT_THROW(ml::WeightedAverage({}, identity, ml::NeighborWeighting::kEqual),
               CheckFailure);
}

}  // namespace
}  // namespace qpp
