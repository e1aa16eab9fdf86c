// Tests for qpp::par — the deterministic parallel compute core — and the
// PR's headline guarantee: training + prediction are byte-identical across
// thread counts (QPP_THREADS ∈ {1, 2, 8}).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/predictor.h"
#include "linalg/matrix.h"
#include "ml/kernel.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "par/parallel_for.h"
#include "par/thread_pool.h"
#include "par/workspace.h"
#include "linalg_reference.h"
#include "fixtures.h"

namespace qpp::par {
namespace {

// Restores the default pool size after each test so the thread count one
// test picks never leaks into the next.
class ParTest : public ::testing::Test {
 protected:
  void TearDown() override { SetGlobalThreads(DefaultThreads()); }
};

TEST_F(ParTest, NumChunksRule) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 0, 4), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(3, 3, 4), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(0, 1, 4), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(0, 4, 4), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(0, 5, 4), 2u);
  EXPECT_EQ(ThreadPool::NumChunks(10, 30, 7), 3u);
  // Zero grain is treated as 1.
  EXPECT_EQ(ThreadPool::NumChunks(0, 5, 0), 5u);
}

TEST_F(ParTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const size_t threads : {1u, 2u, 8u}) {
    SetGlobalThreads(threads);
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(0, hits.size(), 7, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST_F(ParTest, ChunkBoundariesIndependentOfThreadCount) {
  auto boundaries = [](size_t threads) {
    SetGlobalThreads(threads);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks(
        ThreadPool::NumChunks(3, 250, 9));
    ParallelForChunks(3, 250, 9, [&](size_t b, size_t e, size_t c) {
      std::lock_guard<std::mutex> lock(mu);
      chunks[c] = {b, e};
    });
    return chunks;
  };
  const auto at1 = boundaries(1);
  const auto at2 = boundaries(2);
  const auto at8 = boundaries(8);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
  // And the split is the documented static rule.
  EXPECT_EQ(at1.front(), (std::pair<size_t, size_t>{3, 12}));
  EXPECT_EQ(at1.back().second, 250u);
}

TEST_F(ParTest, DeterministicReduceBitIdenticalAcrossThreadCounts) {
  // Random doubles spanning many magnitudes: any change in summation
  // association would show up in the low bits.
  Rng rng(77);
  std::vector<double> values(10'000);
  for (double& v : values) v = rng.LogNormal(0.0, 6.0) - rng.LogNormal(0.0, 5.0);

  auto sum_at = [&](size_t threads) {
    SetGlobalThreads(threads);
    return DeterministicReduce<double>(
        0, values.size(), 128, 0.0,
        [&](size_t b, size_t e) {
          double s = 0.0;
          for (size_t i = b; i < e; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double s1 = sum_at(1);
  const double s2 = sum_at(2);
  const double s8 = sum_at(8);
  EXPECT_EQ(std::memcmp(&s1, &s2, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&s1, &s8, sizeof(double)), 0);
}

TEST_F(ParTest, NestedParallelForRunsInlineAndCompletes) {
  SetGlobalThreads(4);
  std::vector<std::atomic<int>> hits(256);
  ParallelFor(0, 16, 1, [&](size_t b, size_t e) {
    for (size_t outer = b; outer < e; ++outer) {
      ParallelFor(0, 16, 4, [&](size_t ib, size_t ie) {
        for (size_t inner = ib; inner < ie; ++inner) {
          hits[outer * 16 + inner].fetch_add(1);
        }
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST_F(ParTest, ChunkExceptionPropagatesToCaller) {
  for (const size_t threads : {1u, 4u}) {
    SetGlobalThreads(threads);
    EXPECT_THROW(
        ParallelFor(0, 100, 4,
                    [&](size_t b, size_t /*e*/) {
                      if (b >= 48) throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error);
  }
}

TEST(WorkspaceTest, OneAlignedAllocPerCycleThatGrowsInPlace) {
  const auto aligned = [](const double* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  Workspace ws;
  ws.Reset();
  EXPECT_TRUE(aligned(ws.Alloc(3)));
  EXPECT_THROW(ws.Alloc(1), CheckFailure);
  ws.Reset();
  double* big = ws.Alloc(4096);
  EXPECT_TRUE(aligned(big));
  big[4095] = 1.0;
  ws.Reset();
  EXPECT_EQ(ws.Alloc(100), big);
}

TEST_F(ParTest, MatrixProductsBitIdenticalAcrossThreadCounts) {
  // Big enough to clear the parallel-dispatch threshold in every kernel.
  linalg::Matrix a(160, 96);
  linalg::Matrix b(96, 112);
  Rng rng(5);
  for (double& v : a.data()) v = rng.Gaussian();
  for (double& v : b.data()) v = rng.Bernoulli(0.1) ? 0.0 : rng.Gaussian();

  SetGlobalThreads(1);
  const linalg::Matrix ab1 = a.Multiply(b);
  const linalg::Matrix atb1 = a.TransposeMultiply(a.Multiply(b));
  SetGlobalThreads(8);
  const linalg::Matrix ab8 = a.Multiply(b);
  const linalg::Matrix atb8 = a.TransposeMultiply(a.Multiply(b));

  EXPECT_EQ(ab1.data(), ab8.data());
  EXPECT_EQ(atb1.data(), atb8.data());
  // And both match the kept single-threaded reference kernel bit for bit.
  EXPECT_EQ(ab1.data(), linalg::reference::Multiply(a, b).data());
}

TEST_F(ParTest, GaussianScaleBitIdenticalAcrossThreadCounts) {
  const size_t n = 700;
  linalg::Matrix x(n, 24);
  Rng rng(11);
  for (double& v : x.data()) v = rng.LogNormal(0.5, 1.5);
  double taus[3];
  const size_t counts[3] = {1, 2, 8};
  for (size_t t = 0; t < 3; ++t) {
    SetGlobalThreads(counts[t]);
    taus[t] = ml::GaussianScaleFromNorms(x, 0.8);
  }
  EXPECT_EQ(std::memcmp(&taus[0], &taus[1], sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&taus[0], &taus[2], sizeof(double)), 0);
}

// ------------------------------------------------------------------------
// The acceptance-criteria test: full train + predict at QPP_THREADS ∈
// {1, 2, 8} gives byte-identical model serialization and predictions, for
// both solver paths.

struct TrainArtifacts {
  std::string model_bytes;
  std::vector<double> predictions;
};

TrainArtifacts TrainAndPredictAt(size_t threads, ml::KccaSolver solver) {
  SetGlobalThreads(threads);
  core::PredictorConfig cfg;
  cfg.kcca.solver = solver;
  const size_t n = solver == ml::KccaSolver::kExact ? 96 : 420;
  const auto examples = fixtures::PlanShapedExamples(n, 1234, 6.0, 3.0);
  core::Predictor pred(cfg);
  pred.Train(examples);

  TrainArtifacts out;
  std::ostringstream os;
  pred.Save(&os);
  out.model_bytes = os.str();

  std::vector<linalg::Vector> probes;
  for (size_t i = 0; i < 32; ++i) {
    probes.push_back(examples[(i * 13 + 7) % examples.size()].query_features);
  }
  for (const core::Prediction& p : pred.PredictBatch(probes)) {
    out.predictions.push_back(p.metrics.elapsed_seconds);
    out.predictions.push_back(p.metrics.records_accessed);
    out.predictions.push_back(p.mean_neighbor_distance);
    out.predictions.push_back(p.confidence);
  }
  return out;
}

void ExpectByteIdenticalAcrossThreadCounts(ml::KccaSolver solver) {
  const TrainArtifacts at1 = TrainAndPredictAt(1, solver);
  const TrainArtifacts at2 = TrainAndPredictAt(2, solver);
  const TrainArtifacts at8 = TrainAndPredictAt(8, solver);
  EXPECT_EQ(at1.model_bytes, at2.model_bytes);
  EXPECT_EQ(at1.model_bytes, at8.model_bytes);
  ASSERT_EQ(at1.predictions.size(), at8.predictions.size());
  ASSERT_EQ(at1.predictions.size(), at2.predictions.size());
  EXPECT_EQ(std::memcmp(at1.predictions.data(), at2.predictions.data(),
                        at1.predictions.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(at1.predictions.data(), at8.predictions.data(),
                        at1.predictions.size() * sizeof(double)),
            0);
}

TEST_F(ParTest, TrainPredictByteIdenticalAcrossThreadCountsExact) {
  ExpectByteIdenticalAcrossThreadCounts(ml::KccaSolver::kExact);
}

TEST_F(ParTest, TrainPredictByteIdenticalAcrossThreadCountsIcd) {
  ExpectByteIdenticalAcrossThreadCounts(ml::KccaSolver::kIcd);
}

// ------------------------------------------------------------------------
// Observability wiring.

TEST_F(ParTest, ExportsTaskMetricsAndTraceSpans) {
  SetGlobalThreads(4);
  obs::MetricsRegistry registry;
  obs::TraceRecorder trace;
  SetObservability(&registry, &trace);

  std::atomic<size_t> total{0};
  ParallelFor(
      0, 640, 8, [&](size_t b, size_t e) { total.fetch_add(e - b); },
      "par_test_region");
  SetObservability(nullptr, nullptr);

  EXPECT_EQ(total.load(), 640u);
  EXPECT_EQ(registry.GetCounter("qpp_par_tasks_total")->value(), 80u);
  // The gauge exists and holds whatever depth was last observed.
  EXPECT_GE(registry.GetGauge("qpp_par_queue_depth")->value(), 0.0);

  bool saw_region = false;
  for (const obs::TraceEvent& ev : trace.Events()) {
    if (ev.category == "par" && ev.name == "par_test_region") saw_region = true;
  }
  EXPECT_TRUE(saw_region);

  // Detached sinks stop recording.
  ParallelFor(0, 64, 8, [](size_t, size_t) {}, "after_detach");
  EXPECT_EQ(registry.GetCounter("qpp_par_tasks_total")->value(), 80u);
}

}  // namespace
}  // namespace qpp::par
