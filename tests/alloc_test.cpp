// Heap allocations on the warmed predict paths. A replaced global operator
// new counts every allocation in the process; with the compute pool at one
// thread (ParallelFor then runs on the caller, without a task queue), the
// serving paths must not touch the heap once their scratch is warm:
//  * PredictBatchInto, for an ICD and an exact-solver model, at
//    B in {1, 4, 16, 64, 256}, and as B changes from call to call;
//  * Classify, on every call after its first on a thread;
//  * Predict, whose only allocation is the neighbor list it returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "fault/chaos.h"
#include "par/thread_pool.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// The plain and the over-aligned forms; the library's default array and
// nothrow forms forward to these. noinline keeps every caller from seeing
// a new'd pointer reach free(), which -Wmismatched-new-delete would flag.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p,
                     std::max(static_cast<std::size_t>(al), sizeof(void*)),
                     n != 0 ? n : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace qpp::core {
namespace {

uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// Runs `body` on a thread of its own, so its thread_local predict scratch
/// starts cold, and waits for it.
template <class F>
void OnFreshThread(F body) {
  std::thread t(body);
  t.join();
}

class AllocTest : public ::testing::TestWithParam<ml::KccaSolver> {
 protected:
  void SetUp() override { par::SetGlobalThreads(1); }
  void TearDown() override { par::SetGlobalThreads(par::DefaultThreads()); }

  /// A model on the four-pool fixture, trained once per solver.
  static const Predictor& Model(ml::KccaSolver solver) {
    static const Predictor icd = Train(ml::KccaSolver::kIcd);
    static const Predictor exact = Train(ml::KccaSolver::kExact);
    return solver == ml::KccaSolver::kIcd ? icd : exact;
  }

  /// 256 held-out plans' features (a different seed than training).
  static const std::vector<linalg::Vector>& Probes() {
    static const std::vector<linalg::Vector> probes = [] {
      std::vector<linalg::Vector> out;
      for (const ml::TrainingExample& ex : fault::PoolExamples(4, 64, 99)) {
        out.push_back(ex.query_features);
      }
      return out;
    }();
    return probes;
  }

 private:
  static Predictor Train(ml::KccaSolver solver) {
    PredictorConfig cfg;
    cfg.kcca.solver = solver;
    Predictor p(cfg);
    p.Train(fault::PoolExamples(4, 60, 7));
    return p;
  }
};

TEST_P(AllocTest, WarmPredictBatchIntoAllocatesNothing) {
  const Predictor& model = Model(GetParam());
  ASSERT_EQ(model.kcca().solver_used(), GetParam());
  for (const size_t b : {1, 4, 16, 64, 256}) {
    ASSERT_LE(b, Probes().size());
    const std::vector<linalg::Vector> queries(Probes().begin(),
                                              Probes().begin() + b);
    Predictor::BatchScratch scratch;
    std::vector<Prediction> out;
    model.PredictBatchInto(queries, &scratch, &out);
    model.PredictBatchInto(queries, &scratch, &out);
    const uint64_t before = Allocs();
    for (int i = 0; i < 8; ++i) model.PredictBatchInto(queries, &scratch, &out);
    EXPECT_EQ(Allocs() - before, 0u) << "B = " << b;
  }
}

TEST_P(AllocTest, WarmPredictBatchIntoAllocatesNothingAsBChanges) {
  // A serve worker's batch size moves from batch to batch (mostly 1): a
  // smaller batch must not free what the next larger one needs again.
  const Predictor& model = Model(GetParam());
  std::vector<std::vector<linalg::Vector>> batches;
  for (const size_t b : {1, 2, 1, 4, 1, 16, 1}) {
    batches.emplace_back(Probes().begin(), Probes().begin() + b);
  }
  Predictor::BatchScratch scratch;
  std::vector<Prediction> out;
  for (const auto& queries : batches) {
    model.PredictBatchInto(queries, &scratch, &out);
  }
  size_t wrong_sizes = 0;
  const uint64_t before = Allocs();
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (const auto& queries : batches) {
      model.PredictBatchInto(queries, &scratch, &out);
      wrong_sizes += out.size() != queries.size();
    }
  }
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_EQ(wrong_sizes, 0u);
}

TEST_P(AllocTest, ClassifyAllocatesNothingAfterItsFirstCallOnAThread) {
  const Predictor& model = Model(GetParam());
  OnFreshThread([&] {
    model.Classify(Probes()[0]);
    for (const linalg::Vector& x : Probes()) {
      const uint64_t before = Allocs();
      model.Classify(x);
      EXPECT_EQ(Allocs() - before, 0u);
    }
  });
}

TEST_P(AllocTest, PredictAllocatesOnlyItsNeighborList) {
  const Predictor& model = Model(GetParam());
  OnFreshThread([&] {
    model.Predict(Probes()[0]);
    for (const linalg::Vector& x : Probes()) {
      const uint64_t before = Allocs();
      const Prediction p = model.Predict(x);
      EXPECT_EQ(Allocs() - before, 1u);
      EXPECT_EQ(p.neighbor_indices.size(), model.config().k_neighbors);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Solvers, AllocTest,
                         ::testing::Values(ml::KccaSolver::kIcd,
                                           ml::KccaSolver::kExact),
                         [](const auto& info) {
                           return info.param == ml::KccaSolver::kIcd
                                      ? "Icd"
                                      : "Exact";
                         });

}  // namespace
}  // namespace qpp::core
