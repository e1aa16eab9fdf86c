// Heap allocations on the warmed predict paths. A replaced global operator
// new counts every allocation in the process; with the compute pool at one
// thread (ParallelFor then runs on the caller, without a task queue), the
// serving paths must not touch the heap once their scratch is warm:
//  * PredictBatchInto, for an ICD and an exact-solver model, at
//    B in {1, 4, 16, 64, 256}, and as B changes from call to call;
//  * Classify, on every call after its first on a thread;
//  * Predict, whose only allocation is the neighbor list it returns.
// The same counter also shows that a serve worker does not copy a missed
// request's features, that a fabric without a tracer builds no trace
// detail string on a health change, that a corrupt length prefix cannot
// make a BinaryReader allocate more than one chunk, and that a plan file's
// claimed child count allocates nothing its bytes do not back.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "core/predictor.h"
#include "fabric/fabric.h"
#include "fault/chaos.h"
#include "optimizer/plan_serde.h"
#include "par/thread_pool.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
/// The largest single allocation so far.
std::atomic<std::size_t> g_largest{0};
/// How many allocations had exactly g_watched_size bytes.
std::atomic<std::size_t> g_watched_size{0};
std::atomic<uint64_t> g_watched{0};

void Count(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (n > largest && !g_largest.compare_exchange_weak(
                            largest, n, std::memory_order_relaxed)) {
  }
  if (n == g_watched_size.load(std::memory_order_relaxed)) {
    g_watched.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

// The plain and the over-aligned forms; the library's default array and
// nothrow forms forward to these. noinline keeps every caller from seeing
// a new'd pointer reach free(), which -Wmismatched-new-delete would flag.
[[gnu::noinline]] void* operator new(std::size_t n) {
  Count(n);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  Count(n);
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

/// Rows of the serve fixture widened to kWideDims features, so a feature
/// vector is 184 bytes: a size no other allocation on the serve path has.
constexpr size_t kWideDims = 23;

std::vector<ml::TrainingExample> WideExamples(size_t n, uint64_t seed) {
  std::vector<ml::TrainingExample> out = fault::ServeExamples(n, seed);
  for (ml::TrainingExample& ex : out) {
    const linalg::Vector base = ex.query_features;
    for (size_t j = base.size(); j < kWideDims; ++j) {
      ex.query_features.push_back(base[j % base.size()] *
                                  static_cast<double>(j));
    }
  }
  return out;
}

TEST(ServeAllocTest, WorkerDoesNotCopyAMissedRequestsFeatures) {
  par::SetGlobalThreads(1);
  {
    Predictor model;
    model.Train(WideExamples(64, 5));
    serve::ModelRegistry registry;
    registry.Publish(model);
    serve::ServiceConfig config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    serve::PredictionService service(&registry, config);
    constexpr size_t kRequests = 64;
    std::vector<serve::ServeRequest> requests;
    for (ml::TrainingExample& ex : WideExamples(kRequests + 8, 77)) {
      requests.push_back({std::move(ex.query_features)});
    }
    // Warm the worker's scratch on the first few.
    for (size_t i = kRequests; i < requests.size(); ++i) {
      service.Submit(std::move(requests[i])).get();
    }
    g_watched.store(0);
    g_watched_size.store(kWideDims * sizeof(double));
    size_t from_model = 0;
    for (size_t i = 0; i < kRequests; ++i) {
      const serve::ServeResponse r =
          service.Submit(std::move(requests[i])).get();
      from_model += r.source == serve::ResponseSource::kModel;
    }
    g_watched_size.store(0);
    EXPECT_EQ(g_watched.load(), 0u);
    EXPECT_GT(from_model, 0u);
  }
  par::SetGlobalThreads(par::DefaultThreads());
}

TEST(FabricAllocTest, UntracedHealthChangeAllocatesNothing) {
  serve::ServiceConfig service;
  service.num_workers = 1;
  fabric::Fabric fab(fabric::MakePerPoolFabricConfig(1, service));
  // "one-model#0=draining" would outgrow the inline string buffer.
  const std::string group = "one-model";
  fab.SetReplicaHealth(group, 0, fabric::ReplicaHealth::kDraining);
  fab.SetReplicaHealth(group, 0, fabric::ReplicaHealth::kUp);
  const uint64_t before = Allocs();
  fab.SetReplicaHealth(group, 0, fabric::ReplicaHealth::kDraining);
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_EQ(fab.health(group, 0), fabric::ReplicaHealth::kDraining);
}

TEST(BoundedReadTest, CorruptLengthAllocatesAtMostOneChunk) {
  // Each length claims 128 MiB; the payload holds 8 bytes.
  const auto claim = [](uint64_t n) {
    std::ostringstream os;
    BinaryWriter w(os);
    w.WriteU64(n);
    w.WriteDouble(1.0);
    return os.str();
  };
  const std::string doubles = claim(uint64_t{1} << 24);
  const std::string bytes = claim(uint64_t{1} << 27);
  const auto read = [](const std::string& file, auto member) {
    std::istringstream is(file);
    BinaryReader r(is);
    g_largest.store(0);
    try {
      (r.*member)();
      ADD_FAILURE() << "a truncated payload was read";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
    return g_largest.load();
  };
  EXPECT_LE(read(doubles, &BinaryReader::ReadDoubles), kReadChunkBytes);
  // A string's buffer holds its terminator too.
  EXPECT_LE(read(bytes, &BinaryReader::ReadString), kReadChunkBytes + 1);
}

TEST(BoundedReadTest, MillionChildClaimAllocatesNoMoreThanItsBytes) {
  // A plan whose root claims `claimed` children and holds three leaves;
  // returns the largest allocation reading it makes.
  const auto largest_reading = [](uint64_t claimed) {
    std::ostringstream os;
    BinaryWriter w(os);
    w.WriteU32(0x4E4C5051);  // "QPLN"
    w.WriteU32(1);
    w.WriteString("");
    w.WriteU64(0);
    w.WriteDouble(1.0);
    for (int node = 0; node < 4; ++node) {
      w.WriteU32(0);
      for (int d = 0; d < 5; ++d) w.WriteDouble(1.0);
      w.WriteString("");
      w.WriteString("");
      w.WriteU32(0);
      for (int c = 0; c < 3; ++c) w.WriteU64(0);
      w.WriteU64(node == 0 ? claimed : 0);
    }
    std::istringstream is(os.str());
    g_largest.store(0);
    const auto plan = optimizer::ReadPlan(&is);
    const std::size_t largest = g_largest.load();
    EXPECT_FALSE(plan.ok());
    EXPECT_NE(plan.status().message().find("truncated"), std::string::npos)
        << plan.status().message();
    return largest;
  };
  // The same bytes with an honest count one past the leaves present fail
  // the same way; the million-child claim may cost no more than that.
  EXPECT_LE(largest_reading(uint64_t{1} << 20), largest_reading(4));
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
