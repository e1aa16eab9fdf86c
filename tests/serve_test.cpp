// Unit tests for the serving building blocks: the bounded MPMC queue
// (blocking, backpressure, close-then-drain), the LRU result cache, the
// latency histogram, the optimizer-cost calibration, and the hot-swap
// model registry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "serve/bounded_queue.h"
#include "serve/circuit_breaker.h"
#include "serve/cost_fallback.h"
#include "serve/lru_cache.h"
#include "serve/model_registry.h"
#include "serve/service_stats.h"
#include "fixtures.h"

namespace qpp::serve {
namespace {

// ---------------------------------------------------------------- queue --

// One item through the workers' drain, PopBatch: blocks while empty;
// nullopt once the queue is closed and drained.
template <typename T>
std::optional<T> PopOne(BoundedQueue<T>* q) {
  std::vector<T> out;
  if (q->PopBatch(1, &out) == 0) return std::nullopt;
  return std::move(out[0]);
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(int(i)));
  EXPECT_EQ(q.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto v = PopOne(&q);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueueTest, FailedPushDoesNotConsumeTheItem) {
  // The service relies on this: when Submit loses the race with Shutdown,
  // it still owns the request (and its promise) and can answer directly.
  BoundedQueue<std::unique_ptr<int>> q(4);
  q.Close();
  auto item = std::make_unique<int>(42);
  EXPECT_FALSE(q.Push(std::move(item)));
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(*item, 42);
  EXPECT_FALSE(q.TryPush(std::move(item)));
  ASSERT_NE(item, nullptr);
}

TEST(BoundedQueueTest, PushBlocksWhenFullUntilAPop) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // must block: queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked (backpressure)
  EXPECT_EQ(PopOne(&q).value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(PopOne(&q).value(), 2);
}

TEST(BoundedQueueTest, PopBlocksUntilAPush) {
  BoundedQueue<int> q(4);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    auto v = PopOne(&q);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  EXPECT_TRUE(q.Push(7));
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(BoundedQueueTest, CloseDrainsQueuedItemsThenStops) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(3));  // no new work accepted...
  EXPECT_EQ(PopOne(&q).value(), 1);  // ...but accepted work is never dropped
  EXPECT_EQ(PopOne(&q).value(), 2);
  EXPECT_FALSE(PopOne(&q).has_value());  // drained: poppers stop blocking
}

TEST(BoundedQueueTest, CloseUnblocksAWaitingPopper) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] { EXPECT_FALSE(PopOne(&q).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, PopBatchTakesWhatIsReadyUpToMax) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(q.Push(int(i)));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(4, &out), 4u);  // capped at max_items
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.PopBatch(4, &out), 2u);  // takes what is ready, no waiting
  EXPECT_EQ(out.size(), 6u);
  q.Close();
  EXPECT_EQ(q.PopBatch(4, &out), 0u);  // closed and drained
}

TEST(BoundedQueueTest, ManyProducersManyConsumers) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
  BoundedQueue<int> q(8);  // small capacity: exercises blocking both ways
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = PopOne(&q)) {
        sum.fetch_add(*v);
        count.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : threads) t.join();
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ------------------------------------------------------------ LRU cache --

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);  // evicts key 1
  int v = 0;
  EXPECT_FALSE(cache.Get(1, &v));
  EXPECT_TRUE(cache.Get(2, &v));
  EXPECT_EQ(v, 20);
  EXPECT_TRUE(cache.Get(3, &v));
  EXPECT_EQ(v, 30);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, GetPromotesToMostRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  int v = 0;
  EXPECT_TRUE(cache.Get(1, &v));  // 1 is now MRU
  cache.Put(3, 30);               // evicts 2, not 1
  EXPECT_TRUE(cache.Get(1, &v));
  EXPECT_FALSE(cache.Get(2, &v));
  EXPECT_TRUE(cache.Get(3, &v));
}

TEST(LruCacheTest, PutOverwritesExistingKey) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(1, 11);
  int v = 0;
  EXPECT_TRUE(cache.Get(1, &v));
  EXPECT_EQ(v, 11);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, ZeroCapacityDisablesCaching) {
  LruCache<int, int> cache(0);
  cache.Put(1, 10);
  int v = 0;
  EXPECT_FALSE(cache.Get(1, &v));
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------------------ histogram --

TEST(LatencyHistogramTest, EmptyReportsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, QuantilesLandInTheRightBucket) {
  obs::Histogram h;
  for (int i = 0; i < 900; ++i) h.Record(1e-3);
  for (int i = 0; i < 100; ++i) h.Record(1.0);
  EXPECT_EQ(h.count(), 1000u);
  // Log-bucketed estimates: geometric bucket midpoints, so assert within
  // a factor of 2 rather than exact.
  const double p50 = h.Quantile(0.50);
  EXPECT_GT(p50, 0.5e-3);
  EXPECT_LT(p50, 2e-3);
  const double p99 = h.Quantile(0.99);
  EXPECT_GT(p99, 0.5);
  EXPECT_LT(p99, 2.0);
}

TEST(LatencyHistogramTest, OutOfRangeValuesClampToEdgeBuckets) {
  obs::Histogram h;
  h.Record(0.0);     // below range
  h.Record(1e9);     // above range
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.Quantile(0.99), 1.0);  // top bucket
}

// ---------------------------------------------------------- calibration --

TEST(CostCalibrationTest, RecoversAPowerLaw) {
  // elapsed = 0.01 * cost^0.8  ->  slope 0.8, intercept log10(0.01).
  std::vector<double> costs, elapsed;
  for (double c : {10.0, 100.0, 1e3, 1e4, 1e5, 1e6}) {
    costs.push_back(c);
    elapsed.push_back(0.01 * std::pow(c, 0.8));
  }
  const CostCalibration cal = CostCalibration::Fit(costs, elapsed);
  EXPECT_TRUE(cal.fitted);
  EXPECT_NEAR(cal.slope, 0.8, 1e-9);
  EXPECT_NEAR(cal.intercept, -2.0, 1e-9);
  EXPECT_NEAR(cal.EstimateSeconds(1e4), 0.01 * std::pow(1e4, 0.8), 1e-6);
}

TEST(CostCalibrationTest, DegenerateCostsPredictGeometricMean) {
  // All costs identical: slope would divide by zero; the fit falls back to
  // a flat line at the geometric-mean elapsed.
  const std::vector<double> costs = {100.0, 100.0, 100.0};
  const std::vector<double> elapsed = {1.0, 10.0, 100.0};
  const CostCalibration cal = CostCalibration::Fit(costs, elapsed);
  EXPECT_EQ(cal.slope, 0.0);
  EXPECT_NEAR(cal.EstimateSeconds(123.0), 10.0, 1e-9);
}

TEST(CostCalibrationTest, FallbackPredictionIsLabeledUntrusted) {
  CostCalibration cal;
  cal.slope = 1.0;
  cal.intercept = -3.0;  // elapsed = cost / 1000
  cal.fitted = true;
  const core::Prediction p = FallbackPrediction(cal, 5000.0, false);
  EXPECT_NEAR(p.metrics.elapsed_seconds, 5.0, 1e-9);
  EXPECT_EQ(p.confidence, 0.0);
  EXPECT_FALSE(p.anomalous);
  // Anomaly flag must survive the fallback so admission review still fires.
  EXPECT_TRUE(FallbackPrediction(cal, 5000.0, true).anomalous);
  // No cost available: nothing to estimate from, all metrics zero.
  const core::Prediction none = FallbackPrediction(cal, -1.0, false);
  EXPECT_EQ(none.metrics.elapsed_seconds, 0.0);
  EXPECT_EQ(none.confidence, 0.0);
}

// ------------------------------------------------------------- registry --

using fixtures::TinyModel;

TEST(ModelRegistryTest, EmptyUntilFirstPublish) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.has_model());
  EXPECT_EQ(registry.generation(), 0u);
  const ModelRegistry::Snapshot snap = registry.Acquire();
  EXPECT_FALSE(snap.valid());
  EXPECT_EQ(snap.generation, 0u);
}

TEST(ModelRegistryTest, GenerationsIncrementPerPublish) {
  ModelRegistry registry;
  const auto model = TinyModel(1);
  EXPECT_EQ(registry.Publish(model), 1u);
  EXPECT_EQ(registry.Publish(model), 2u);
  EXPECT_EQ(registry.Publish(*model), 3u);  // copy overload
  EXPECT_EQ(registry.generation(), 3u);
  EXPECT_TRUE(registry.Acquire().valid());
}

TEST(ModelRegistryTest, HotSwapUnderConcurrentReaders) {
  ModelRegistry registry;
  registry.Publish(TinyModel(1));
  constexpr int kPublishes = 50;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ModelRegistry::Snapshot snap = registry.Acquire();
        // A snapshot is always a complete published model, and generations
        // only move forward.
        ASSERT_TRUE(snap.valid());
        ASSERT_TRUE(snap.model->trained());
        ASSERT_GE(snap.generation, last);
        last = snap.generation;
        // The model the snapshot pins stays usable even if a publish
        // retires it while we hold it.
        ASSERT_GT(snap.model->num_training_examples(), 0u);
      }
    });
  }
  const auto a = TinyModel(2), b = TinyModel(3);
  for (int i = 0; i < kPublishes; ++i) {
    registry.Publish(i % 2 == 0 ? a : b);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(registry.generation(), 1u + kPublishes);
}

TEST(ModelRegistryTest, PublishUnpublishRollbackInterleavingPinsGenerations) {
  // The lifecycle layer leans on these exact semantics: Publish bumps the
  // generation (even when republishing old bits — the rollback path),
  // Unpublish RETAINS the generation, and a snapshot pinned before any of
  // it stays usable. Pin them under rapid interleaving, concurrent with
  // serving-style readers (TSan guards the swap itself).
  ModelRegistry registry;
  const auto champion = TinyModel(1);
  const auto challenger = TinyModel(2);
  ASSERT_EQ(registry.Publish(champion), 1u);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ModelRegistry::Snapshot snap = registry.Acquire();
        // Generations never move backwards, and a valid snapshot is
        // always one of the two models ever published, fully trained.
        ASSERT_GE(snap.generation, last);
        last = snap.generation;
        if (snap.valid()) {
          ASSERT_TRUE(snap.model == champion || snap.model == challenger);
          ASSERT_TRUE(snap.model->trained());
        }
      }
    });
  }

  constexpr uint64_t kCycles = 100;
  uint64_t generation = 1;
  for (uint64_t i = 0; i < kCycles; ++i) {
    // Promote the challenger...
    ASSERT_EQ(registry.Publish(challenger), generation + 1);
    ++generation;
    // ...kill it (generation is retained so caches can't confuse a
    // revived registry with what it served before)...
    registry.Unpublish();
    ASSERT_EQ(registry.generation(), generation);
    ASSERT_FALSE(registry.Acquire().valid());
    // ...and roll back to the prior champion: same bits, NEW generation.
    ASSERT_EQ(registry.Publish(champion), generation + 1);
    ++generation;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(registry.generation(), 1u + 2 * kCycles);
  const ModelRegistry::Snapshot final_snap = registry.Acquire();
  ASSERT_TRUE(final_snap.valid());
  EXPECT_EQ(final_snap.model, champion);
  // Unpublishing twice is a no-op, not a second generation event.
  registry.Unpublish();
  registry.Unpublish();
  EXPECT_EQ(registry.generation(), 1u + 2 * kCycles);
}

// ---------------------------------------------------------------- stats --

TEST(ServiceStatsTest, SnapshotReflectsRecordedEvents) {
  ServiceStats stats;
  stats.RecordBatch(3);
  stats.RecordCacheHit();
  stats.RecordModelPrediction();
  stats.RecordFallback("anomalous");
  stats.RecordRejected();
  for (int i = 0; i < 3; ++i) stats.RecordResponse(1e-3);
  const ServiceStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.requests, 3u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.model_predictions, 1u);
  EXPECT_EQ(snap.fallbacks(), 1u);
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_DOUBLE_EQ(snap.mean_batch_size(), 3.0);
  EXPECT_NEAR(snap.cache_hit_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_GT(snap.p50_seconds, 0.0);
  const std::string report = snap.ToString();
  EXPECT_NE(report.find("cache hits"), std::string::npos);
  EXPECT_NE(report.find("fallbacks"), std::string::npos);
}

TEST(ServiceStatsTest, EveryFallbackReasonHasItsOwnCounter) {
  ServiceStats stats;
  // A distinct count per reason, so a reason landing in another's field
  // shows up.
  const std::pair<const char*, uint64_t> reasons[] = {
      {"no-model", 1}, {"anomalous", 2}, {"deadline", 3},
      {"shutdown", 4}, {"overload", 5},  {"circuit-open", 6}};
  for (const auto& [reason, n] : reasons) {
    for (uint64_t i = 0; i < n; ++i) stats.RecordFallback(reason);
    EXPECT_EQ(stats.registry()
                  ->GetCounter("qpp_serve_fallbacks_total", {{"reason", reason}})
                  ->value(),
              n)
        << reason;
  }
  EXPECT_THROW(stats.RecordFallback("admission-shed"), CheckFailure);
  const ServiceStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.fallback_no_model, 1u);
  EXPECT_EQ(snap.fallback_anomalous, 2u);
  EXPECT_EQ(snap.fallback_deadline, 3u);
  EXPECT_EQ(snap.fallback_shutdown, 4u);
  EXPECT_EQ(snap.fallback_overload, 5u);
  EXPECT_EQ(snap.fallback_circuit_open, 6u);
  EXPECT_EQ(snap.fallbacks(), 21u);
  const std::string report = snap.ToString();
  EXPECT_NE(report.find("shutdown"), std::string::npos);
  EXPECT_NE(report.find("overload"), std::string::npos);
  EXPECT_NE(report.find("circuit-open"), std::string::npos);
}

// -------------------------------------------------------------- breaker --

CircuitBreakerConfig SmallBreaker() {
  CircuitBreakerConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.min_samples = 4;
  cfg.trip_ratio = 0.5;
  cfg.open_requests = 2;
  return cfg;
}

TEST(CircuitBreakerTest, StaysClosedUnderSuccesses) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.AllowRequest());
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, TripsAtTheRatioNotBefore) {
  CircuitBreaker breaker(SmallBreaker());
  // Below min_samples nothing can trip, even at 100% failures.
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();  // 4th sample reaches min_samples at ratio 1.0
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, OpenShortCircuitsThenAdmitsOneProbe) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // open_requests = 2 short-circuits, then exactly one probe gets through;
  // everyone else keeps getting refused until the probe's verdict lands.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, ProbeSuccessClosesAndResetsTheWindow) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  for (int i = 0; i < 2; ++i) EXPECT_FALSE(breaker.AllowRequest());
  ASSERT_TRUE(breaker.AllowRequest());  // the probe
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Window was reset: three fresh failures are below min_samples again.
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopens) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  for (int i = 0; i < 2; ++i) EXPECT_FALSE(breaker.AllowRequest());
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // And the open -> half-open cycle starts over.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, SlidingWindowForgetsOldFailures) {
  CircuitBreakerConfig cfg = SmallBreaker();
  cfg.window = 4;
  cfg.min_samples = 4;
  CircuitBreaker breaker(cfg);
  // One failure per four outcomes: five failures in total, but never two
  // inside the sliding window, so the 0.5 ratio is never reached. A
  // breaker that accumulated failures forever would have tripped.
  for (int round = 0; round < 5; ++round) {
    breaker.RecordFailure();
    for (int i = 0; i < 3; ++i) breaker.RecordSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  }
  // Two consecutive fresh failures put 2 in the 4-window: trips — and only
  // on the second one.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

}  // namespace
}  // namespace qpp::serve
