// End-to-end tests for the prediction service: batched prediction is
// bit-identical to sequential Predict (the serving determinism guarantee),
// the service answers multi-threaded traffic with exactly those bits,
// every degraded answer is labeled with its reason, and hot-swap switches
// generations without serving stale cache entries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/predictor.h"
#include "core/two_step.h"
#include "core/workload_manager.h"
#include "fabric/fabric.h"
#include "fault/chaos.h"
#include "serve/prediction_service.h"
#include "workload/pools.h"

namespace qpp::serve {
namespace {

core::Predictor TrainPredictor(size_t n, uint64_t seed,
                               ml::KccaSolver solver) {
  core::PredictorConfig cfg;
  cfg.kcca.solver = solver;
  core::Predictor pred(cfg);
  pred.Train(fault::ServeExamples(n, seed));
  return pred;
}

/// Bitwise equality of everything a Prediction carries — EXPECT_EQ on
/// doubles is exact comparison, which is the point.
void ExpectBitIdentical(const core::Prediction& a, const core::Prediction& b) {
  EXPECT_EQ(a.metrics.ToVector(), b.metrics.ToVector());
  EXPECT_EQ(a.mean_neighbor_distance, b.mean_neighbor_distance);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.anomalous, b.anomalous);
  EXPECT_EQ(a.neighbor_indices, b.neighbor_indices);
  EXPECT_EQ(a.predicted_type, b.predicted_type);
}

CostCalibration TestCalibration() {
  // elapsed = cost / 100 in log-log space.
  CostCalibration cal;
  cal.slope = 1.0;
  cal.intercept = -2.0;
  cal.fitted = true;
  return cal;
}

// --------------------------------------------------------- PredictBatch --

void CheckBatchMatchesSequential(ml::KccaSolver solver) {
  const core::Predictor pred = TrainPredictor(64, 7, solver);
  const auto probes_src = fault::ServeExamples(20, 99);
  std::vector<linalg::Vector> probes;
  for (const auto& ex : probes_src) probes.push_back(ex.query_features);
  const std::vector<core::Prediction> batch = pred.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ExpectBitIdentical(batch[i], pred.Predict(probes[i]));
  }
}

TEST(PredictBatchTest, BitIdenticalToSequentialExactSolver) {
  CheckBatchMatchesSequential(ml::KccaSolver::kExact);
}

TEST(PredictBatchTest, BitIdenticalToSequentialIcdSolver) {
  CheckBatchMatchesSequential(ml::KccaSolver::kIcd);
}

TEST(PredictBatchTest, BitIdenticalForRegressionModel) {
  core::PredictorConfig cfg;
  cfg.model = core::ModelKind::kRegression;
  core::Predictor pred(cfg);
  pred.Train(fault::ServeExamples(50, 3));
  const auto probes_src = fault::ServeExamples(10, 4);
  std::vector<linalg::Vector> probes;
  for (const auto& ex : probes_src) probes.push_back(ex.query_features);
  const auto batch = pred.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ExpectBitIdentical(batch[i], pred.Predict(probes[i]));
  }
}

TEST(PredictBatchTest, EmptyBatchIsEmpty) {
  const core::Predictor pred = TrainPredictor(40, 1, ml::KccaSolver::kExact);
  EXPECT_TRUE(pred.PredictBatch({}).empty());
}

// -------------------------------------------------------------- service --

TEST(PredictionServiceTest, MultiThreadedTrafficMatchesSequentialPredict) {
  const core::Predictor pred = TrainPredictor(64, 7, ml::KccaSolver::kExact);
  ModelRegistry registry;
  registry.Publish(pred);

  ServiceConfig config;
  config.num_workers = 2;
  config.max_batch = 4;
  config.cache_capacity = 64;
  PredictionService service(&registry, config, TestCalibration());

  // 10 distinct probes, requested 20x each from 4 client threads: exercises
  // batching, the cache, and concurrent submission at once.
  const auto probes_src = fault::ServeExamples(10, 21);
  std::vector<linalg::Vector> probes;
  std::vector<core::Prediction> expected;
  for (const auto& ex : probes_src) {
    probes.push_back(ex.query_features);
    expected.push_back(pred.Predict(ex.query_features));
  }

  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<size_t, std::future<ServeResponse>>> futures;
      for (int r = 0; r < 50; ++r) {
        const size_t which = (static_cast<size_t>(c) * 13 + r) % probes.size();
        futures.emplace_back(which, service.Submit({probes[which], 100.0}));
      }
      for (auto& [which, future] : futures) {
        const ServeResponse resp = future.get();
        if (resp.degraded()) {
          mismatches.fetch_add(1);  // nothing here should degrade
          continue;
        }
        if (resp.model_generation != 1 ||
            resp.prediction.metrics.ToVector() !=
                expected[which].metrics.ToVector() ||
            resp.prediction.neighbor_indices !=
                expected[which].neighbor_indices ||
            resp.prediction.confidence != expected[which].confidence) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.requests, 200u);
  EXPECT_EQ(stats.fallbacks(), 0u);
  EXPECT_EQ(stats.cache_hits + stats.model_predictions, 200u);
  // 10 distinct vectors, so almost everything repeats; duplicates in flight
  // within one batch window can each miss, hence >= and not ==.
  EXPECT_GE(stats.cache_hits, 150u);
  EXPECT_GE(stats.model_predictions, 10u);
}

TEST(PredictionServiceTest, CacheHitIsBitIdenticalAndCounted) {
  const core::Predictor pred = TrainPredictor(48, 5, ml::KccaSolver::kExact);
  ModelRegistry registry;
  registry.Publish(pred);
  PredictionService service(&registry, {}, TestCalibration());

  const linalg::Vector probe = fault::ServeExamples(1, 77)[0].query_features;
  const ServeResponse first = service.Submit({probe, 10.0}).get();
  EXPECT_EQ(first.source, ResponseSource::kModel);
  const ServeResponse second = service.Submit({probe, 10.0}).get();
  EXPECT_EQ(second.source, ResponseSource::kCache);
  ExpectBitIdentical(second.prediction, first.prediction);
  ExpectBitIdentical(second.prediction, pred.Predict(probe));
  EXPECT_GE(service.stats().cache_hits, 1u);
}

TEST(PredictionServiceTest, NoModelFallbackIsLabeled) {
  ModelRegistry registry;  // nothing published
  const CostCalibration cal = TestCalibration();
  PredictionService service(&registry, {}, cal);
  const ServeResponse resp = service.Submit({{1.0, 2.0, 3.0}, 500.0}).get();
  EXPECT_TRUE(resp.degraded());
  EXPECT_EQ(resp.source, ResponseSource::kOptimizerFallback);
  EXPECT_EQ(resp.degraded_reason, "no-model");
  EXPECT_EQ(resp.model_generation, 0u);
  EXPECT_EQ(resp.prediction.confidence, 0.0);
  EXPECT_EQ(resp.prediction.metrics.elapsed_seconds,
            cal.EstimateSeconds(500.0));
  EXPECT_EQ(service.stats().fallback_no_model, 1u);
}

TEST(PredictionServiceTest, AnomalousQueryFallsBackLabeled) {
  const core::Predictor pred = TrainPredictor(64, 7, ml::KccaSolver::kExact);
  // A probe absurdly far from all training data must be flagged anomalous
  // by the model itself...
  const linalg::Vector far_probe(5, 1e12);
  ASSERT_TRUE(pred.Predict(far_probe).anomalous);

  ModelRegistry registry;
  registry.Publish(pred);
  const CostCalibration cal = TestCalibration();
  PredictionService service(&registry, {}, cal);
  // ...and the service then answers with the labeled optimizer baseline.
  const ServeResponse resp = service.Submit({far_probe, 1e4}).get();
  EXPECT_TRUE(resp.degraded());
  EXPECT_EQ(resp.degraded_reason, "anomalous");
  EXPECT_TRUE(resp.prediction.anomalous);  // survives for admission review
  EXPECT_EQ(resp.prediction.confidence, 0.0);
  EXPECT_EQ(resp.prediction.metrics.elapsed_seconds, cal.EstimateSeconds(1e4));
  EXPECT_EQ(service.stats().fallback_anomalous, 1u);

  // With the policy off, the model's own (untrusted) answer is returned.
  ServiceConfig keep;
  keep.fallback_on_anomalous = false;
  PredictionService service2(&registry, keep, cal);
  const ServeResponse kept = service2.Submit({far_probe, 1e4}).get();
  EXPECT_FALSE(kept.degraded());
  EXPECT_TRUE(kept.prediction.anomalous);
}

TEST(PredictionServiceTest, QueueDeadlineExceededFallsBack) {
  const core::Predictor pred = TrainPredictor(48, 5, ml::KccaSolver::kExact);
  ModelRegistry registry;
  registry.Publish(pred);
  ServiceConfig config;
  config.queue_deadline_seconds = 1e-12;  // any queue wait exceeds this
  const CostCalibration cal = TestCalibration();
  PredictionService service(&registry, config, cal);
  const linalg::Vector probe = fault::ServeExamples(1, 8)[0].query_features;
  const ServeResponse resp = service.Submit({probe, 200.0}).get();
  EXPECT_TRUE(resp.degraded());
  EXPECT_EQ(resp.degraded_reason, "deadline");
  EXPECT_EQ(resp.prediction.metrics.elapsed_seconds,
            cal.EstimateSeconds(200.0));
  EXPECT_EQ(service.stats().fallback_deadline, 1u);
}

TEST(PredictionServiceTest, SubmitAfterShutdownAnswersLabeledFallback) {
  ModelRegistry registry;
  PredictionService service(&registry, {}, TestCalibration());
  service.Shutdown();
  // No accepted request is dropped — even one that lost the race with
  // shutdown gets a (labeled) answer rather than a broken future.
  std::future<ServeResponse> future = service.Submit({{1.0, 2.0}, 50.0});
  const ServeResponse resp = future.get();
  EXPECT_TRUE(resp.degraded());
  EXPECT_EQ(resp.degraded_reason, "shutdown");

  // Regression: the shutdown fallback must be counted as SHUTDOWN, not
  // smuggled into the no-model counter — otherwise the accounting identity
  // (requests == cache + model + per-reason fallbacks) cannot be audited.
  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.fallback_shutdown, 1u);
  EXPECT_EQ(stats.fallback_no_model, 0u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.fallbacks(), 1u);

  std::promise<ServeResponse> refused;
  EXPECT_FALSE(service.TrySubmit({{1.0, 2.0}, 50.0}, &refused));
  EXPECT_EQ(service.stats().rejected, 1u);
  // A refusal hands the promise back: the caller can still answer it.
  EXPECT_NO_THROW(refused.get_future());
}

TEST(PredictionServiceTest, SubmitWithRetryDegradesToOverloadWhenExhausted) {
  ModelRegistry registry;
  const CostCalibration cal = TestCalibration();
  PredictionService service(&registry, {}, cal);
  service.Shutdown();  // every TrySubmit now refuses
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 1e-6;
  const ServeResponse resp =
      service.SubmitWithRetry({{1.0, 2.0}, 300.0}, policy).get();
  EXPECT_TRUE(resp.degraded());
  EXPECT_EQ(resp.degraded_reason, "overload");
  EXPECT_EQ(resp.prediction.metrics.elapsed_seconds, cal.EstimateSeconds(300.0));
  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.fallback_overload, 1u);
  EXPECT_EQ(stats.rejected, 3u);  // one per refused attempt
  EXPECT_EQ(stats.requests, 1u);
}

TEST(PredictionServiceTest, RetryAndBreakerDefaultsMatchHistoricalValues) {
  // The retry schedule and breaker thresholds used to be compile-time
  // constants; the settable ones are knobs now (docs/SERVING.md documents
  // the table). Defaults must reproduce the historical behavior exactly —
  // pin the values so a drive-by retune of a default shows up as a
  // deliberate test change, not a silent fleet-wide one.
  const RetryPolicy retry;
  EXPECT_EQ(retry.max_attempts, 3);
  EXPECT_DOUBLE_EQ(retry.initial_backoff_seconds, 0.0005);
  EXPECT_DOUBLE_EQ(kRetryBackoffMultiplier, 2.0);
  EXPECT_DOUBLE_EQ(kMaxRetryBackoffSeconds, 0.05);
  const ServiceConfig config;
  EXPECT_FALSE(config.breaker.enabled);
  EXPECT_EQ(config.breaker.window, 64u);
  EXPECT_EQ(config.breaker.min_samples, 16u);
  EXPECT_DOUBLE_EQ(config.breaker.trip_ratio, 0.5);
  EXPECT_EQ(config.breaker.open_requests, 32u);
}

TEST(PredictionServiceTest, SubmitWithRetrySucceedsWithoutFaults) {
  const core::Predictor pred = TrainPredictor(48, 5, ml::KccaSolver::kExact);
  ModelRegistry registry;
  registry.Publish(pred);
  PredictionService service(&registry, {}, TestCalibration());
  const linalg::Vector probe = fault::ServeExamples(1, 9)[0].query_features;
  const ServeResponse resp =
      service.SubmitWithRetry({probe, 100.0}, RetryPolicy{}).get();
  EXPECT_FALSE(resp.degraded());
  ExpectBitIdentical(resp.prediction, pred.Predict(probe));
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(PredictionServiceTest, HotSwapServesTheNewGenerationNotStaleCache) {
  const core::Predictor gen1 = TrainPredictor(64, 7, ml::KccaSolver::kExact);
  const core::Predictor gen2 = TrainPredictor(64, 8, ml::KccaSolver::kExact);
  ModelRegistry registry;
  registry.Publish(gen1);
  PredictionService service(&registry, {}, TestCalibration());

  const linalg::Vector probe = fault::ServeExamples(1, 31)[0].query_features;
  const ServeResponse r1 = service.Submit({probe, 100.0}).get();
  EXPECT_EQ(r1.model_generation, 1u);
  ExpectBitIdentical(r1.prediction, gen1.Predict(probe));
  // Prime the cache under generation 1.
  EXPECT_EQ(service.Submit({probe, 100.0}).get().source,
            ResponseSource::kCache);

  registry.Publish(gen2);  // hot-swap mid-traffic

  // Same probe again: the generation-1 cache entry must NOT be served; the
  // answer comes from the new model, bit-identical to gen2's Predict.
  const ServeResponse r2 = service.Submit({probe, 100.0}).get();
  EXPECT_EQ(r2.model_generation, 2u);
  EXPECT_NE(r2.source, ResponseSource::kCache);
  ExpectBitIdentical(r2.prediction, gen2.Predict(probe));
  // And the refreshed entry serves generation-2 bits from the cache.
  const ServeResponse r3 = service.Submit({probe, 100.0}).get();
  EXPECT_EQ(r3.source, ResponseSource::kCache);
  EXPECT_EQ(r3.model_generation, 2u);
  ExpectBitIdentical(r3.prediction, gen2.Predict(probe));
}

TEST(PredictionServiceTest, HotSwapUnderConcurrentTrafficStaysConsistent) {
  const auto gen1 =
      std::make_shared<const core::Predictor>(TrainPredictor(
          64, 7, ml::KccaSolver::kExact));
  const auto gen2 =
      std::make_shared<const core::Predictor>(TrainPredictor(
          64, 8, ml::KccaSolver::kExact));
  ModelRegistry registry;
  registry.Publish(gen1);

  ServiceConfig config;
  config.num_workers = 2;
  config.max_batch = 8;
  PredictionService service(&registry, config, TestCalibration());

  const auto probes_src = fault::ServeExamples(8, 55);
  std::vector<linalg::Vector> probes;
  for (const auto& ex : probes_src) probes.push_back(ex.query_features);

  // Clients hammer the service while a publisher flips between two models.
  // Every response must match the predictor of the generation it reports —
  // never a blend, never a stale cache line.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 60; ++r) {
        const size_t which = (static_cast<size_t>(c) + r) % probes.size();
        const ServeResponse resp =
            service.Submit({probes[which], 100.0}).get();
        if (resp.degraded()) continue;  // anomaly policy may fire; labeled
        const core::Predictor& truth =
            resp.model_generation % 2 == 1 ? *gen1 : *gen2;
        const core::Prediction direct = truth.Predict(probes[which]);
        if (resp.prediction.metrics.ToVector() != direct.metrics.ToVector() ||
            resp.prediction.neighbor_indices != direct.neighbor_indices) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread publisher([&] {
    for (int i = 0; i < 20; ++i) {
      registry.Publish(i % 2 == 0 ? gen2 : gen1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : clients) t.join();
  publisher.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(registry.generation(), 21u);
}

// ------------------------------------------- two-step through the wire --

// The paper's classify-then-predict design served end to end: step 1 (the
// base model's neighbor vote) picks the pool, step 2 answers from that
// pool's expert, and every served answer is bit-identical to the offline
// core::TwoStepPredictor. The interesting traffic sits on the 30-minute
// Fig. 2 edge (golf ball | bowling ball): a just-over-30-minute query
// whose features live in the golf cluster gets misclassified and answered
// by the golf expert — same as offline — and when the voted pool has no
// expert at all, the documented fallback to the one-model base answers.
TEST(TwoStepServingTest, BoundaryQueriesRoundTripThroughShardedServing) {
  // Feathers far away in feature space; golf (40 rows, elapsed just under
  // the 1800 s edge) and bowling (8 rows, just over it) share one feature
  // cluster, so the vote near the boundary is genuinely contested. Eight
  // bowling rows is below min_category_size: no bowling expert trains —
  // exactly the paper's sparse-pool situation.
  Rng rng(61);
  std::vector<ml::TrainingExample> examples;
  const auto add_rows = [&](size_t n, double offset, double elapsed_base) {
    for (size_t i = 0; i < n; ++i) {
      ml::TrainingExample ex;
      const double a = rng.Uniform(1.0, 10.0);
      const double b = rng.Uniform(1.0, 10.0);
      const double c = rng.Uniform(0.0, 5.0);
      ex.query_features = {a + offset, b, c, a * b, rng.Uniform(0.0, 1.0)};
      ex.metrics.elapsed_seconds = elapsed_base + 0.5 * a * b + c;
      ex.metrics.records_accessed = 1000.0 * a + 50.0 * c;
      ex.metrics.records_used = 100.0 * a;
      ex.metrics.message_count = 10.0 * b;
      ex.metrics.message_bytes = 1000.0 * b + 10.0 * a;
      examples.push_back(std::move(ex));
    }
  };
  add_rows(40, 0.0, 10.0);     // feathers: 10.5 .. 65 s
  add_rows(40, 40.0, 1740.0);  // golf: 1740.5 .. 1795 s  (< 30 min)
  add_rows(8, 40.0, 1805.0);   // bowling: 1805.5 .. 1860 s (> 30 min)

  core::PredictorConfig cfg;
  cfg.kcca.solver = ml::KccaSolver::kExact;
  core::TwoStepPredictor ts(cfg);
  ts.Train(examples);
  ASSERT_TRUE(ts.HasCategoryModel(workload::QueryType::kGolfBall));
  ASSERT_FALSE(ts.HasCategoryModel(workload::QueryType::kBowlingBall));

  ServiceConfig plain;
  plain.cache_capacity = 0;
  plain.fallback_on_anomalous = false;
  fabric::Fabric fab(fabric::MakePerPoolFabricConfig(1, plain),
                     TestCalibration());
  fabric::PublishTwoStep(ts, &fab);

  // Every training row, round-tripped: the served answer must carry the
  // voted pool's replica label in resp.shard and the offline TwoStep bits.
  size_t misclassified_boundary = 0, base_fallbacks = 0;
  for (size_t i = 0; i < examples.size(); ++i) {
    const linalg::Vector& probe = examples[i].query_features;
    const workload::QueryType vote =
        ts.base().Predict(probe).predicted_type;
    const workload::QueryType truth =
        workload::ClassifyElapsed(examples[i].metrics.elapsed_seconds);
    const ServeResponse resp = fab.Submit({probe, 100.0}).get();
    ASSERT_FALSE(resp.degraded()) << resp.degraded_reason;
    const core::Prediction offline = ts.Predict(probe);
    EXPECT_EQ(resp.prediction.metrics.ToVector(), offline.metrics.ToVector());
    EXPECT_EQ(resp.prediction.neighbor_indices, offline.neighbor_indices);
    EXPECT_EQ(resp.prediction.confidence, offline.confidence);
    if (vote == workload::QueryType::kBowlingBall) {
      // Voted pool has no expert: the documented fallback — the one-model
      // group answers with the base model, which is exactly what the
      // offline TwoStepPredictor does for an expert-less category.
      EXPECT_EQ(resp.shard, "one-model#0");
      ++base_fallbacks;
    } else {
      EXPECT_EQ(resp.shard, fabric::ReplicaLabel(
                                workload::QueryTypeName(vote), 0));
    }
    if (truth == workload::QueryType::kBowlingBall &&
        vote == workload::QueryType::kGolfBall) {
      // A ~30-minute query on the wrong side of the vote: served by the
      // golf expert, openly (the replica label says so), not silently
      // dropped.
      EXPECT_EQ(resp.shard, "golf ball#0");
      ++misclassified_boundary;
    }
  }
  // The boundary must actually have been contested: some just-over-30-min
  // queries were voted golf (neighbors dominated by the golf cluster).
  EXPECT_GT(misclassified_boundary, 0u);
  EXPECT_GT(base_fallbacks, 0u);
  EXPECT_EQ(fab.stats().escalations_dead, base_fallbacks);
}

// ----------------------------------------------------------- admission --

TEST(AdmitServedTest, DecisionsRideOnServedResponses) {
  const core::WorkloadManager wm;  // decide-only: no predictor held

  ServeResponse cheap;
  cheap.prediction.metrics.elapsed_seconds = 1.0;
  EXPECT_EQ(AdmitServed(wm, cheap).decision,
            core::AdmissionDecision::kRunImmediately);
  EXPECT_DOUBLE_EQ(AdmitServed(wm, cheap).kill_deadline_seconds,
                   core::kKillFloorSeconds);

  ServeResponse heavy;
  const double heavy_seconds = 2.0 * core::kOffPeakThresholdSeconds;
  heavy.prediction.metrics.elapsed_seconds = heavy_seconds;
  EXPECT_EQ(AdmitServed(wm, heavy).decision,
            core::AdmissionDecision::kScheduleOffPeak);
  EXPECT_DOUBLE_EQ(AdmitServed(wm, heavy).kill_deadline_seconds,
                   core::kKillMultiplier * heavy_seconds);

  ServeResponse monster;
  monster.prediction.metrics.elapsed_seconds =
      2.0 * core::kRejectThresholdSeconds;
  EXPECT_EQ(AdmitServed(wm, monster).decision,
            core::AdmissionDecision::kReject);

  // A degraded anomalous response still routes to human review: the
  // fallback keeps the anomalous flag exactly for this.
  ServeResponse anomalous;
  anomalous.source = ResponseSource::kOptimizerFallback;
  anomalous.degraded_reason = "anomalous";
  anomalous.prediction.anomalous = true;
  anomalous.prediction.metrics.elapsed_seconds = 1.0;
  EXPECT_EQ(AdmitServed(wm, anomalous).decision,
            core::AdmissionDecision::kNeedsReview);
}

}  // namespace
}  // namespace qpp::serve
