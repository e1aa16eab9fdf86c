// Extension bench — online serving throughput: queries/sec vs client
// threads and micro-batch size, against the 1-thread unbatched
// Predictor::Predict baseline.
//
// Traffic model: decision-support workloads are template-heavy, so the
// steady-state mix repeats a bounded set of distinct plans (identical
// feature vectors -> result-cache hits). A second, cache-disabled section
// isolates what micro-batching alone buys. Every distinct plan is checked
// bit-identical against the sequential predictor before any throughput is
// reported, and the fabric section bit-checks every concurrent answer
// against the offline two-step predictor.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/two_step.h"
#include "fabric/fabric.h"
#include "fault/chaos.h"
#include "golden_metrics.h"
#include "ml/feature_vector.h"
#include "obs/metrics.h"
#include "serve/prediction_service.h"

using namespace qpp;

namespace {

struct Workload {
  std::vector<serve::ServeRequest> distinct;  ///< the template pool
  size_t total_requests = 0;
  /// Request r (globally numbered) asks for distinct[r % distinct.size()].
  const serve::ServeRequest& At(size_t r) const {
    return distinct[r % distinct.size()];
  }
};

double RunService(const Workload& wl, serve::ModelRegistry* registry,
                  const serve::CostCalibration& calibration, size_t clients,
                  size_t max_batch, size_t cache_capacity,
                  size_t* degraded_out) {
  serve::ServiceConfig config;
  config.num_workers = 2;
  config.max_batch = max_batch;
  config.cache_capacity = cache_capacity;
  serve::PredictionService service(registry, config, calibration);
  const size_t per_client = wl.total_requests / clients;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<serve::ServeResponse>> futures;
      futures.reserve(per_client);
      for (size_t r = 0; r < per_client; ++r) {
        futures.push_back(service.Submit(wl.At(c * per_client + r)));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (degraded_out != nullptr) {
    *degraded_out = service.stats().fallbacks();
  }
  return static_cast<double>(per_client * clients) / wall;
}

/// Latency quantiles come from the obs log-bucketed histogram — the same
/// estimator the serving stack exports — instead of bench-local sorting.
/// Record() is wait-free, so clients feed it directly from their drain
/// loops; quantiles are bucket midpoints (see HistogramSnapshot::Quantile
/// for the documented bracket semantics).
double QuantileMs(const obs::Histogram& hist, double q) {
  return hist.Quantile(q) * 1000.0;
}

// ----------------------------------------------------------- fabric mode --

struct FabricRun {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t served = 0;          ///< responses answered by a model path
  size_t shed = 0;            ///< labeled "admission-shed" responses
  size_t slo_violations = 0;  ///< served responses over the latency SLO
  size_t mismatches = 0;      ///< wrong bits, unlabeled sheds, lost requests
};

/// Drives the workload through a fabric. `closed_loop` keeps exactly one
/// request in flight per client (the capacity-sweep regime); otherwise
/// each client submits its whole share up front (the overload regime the
/// admission comparison uses). Expert answers must bit-match the offline
/// TwoStepPredictor; escalations must bit-match its base model; sheds
/// must be labeled. Served responses over `slo_seconds` count as SLO
/// violations; sheds never do (they are the controller's alternative to
/// violating).
FabricRun RunFabric(const Workload& wl, fabric::Fabric* fab, size_t clients,
                    const std::vector<core::Prediction>& expect_expert,
                    const std::vector<core::Prediction>& expect_base,
                    double slo_seconds, bool closed_loop) {
  for (const auto& req : wl.distinct) fab->Submit(req).get();  // warmup

  const size_t per_client = wl.total_requests / clients;
  std::atomic<size_t> served{0}, shed{0}, violations{0}, mismatches{0};
  obs::Histogram latency_hist;
  const auto check = [&](size_t global_r,
                         const serve::ServeResponse& resp) {
    const size_t which = global_r % wl.distinct.size();
    if (resp.degraded()) {
      if (resp.degraded_reason == "admission-shed") {
        shed.fetch_add(1, std::memory_order_relaxed);
      } else {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    served.fetch_add(1, std::memory_order_relaxed);
    latency_hist.Record(resp.latency_seconds);
    if (resp.latency_seconds > slo_seconds) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    const auto matches = [&](const core::Prediction& want) {
      return resp.prediction.metrics.ToVector() == want.metrics.ToVector() &&
             resp.prediction.neighbor_indices == want.neighbor_indices &&
             resp.prediction.confidence == want.confidence;
    };
    if (!matches(expect_expert[which]) && !matches(expect_base[which])) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      if (closed_loop) {
        for (size_t r = 0; r < per_client; ++r) {
          const size_t global_r = c * per_client + r;
          check(global_r, fab->Submit(wl.At(global_r)).get());
        }
        return;
      }
      std::vector<std::future<serve::ServeResponse>> futures;
      futures.reserve(per_client);
      for (size_t r = 0; r < per_client; ++r) {
        futures.push_back(fab->Submit(wl.At(c * per_client + r)));
      }
      for (size_t r = 0; r < per_client; ++r) {
        check(c * per_client + r, futures[r].get());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  FabricRun run;
  run.qps = static_cast<double>(per_client * clients) / wall;
  run.p50_ms = QuantileMs(latency_hist, 0.50);
  run.p99_ms = QuantileMs(latency_hist, 0.99);
  run.served = served.load();
  run.shed = shed.load();
  run.slo_violations = violations.load();
  run.mismatches = mismatches.load();
  if (run.served + run.shed != per_client * clients) ++run.mismatches;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "ext — serving throughput (micro-batching + result cache + worker "
      "pool)",
      "the serving layer must beat one caller looping Predict(): >=3x "
      "queries/sec at 8 client threads on the steady-state template mix");

  const bench::PaperExperiment exp = bench::BuildPaperExperiment();
  core::Predictor predictor;
  predictor.Train(exp.train);

  std::vector<double> costs, elapsed;
  for (const auto& q : exp.data.pools.queries) {
    costs.push_back(q.plan.optimizer_cost);
    elapsed.push_back(q.metrics.elapsed_seconds);
  }
  const serve::CostCalibration calibration =
      serve::CostCalibration::Fit(costs, elapsed);

  serve::ModelRegistry registry;
  registry.Publish(predictor);

  // Steady-state mix: 128 distinct plans cycled over 4096 requests.
  Workload wl;
  const auto& queries = exp.data.pools.queries;
  const size_t distinct = 128;
  for (size_t i = 0; i < distinct; ++i) {
    const auto& q = queries[i * queries.size() / distinct];
    wl.distinct.push_back(
        {ml::PlanFeatureVector(q.plan), q.plan.optimizer_cost});
  }
  wl.total_requests = 4096;

  // Determinism gate: every distinct plan served == sequential Predict,
  // bit for bit (fallbacks are excluded from the identity check but must
  // be labeled).
  size_t serve_mismatches = 0;
  {
    serve::ServiceConfig config;
    serve::PredictionService service(&registry, config, calibration);
    size_t fallbacks = 0;
    for (const auto& req : wl.distinct) {
      serve::ServeResponse resp = service.Submit(req).get();
      if (resp.degraded()) {
        ++fallbacks;
        if (resp.degraded_reason.empty()) ++serve_mismatches;  // unlabeled
        continue;
      }
      const core::Prediction direct = predictor.Predict(req.features);
      if (resp.prediction.metrics.ToVector() != direct.metrics.ToVector() ||
          resp.prediction.neighbor_indices != direct.neighbor_indices ||
          resp.prediction.confidence != direct.confidence) {
        ++serve_mismatches;
      }
    }
    std::printf("determinism: %zu/%zu served bit-identical to sequential "
                "Predict (%zu labeled fallbacks)  %s\n\n",
                wl.distinct.size() - serve_mismatches - fallbacks,
                wl.distinct.size(), fallbacks,
                serve_mismatches == 0 ? "OK" : "MISMATCH");
  }

  const auto t0 = std::chrono::steady_clock::now();
  size_t done = 0;
  for (size_t r = 0; r < wl.total_requests; ++r) {
    const core::Prediction p = predictor.Predict(wl.At(r).features);
    done += p.metrics.elapsed_seconds >= 0.0 ? 1 : 0;  // keep it live
  }
  const double base_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double base_qps = static_cast<double>(done) / base_wall;
  std::printf("baseline (1 thread, unbatched, uncached Predict): %.0f "
              "queries/sec\n\n",
              base_qps);

  std::printf("service, steady-state mix (cache 4096 entries):\n");
  std::printf("%10s %10s %14s %10s\n", "clients", "batch<=", "queries/sec",
              "speedup");
  double speedup_8_16 = 0.0;
  for (const size_t clients : {1, 2, 4, 8}) {
    for (const size_t batch : {1, 16}) {
      const double qps = RunService(wl, &registry, calibration, clients,
                                    batch, 4096, nullptr);
      const double speedup = qps / base_qps;
      if (clients == 8 && batch == 16) speedup_8_16 = speedup;
      std::printf("%10zu %10zu %14.0f %9.2fx\n", clients, batch, qps,
                  speedup);
    }
  }

  std::printf("\nservice, cache disabled (isolates micro-batching):\n");
  std::printf("%10s %10s %14s %10s\n", "clients", "batch<=", "queries/sec",
              "speedup");
  for (const size_t clients : {1, 8}) {
    for (const size_t batch : {1, 16}) {
      const double qps = RunService(wl, &registry, calibration, clients,
                                    batch, 0, nullptr);
      std::printf("%10zu %10zu %14.0f %9.2fx\n", clients, batch, qps,
                  qps / base_qps);
    }
  }

  std::printf("\n8 clients, batch<=16, steady-state mix: %.2fx vs 1-thread "
              "unbatched baseline (target >=3x: %s)\n",
              speedup_8_16, speedup_8_16 >= 3.0 ? "PASS" : "FAIL");

  // --- fabric mode: replica groups + prediction-aware admission control.
  // Two questions: (1) capacity — the highest sustained closed-loop
  // queries/sec whose p99 stays inside a fixed latency SLO (the SLO is
  // derived from this machine's 1-client p50, so the number is comparable
  // in spirit, not in absolute value, across machines); (2) overload —
  // with every client's share submitted up front, does admission control
  // (shed wrecking balls while breached) cut SLO violations vs the same
  // fabric with admission off? Sheds are labeled, never silent; every
  // expert answer is bit-checked against the offline TwoStepPredictor and
  // every escalated one against its base model.
  core::TwoStepPredictor two_step;
  two_step.Train(exp.train);

  std::vector<core::Prediction> expected_two_step, expected_base;
  for (const auto& req : wl.distinct) {
    expected_two_step.push_back(two_step.Predict(req.features));
    expected_base.push_back(two_step.base().Predict(req.features));
  }

  std::printf("\nfabric mode: replica groups (fabric::Fabric, 2 replicas "
              "per group) + admission control\n");

  serve::ServiceConfig fabric_service;
  fabric_service.num_workers = 1;  // 2 replicas/group: 10 workers total
  fabric_service.max_batch = 16;
  fabric_service.cache_capacity = 0;
  fabric_service.fallback_on_anomalous = false;
  fabric_service.queue_capacity = wl.total_requests + wl.distinct.size();

  const auto make_fabric = [&](const core::TwoStepPredictor& ts,
                               bool admission) {
    fabric::FabricConfig config =
        fabric::MakePerPoolFabricConfig(2, fabric_service);
    if (admission) {
      config.admission.enabled = true;
      config.admission.max_queue_depth = 64;
      config.admission.p99_slo_seconds = 1e9;  // depth-triggered only
      // Deferral needs a steady trickle of admitted submits to piggyback
      // on; the burst regime has none, so bowling balls stay admitted.
      config.admission.defer_bowling = false;
    }
    auto fab = std::make_unique<fabric::Fabric>(std::move(config),
                                                calibration);
    fabric::PublishTwoStep(ts, fab.get());
    return fab;
  };

  // Capacity sweep: one in-flight request per client; SLO = 5x the
  // 1-client median so it tracks this machine's per-predict latency.
  std::printf("\ncapacity sweep (closed loop, SLO = 5x 1-client p50):\n");
  std::printf("%10s %14s %9s %9s %12s\n", "clients", "queries/sec", "p50 ms",
              "p99 ms", "within SLO");
  double slo_seconds = 0.0;
  double capacity_qps = 0.0;
  size_t fabric_mismatches = 0;
  {
    const auto fab = make_fabric(two_step, /*admission=*/false);
    for (const size_t clients : {1, 2, 4, 8}) {
      const FabricRun run =
          RunFabric(wl, fab.get(), clients, expected_two_step, expected_base,
                    slo_seconds > 0.0 ? slo_seconds : 1e9,
                    /*closed_loop=*/true);
      if (slo_seconds == 0.0) slo_seconds = 5.0 * run.p50_ms / 1000.0;
      const bool within = run.p99_ms / 1000.0 <= slo_seconds;
      if (within) capacity_qps = std::max(capacity_qps, run.qps);
      std::printf("%10zu %14.0f %9.2f %9.2f %12s\n", clients, run.qps,
                  run.p50_ms, run.p99_ms, within ? "yes" : "no");
      fabric_mismatches += run.mismatches;
    }
    fab->Shutdown();
  }
  std::printf("capacity: %.0f queries/sec at p99 <= %.2f ms\n", capacity_qps,
              slo_seconds * 1000.0);

  // Overload: the whole workload submitted up front, on a four-pool mix
  // (the paper workload trains no wrecking-ball expert, so its classifier
  // never predicts one — see fault::PoolExamples). Admission-off serves
  // everything late; admission-on sheds the wrecking balls it predicts
  // (step-1) while the queues are deep, so fewer served responses breach
  // the SLO.
  core::PredictorConfig heavy_cfg;
  heavy_cfg.kcca.solver = ml::KccaSolver::kExact;
  core::TwoStepPredictor heavy_ts(heavy_cfg);
  const auto heavy_examples = fault::PoolExamples(4, 40, 0xFAB5E4BEull);
  heavy_ts.Train(heavy_examples);

  Workload heavy_wl;
  heavy_wl.total_requests = wl.total_requests;
  std::vector<core::Prediction> expect_heavy, expect_heavy_base;
  for (const auto& ex : heavy_examples) {
    heavy_wl.distinct.push_back(
        {ex.query_features, ex.metrics.elapsed_seconds});
    expect_heavy.push_back(heavy_ts.Predict(ex.query_features));
    expect_heavy_base.push_back(heavy_ts.base().Predict(ex.query_features));
  }

  const auto off_fab = make_fabric(heavy_ts, /*admission=*/false);
  const FabricRun off_run =
      RunFabric(heavy_wl, off_fab.get(), 8, expect_heavy, expect_heavy_base,
                slo_seconds, /*closed_loop=*/false);
  off_fab->Shutdown();
  const auto on_fab = make_fabric(heavy_ts, /*admission=*/true);
  const FabricRun on_run =
      RunFabric(heavy_wl, on_fab.get(), 8, expect_heavy, expect_heavy_base,
                slo_seconds, /*closed_loop=*/false);
  const fabric::FabricStatsSnapshot on_stats = on_fab->stats();
  const uint64_t on_breaches = on_stats.slo_breaches;
  on_fab->Shutdown();
  fabric_mismatches += off_run.mismatches + on_run.mismatches;

  std::printf("\noverload (8 clients, full burst, four-pool mix, "
              "SLO %.2f ms):\n",
              slo_seconds * 1000.0);
  std::printf("%14s %10s %8s %14s\n", "admission", "served", "shed",
              "SLO violations");
  std::printf("%14s %10zu %8zu %14zu\n", "off", off_run.served, off_run.shed,
              off_run.slo_violations);
  std::printf("%14s %10zu %8zu %14zu  (breached decisions: %llu)\n", "on",
              on_run.served, on_run.shed, on_run.slo_violations,
              static_cast<unsigned long long>(on_breaches));
  std::printf("pool mix (admission-on first-choice routing):");
  for (const auto& group : on_stats.groups) {
    std::printf(" %s=%llu", group.name.c_str(),
                static_cast<unsigned long long>(group.routed));
  }
  std::printf("\n");
  const bool admission_helps =
      on_run.slo_violations <= off_run.slo_violations;
  std::printf("admission-on violations <= admission-off: %s; fabric "
              "bit-identity mismatches: %zu\n",
              admission_helps ? "PASS" : "FAIL", fabric_mismatches);

  // CI artifact (NOT a golden file: throughput and latency are machine-
  // dependent; only the mismatch counters are deterministic. The pinned
  // fabric counters live in tests/golden/fabric.json via the soak).
  bench::MaybeWriteGolden(
      argc, argv,
      {{"serve_baseline_qps", base_qps},
       {"serve_speedup_8clients_batch16", speedup_8_16},
       {"serve_bit_identity_mismatches", double(serve_mismatches)},
       {"fabric_capacity_qps", capacity_qps},
       {"fabric_capacity_slo_ms", slo_seconds * 1000.0},
       {"fabric_admission_off_slo_violations",
        double(off_run.slo_violations)},
       {"fabric_admission_on_slo_violations", double(on_run.slo_violations)},
       {"fabric_admission_shed", double(on_run.shed)},
       {"fabric_bit_identity_mismatches", double(fabric_mismatches)}});

  const bool pass = speedup_8_16 >= 3.0 && serve_mismatches == 0 &&
                    admission_helps && fabric_mismatches == 0 &&
                    capacity_qps > 0.0;
  return pass ? 0 : 1;
}
