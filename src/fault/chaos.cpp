#include "fault/chaos.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/tpcds.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/predictor.h"
#include "core/two_step.h"
#include "engine/simulator.h"
#include "fabric/fabric.h"
#include "fault/fault_injector.h"
#include "lifecycle/lifecycle.h"
#include "obs/drift_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/request_context.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "serve/prediction_service.h"
#include "workload/generator.h"
#include "workload/tpcds_templates.h"

namespace qpp::fault {
namespace {

// ------------------------------------------------------------ utilities --

/// Violation collector with printf ergonomics.
class Violations {
 public:
  explicit Violations(ScenarioResult* result) : result_(result) {}

  void Check(bool ok, const std::string& message) {
    if (!ok) result_->violations.push_back(message);
  }

 private:
  ScenarioResult* result_;
};

/// All fault kinds, for the report's fault digest.
const char* kAllKinds[] = {
    "disk_stall",      "message_loss",  "node_slowdown", "node_failure",
    "buffer_pressure", "submit_reject", "worker_stall",  "registry_swap",
    "replica_kill",    "replica_stall", "model_poison",
};

std::string FaultDigest(const FaultInjector& injector) {
  std::string out = "injected faults:\n";
  for (const char* kind : kAllKinds) {
    out += StrFormat("  %-16s %llu\n", kind,
                     static_cast<unsigned long long>(injector.injected(kind)));
  }
  return out;
}

/// The deterministic subset of the serve counters (everything except
/// wall-clock latency, which can never be replay-stable).
std::string ServeCounters(const serve::ServiceStatsSnapshot& s) {
  return StrFormat(
      "serve counters:\n"
      "  requests          %llu\n"
      "  cache_hits        %llu\n"
      "  model_predictions %llu\n"
      "  fb_no_model       %llu\n"
      "  fb_anomalous      %llu\n"
      "  fb_deadline       %llu\n"
      "  fb_shutdown       %llu\n"
      "  fb_overload       %llu\n"
      "  fb_circuit_open   %llu\n"
      "  rejected          %llu\n",
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.model_predictions),
      static_cast<unsigned long long>(s.fallback_no_model),
      static_cast<unsigned long long>(s.fallback_anomalous),
      static_cast<unsigned long long>(s.fallback_deadline),
      static_cast<unsigned long long>(s.fallback_shutdown),
      static_cast<unsigned long long>(s.fallback_overload),
      static_cast<unsigned long long>(s.fallback_circuit_open),
      static_cast<unsigned long long>(s.rejected));
}

/// The serving accounting identity: every delivered response was answered
/// by exactly one of cache / model / fallback.
void CheckAccounting(const serve::ServiceStatsSnapshot& s, Violations* v) {
  v->Check(s.cache_hits + s.model_predictions + s.fallbacks() == s.requests,
           StrFormat("accounting identity broken: cache %llu + model %llu + "
                     "fallbacks %llu != requests %llu",
                     static_cast<unsigned long long>(s.cache_hits),
                     static_cast<unsigned long long>(s.model_predictions),
                     static_cast<unsigned long long>(s.fallbacks()),
                     static_cast<unsigned long long>(s.requests)));
}

core::PredictorConfig ExactSolver() {
  core::PredictorConfig cfg;
  cfg.kcca.solver = ml::KccaSolver::kExact;
  return cfg;
}

engine::QueryMetrics ScaleMetrics(const engine::QueryMetrics& m,
                                  double factor) {
  return engine::QueryMetrics::FromVector(
      linalg::ScaleVec(m.ToVector(), factor));
}

/// An exact-solver model on `n` ServeExamples rows, every metric scaled by
/// `metric_scale`.
std::shared_ptr<const core::Predictor> TrainModel(uint64_t seed,
                                                  size_t n = 64,
                                                  double metric_scale = 1.0) {
  auto examples = ServeExamples(n, seed);
  for (auto& ex : examples) {
    ex.metrics = ScaleMetrics(ex.metrics, metric_scale);
  }
  auto pred = std::make_shared<core::Predictor>(ExactSolver());
  pred->Train(examples);
  return pred;
}

/// In-distribution probe vectors (anomaly policy must not fire on them).
std::vector<linalg::Vector> MakeProbes(size_t n, uint64_t seed) {
  std::vector<linalg::Vector> out;
  out.reserve(n);
  for (const auto& ex : ServeExamples(n, seed)) {
    out.push_back(ex.query_features);
  }
  return out;
}

serve::CostCalibration ChaosCalibration() {
  serve::CostCalibration cal;
  cal.slope = 1.0;
  cal.intercept = -2.0;
  cal.fitted = true;
  return cal;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

bool BitIdentical(const core::Prediction& a, const core::Prediction& b) {
  return a.metrics.ToVector() == b.metrics.ToVector() &&
         a.mean_neighbor_distance == b.mean_neighbor_distance &&
         a.confidence == b.confidence && a.anomalous == b.anomalous &&
         a.neighbor_indices == b.neighbor_indices;
}

// ------------------------------------------------------------ serve rig --

/// The rig every serve run shares: the run's FaultInjector and a model
/// registry. A run publishes and hooks what it needs, takes a
/// PredictionService from Serve, drives it, and closes with Finish.
struct ServeRig {
  explicit ServeRig(const FaultPlan& plan) : injector(plan, &fault_metrics) {}

  /// A service over the rig's registry and injector on ChaosCalibration.
  serve::PredictionService Serve(serve::ServiceConfig config) {
    config.faults = &injector;
    return serve::PredictionService(&registry, config, ChaosCalibration());
  }

  /// Shuts `service` down, checks the accounting identity on its final
  /// stats, and opens the report with the fault digest and the
  /// deterministic serve counters.
  serve::ServiceStatsSnapshot Finish(serve::PredictionService* service,
                                     ScenarioResult* result) const {
    service->Shutdown();
    const serve::ServiceStatsSnapshot stats = service->stats();
    Violations v(result);
    CheckAccounting(stats, &v);
    result->report = FaultDigest(injector) + ServeCounters(stats);
    return stats;
  }

  obs::MetricsRegistry fault_metrics;
  FaultInjector injector;
  serve::ModelRegistry registry;
};

// ----------------------------------------------------------- fabric rig --

/// The fabric every fabric run starts from: one group per pool plus the
/// catch-all, `replicas` each, keyed P2C draws. Every replica runs one
/// worker at batch size 1, so sequential driving fixes every batch — and
/// with it every per-batch stall draw — even where deferred dispatches
/// briefly overlap the request in flight. `faults` (null for none) arm
/// the replica kill and stalls; only then is there a queue deadline, far
/// below the injected stalls, to turn each into a labeled fallback.
fabric::FabricConfig RigFabricConfig(size_t replicas, size_t cache_capacity,
                                     FaultInjector* faults, uint64_t seed) {
  serve::ServiceConfig service;
  service.num_workers = 1;
  service.max_batch = 1;
  service.cache_capacity = cache_capacity;
  if (faults != nullptr) service.queue_deadline_seconds = 5.0;
  service.fallback_on_anomalous = false;  // bit-compare healthy paths
  fabric::FabricConfig config =
      fabric::MakePerPoolFabricConfig(replicas, service);
  config.faults = faults;  // the fabric applies the plan's replica kill
  config.p2c_seed = SplitMix64(seed ^ 0xFAB51Cull);
  return config;
}

/// The rig every fabric run shares: an exact-solver two-step model trained
/// on PoolExamples(pools, 40, train_seed) and published on a fabric built
/// from `config`, and `probes_per_pool` probes per pool (probe j is
/// example j / pools of pool j % pools). Each probe carries the step-1
/// model's own verdict, so expectations hold wherever a neighbor vote
/// lands, and both its oracles — expert and catch-all — computed once: a
/// 1M-request run cannot afford a Predict per response.
class FabricRig {
 public:
  FabricRig(fabric::FabricConfig config, size_t pools, size_t probes_per_pool,
            uint64_t train_seed, ScenarioResult* result)
      : faults(config.faults),
        two_step(ExactSolver()),
        fab(std::move(config), ChaosCalibration()) {
    Violations v(result);
    const auto examples = PoolExamples(pools, 40, train_seed);
    two_step.Train(examples);
    for (size_t p = 0; p < pools; ++p) {
      const workload::QueryType type = workload::kQueryTypes[p];
      v.Check(two_step.HasCategoryModel(type),
              std::string("no expert trained for pool ") +
                  workload::QueryTypeName(type));
    }
    fabric::PublishTwoStep(two_step, &fab);
    catch_prefix = fab.catch_all_name() + "#";

    bool pool_covered[workload::kNumQueryTypes] = {};
    for (size_t j = 0; j < pools * probes_per_pool; ++j) {
      probes.push_back(examples[(j % pools) * 40 + j / pools].query_features);
      const workload::QueryType verdict =
          two_step.base().Classify(probes.back());
      probe_pool.push_back(verdict);
      probe_prefix.push_back(std::string(workload::QueryTypeName(verdict)) +
                             "#");
      pool_covered[workload::QueryTypeIndex(verdict)] = true;
      expect_expert.push_back(two_step.Predict(probes.back()));
      expect_base.push_back(two_step.base().Predict(probes.back()));
    }
    for (size_t p = 0; p < pools; ++p) {
      v.Check(pool_covered[p],
              std::string("probe mix never classifies into pool ") +
                  workload::QueryTypeName(workload::kQueryTypes[p]));
    }
  }

  /// Whether request i falls in an overload wave — every fourth block of
  /// `wave_len` requests, keyed by index alone so admission replays — with
  /// the fabric's virtual load signal set to match at each wave edge.
  bool Overloaded(size_t i, size_t wave_len) {
    const bool over = (i / wave_len) % 4 == 3;
    if (i == 0 || over != overloaded_) {
      fab.admission()->SetVirtualLoad(over ? fabric::LoadSignal{4096, 1.0}
                                           : fabric::LoadSignal{0, 0.0});
    }
    overloaded_ = over;
    return over;
  }

  /// Sorts the answer to probe j. From its classified group, a
  /// degradation may only be the target replica's labeled deadline; from
  /// the catch-all, only the killing pick may have escalated; anything
  /// else is misrouted. Every healthy answer must bit-match its oracle.
  void CheckResponse(const serve::ServeResponse& resp, size_t j) {
    if (resp.shard.rfind(probe_prefix[j], 0) == 0) {
      if (resp.degraded()) {
        if (resp.degraded_reason == "deadline" &&
            resp.shard == faults->plan().serve.target_replica_label) {
          ++deadline_seen;  // the targeted stall, surfaced and labeled
        } else {
          ++unexpected;
        }
      } else if (!BitIdentical(resp.prediction, expect_expert[j])) {
        ++mismatches;
      }
    } else if (resp.shard.rfind(catch_prefix, 0) == 0) {
      ++absorbed;
      if (resp.degraded()) {
        ++unexpected;
      } else if (!BitIdentical(resp.prediction, expect_base[j])) {
        ++mismatches;
      }
    } else {
      ++misrouted;
    }
  }

  /// The checks a run that stalls and then kills the target replica ends
  /// with, after `requests` submits and `drain_ops` drain-swap-revives.
  /// The group absorbs both: exactly one request escalates (the killing
  /// pick itself, since the group has live peers), every stall surfaces
  /// as one labeled deadline fallback on the target alone, the target is
  /// dead and unpublished, every replica of a probed group took picks, and
  /// no request is lost. Returns the final stats for the run's own checks.
  fabric::FabricStatsSnapshot CheckFaultedRun(size_t requests,
                                              uint64_t drain_ops,
                                              ScenarioResult* result) {
    Violations v(result);
    const std::string& target = faults->plan().serve.target_replica_label;
    v.Check(misrouted == 0,
            StrFormat("%llu responses from outside the classified group",
                      static_cast<unsigned long long>(misrouted)));
    v.Check(mismatches == 0,
            StrFormat("%llu responses did not bit-match their expert",
                      static_cast<unsigned long long>(mismatches)));
    v.Check(unexpected == 0,
            StrFormat("%llu degradations outside the injected faults",
                      static_cast<unsigned long long>(unexpected)));
    v.Check(faults->injected("replica_kill") == 1,
            "the replica kill must fire exactly once");
    v.Check(absorbed == 1,
            StrFormat("catch-all absorbed %llu requests; only the killing "
                      "pick may escalate (the group has live peers)",
                      static_cast<unsigned long long>(absorbed)));
    v.Check(faults->injected("replica_stall") == deadline_seen,
            StrFormat("deadline fallbacks %llu != injected replica stalls "
                      "%llu (batch size 1 must map 1:1)",
                      static_cast<unsigned long long>(deadline_seen),
                      static_cast<unsigned long long>(
                          faults->injected("replica_stall"))));
    v.Check(deadline_seen > 0, "target replica never stalled before the kill");

    const fabric::FabricStatsSnapshot stats = fab.stats();
    v.Check(stats.drains == drain_ops,
            "drains counter != drain-swap-revive operations");
    v.Check(stats.escalations_dead == absorbed,
            "dead-escalation count != client-observed absorbed requests");
    v.Check(stats.escalations_open == 0 &&
                stats.escalations_overloaded == 0 &&
                stats.fallback_exhausted == 0,
            "ladder rungs below 'dead' fired under sequential driving");
    v.Check(stats.classified == probes.size(),
            "classifier calls != distinct probes (route cache broken)");
    v.Check(stats.classified + stats.route_cache_hits ==
                requests + stats.defer_drained,
            "every submit and every defer dispatch must classify exactly "
            "once");
    uint64_t served = 0;
    for (const auto& g : stats.groups) {
      const bool probed = std::find(probe_prefix.begin(), probe_prefix.end(),
                                    g.name + "#") != probe_prefix.end();
      for (size_t i = 0; i < g.replicas.size(); ++i) {
        const fabric::FabricStatsSnapshot::PerReplica& r = g.replicas[i];
        CheckAccounting(r.service, &v);
        served += r.service.requests;
        if (r.label == target) {
          v.Check(r.health == fabric::ReplicaHealth::kDead,
                  "killed replica is not marked dead");
          v.Check(!fab.registry(g.name, i)->has_model(),
                  "killed replica still has a model");
          v.Check(r.generation == 1,
                  "kill must retain the generation counter, not reset it");
          v.Check(r.service.fallback_deadline == deadline_seen,
                  "target deadline fallbacks != client-observed stalls");
        } else {
          v.Check(r.service.fallbacks() == 0,
                  "a non-target replica degraded (containment broken): " +
                      r.label);
        }
        if (probed) {
          v.Check(r.picks > 0, "a replica never took a pick: " + r.label);
        }
      }
    }
    v.Check(served + stats.shed == requests,
            "a request was lost on the ladder");
    return stats;
  }

  const FaultInjector* faults;
  core::TwoStepPredictor two_step;
  fabric::Fabric fab;
  std::string catch_prefix;
  std::vector<linalg::Vector> probes;
  std::vector<workload::QueryType> probe_pool;
  std::vector<std::string> probe_prefix;
  std::vector<core::Prediction> expect_expert, expect_base;
  uint64_t deadline_seen = 0, absorbed = 0, mismatches = 0, misrouted = 0,
           unexpected = 0;

 private:
  bool overloaded_ = false;
};

// ----------------------------------------------------------------- runs --

/// node-death: engine faults under the simulator. Determinism (two
/// injectors with the same plan produce bit-identical metrics), clean-run
/// bit-identity (a disabled injector changes nothing), and the
/// faults-only-slow-queries contract on elapsed time.
void RunNodeDeath(const FaultPlan& plan, const ChaosOptions& opts,
                  ScenarioResult* result) {
  Violations v(result);

  const catalog::Catalog catalog = catalog::MakeTpcdsCatalog(1.0);
  optimizer::OptimizerOptions oopts;
  oopts.nodes_used = 8;
  const optimizer::Optimizer opt(&catalog, oopts);
  const engine::ExecutionSimulator sim(&catalog,
                                       engine::SystemConfig::Neoview32(8));

  const FaultInjector faulted_a(plan);
  const FaultInjector faulted_b(plan);   // same plan, fresh injector
  const FaultInjector disabled({});      // enabled() == false

  const auto queries = workload::GenerateWorkload(
      workload::TpcdsTemplates(), opts.queries, opts.seed);
  double clean_sum = 0.0, faulted_sum = 0.0;
  linalg::Vector metric_sums(engine::QueryMetrics::kNumMetrics, 0.0);
  size_t simulated = 0;
  for (const auto& q : queries) {
    const auto planned = opt.Plan(q.sql);
    if (!planned.ok()) continue;  // template bugs are other tests' business
    const optimizer::PhysicalPlan& p = planned.value();
    ++simulated;

    const engine::QueryMetrics clean = sim.Execute(p);
    const engine::QueryMetrics off = sim.Execute(p, nullptr, &disabled);
    const engine::QueryMetrics fa = sim.Execute(p, nullptr, &faulted_a);
    const engine::QueryMetrics fb = sim.Execute(p, nullptr, &faulted_b);

    v.Check(off.ToVector() == clean.ToVector() &&
                off.cpu_seconds == clean.cpu_seconds,
            "disabled injector is not bit-identical to a null injector: " +
                q.template_name);
    v.Check(fa.ToVector() == fb.ToVector() &&
                fa.cpu_seconds == fb.cpu_seconds,
            "same plan, two injectors, different metrics (determinism "
            "broken): " +
                q.template_name);
    v.Check(fa.elapsed_seconds >= clean.elapsed_seconds - 1e-12,
            StrFormat("fault made a query FASTER: %s clean %.17g faulted "
                      "%.17g",
                      q.template_name.c_str(), clean.elapsed_seconds,
                      fa.elapsed_seconds));
    clean_sum += clean.elapsed_seconds;
    faulted_sum += fa.elapsed_seconds;
    metric_sums = linalg::AddVec(metric_sums, fa.ToVector());
  }
  v.Check(simulated > 0, "no queries simulated");
  v.Check(faulted_a.injected("node_failure") > 0,
          "scenario injected zero node failures");
  v.Check(faulted_sum > clean_sum,
          "fault schedule had no aggregate elapsed-time effect");

  result->report = FaultDigest(faulted_a);
  result->report += StrFormat("queries simulated:  %llu\n",
                              static_cast<unsigned long long>(simulated));
  result->report +=
      StrFormat("clean elapsed sum:   %.17g\n", clean_sum) +
      StrFormat("faulted elapsed sum: %.17g\n", faulted_sum);
  result->report += "faulted metric sums:\n";
  const auto names = engine::QueryMetrics::MetricNames();
  for (size_t m = 0; m < names.size(); ++m) {
    result->report +=
        StrFormat("  %-18s %.17g\n", names[m].c_str(), metric_sums[m]);
  }
}

/// fallback-storm: worker stalls blow the queue deadline; late requests
/// take the labeled deadline fallback, the breaker trips to circuit-open
/// and recovers through half-open probes, and the drift monitor fires on
/// the degradation the storm causes.
void RunFallbackStorm(const FaultPlan& plan, const ChaosOptions& opts,
                      ScenarioResult* result) {
  Violations v(result);
  ServeRig rig(plan);
  rig.registry.Publish(TrainModel(opts.seed ^ 0x5EEDull));

  serve::ServiceConfig config;
  config.num_workers = 1;          // sequential driving => batch size 1
  config.cache_capacity = 0;       // every answer is model or fallback
  config.queue_deadline_seconds = 5.0;  // >> real waits, << injected stall
  config.breaker.enabled = true;
  config.breaker.window = 16;
  config.breaker.min_samples = 8;
  config.breaker.trip_ratio = 0.5;
  config.breaker.open_requests = 6;
  serve::PredictionService service = rig.Serve(config);

  obs::DriftMonitor drift(service.metrics());
  uint64_t drift_signals = 0;

  const auto probes = MakeProbes(opts.requests, opts.seed ^ 0xD81F7ull);
  for (size_t i = 0; i < opts.requests; ++i) {
    const serve::ServeResponse resp =
        service.Submit({probes[i], 100.0}).get();
    // Score the response against "observed" metrics 3x off — a stand-in
    // actual that guarantees large relative error, so the monitor must
    // notice once warm.
    const engine::QueryMetrics actual =
        ScaleMetrics(resp.prediction.metrics, 3.0);
    const auto source = resp.degraded()
                            ? obs::DriftMonitor::Source::kFallback
                            : obs::DriftMonitor::Source::kModel;
    if (drift.Observe(source, resp.prediction.metrics, actual)) {
      ++drift_signals;
    }
    if (resp.degraded()) {
      v.Check(!resp.degraded_reason.empty(),
              "degraded response with empty reason");
    }
  }
  const serve::ServiceStatsSnapshot stats = rig.Finish(&service, result);

  v.Check(stats.requests == opts.requests,
          "not every submitted request was answered");
  v.Check(stats.fallback_deadline == rig.injector.injected("worker_stall"),
          StrFormat("deadline fallbacks %llu != injected stalls %llu (batch "
                    "size 1 must map 1:1)",
                    static_cast<unsigned long long>(stats.fallback_deadline),
                    static_cast<unsigned long long>(
                        rig.injector.injected("worker_stall"))));
  v.Check(stats.fallback_deadline > 0, "storm injected no deadline misses");
  v.Check(service.breaker().trips() >= 1, "breaker never tripped");
  v.Check(stats.fallback_circuit_open > 0,
          "open circuit short-circuited no requests");
  v.Check(stats.model_predictions > 0,
          "no model answers at all — breaker never recovered");
  v.Check(drift_signals >= 1, "drift monitor never fired under the storm");

  result->report += StrFormat(
      "breaker trips:      %llu\ndrift signals:      %llu\n",
      static_cast<unsigned long long>(service.breaker().trips()),
      static_cast<unsigned long long>(drift_signals));
}

/// hot-swap: the registry-swap fault fires right after a worker acquired
/// its model snapshot. Every response must still bit-match the Predict of
/// the generation it reports, and the generation-tagged cache must never
/// serve a retired model's bits.
void RunHotSwap(const FaultPlan& plan, const ChaosOptions& opts,
                ScenarioResult* result) {
  Violations v(result);
  const auto model_a = TrainModel(opts.seed ^ 0xA0Aull);
  const auto model_b = TrainModel(opts.seed ^ 0xB0Bull);

  // published[g - 1] is the model that generation g serves.
  std::mutex published_mu;
  std::vector<std::shared_ptr<const core::Predictor>> published;
  ServeRig rig(plan);
  {
    std::lock_guard<std::mutex> lock(published_mu);
    rig.registry.Publish(model_a);
    published.push_back(model_a);
  }
  rig.injector.set_registry_swap_hook([&] {
    // Fires on the worker thread, mid-batch, after the snapshot acquire.
    std::lock_guard<std::mutex> lock(published_mu);
    const auto& next = published.size() % 2 == 1 ? model_b : model_a;
    rig.registry.Publish(next);
    published.push_back(next);
  });

  serve::ServiceConfig config;
  config.num_workers = 1;
  config.cache_capacity = 64;
  serve::PredictionService service = rig.Serve(config);

  const auto probes = MakeProbes(8, opts.seed ^ 0x7AB5ull);
  size_t mismatches = 0;
  for (size_t i = 0; i < opts.requests; ++i) {
    // Consecutive pairs reuse a probe: the second of each pair is a cache
    // hit unless a swap landed between them, so the cache-hit invariant
    // below holds for any seed, not just swap-sparse ones.
    const linalg::Vector& probe = probes[(i / 2) % probes.size()];
    const serve::ServeResponse resp = service.Submit({probe, 100.0}).get();
    if (resp.degraded()) {
      // The anomaly policy is orthogonal to swaps; any other degradation
      // here means the swap broke serving.
      v.Check(resp.degraded_reason == "anomalous",
              "hot-swap degraded a response: " + resp.degraded_reason);
      continue;
    }
    std::shared_ptr<const core::Predictor> truth;
    {
      std::lock_guard<std::mutex> lock(published_mu);
      if (resp.model_generation >= 1 &&
          resp.model_generation <= published.size()) {
        truth = published[resp.model_generation - 1];
      }
    }
    if (truth == nullptr) {
      v.Check(false,
              StrFormat("response reports unpublished generation %llu",
                        static_cast<unsigned long long>(
                            resp.model_generation)));
      continue;
    }
    if (!BitIdentical(resp.prediction, truth->Predict(probe))) ++mismatches;
  }
  const serve::ServiceStatsSnapshot stats = rig.Finish(&service, result);

  v.Check(mismatches == 0,
          StrFormat("%llu responses did not bit-match their reported "
                    "generation's Predict (stale cache or blended swap)",
                    static_cast<unsigned long long>(mismatches)));
  v.Check(rig.injector.injected("registry_swap") > 0,
          "scenario injected zero registry swaps");
  v.Check(rig.registry.generation() ==
              1 + rig.injector.injected("registry_swap"),
          "registry generation does not add up with the injected swaps");
  v.Check(stats.cache_hits > 0, "cache never hit despite repeated probes");

  result->report += StrFormat(
      "final generation:   %llu\n",
      static_cast<unsigned long long>(rig.registry.generation()));
}

/// backpressure: submit-reject storms against SubmitWithRetry. No broken
/// futures, exhausted retries degrade to the labeled overload fallback,
/// and the accounting identity holds exactly.
void RunBackpressure(const FaultPlan& plan, const ChaosOptions& opts,
                     ScenarioResult* result) {
  Violations v(result);
  ServeRig rig(plan);
  rig.registry.Publish(TrainModel(opts.seed ^ 0xBACC5ull));

  serve::ServiceConfig config;
  config.num_workers = 1;
  config.cache_capacity = 0;
  serve::PredictionService service = rig.Serve(config);

  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0;  // retries are the point, not waits

  const auto probes = MakeProbes(opts.requests, opts.seed ^ 0xF00Dull);
  size_t overload = 0, answered = 0, broken = 0;
  for (size_t i = 0; i < opts.requests; ++i) {
    std::future<serve::ServeResponse> future =
        service.SubmitWithRetry({probes[i], 100.0}, policy);
    try {
      const serve::ServeResponse resp = future.get();
      ++answered;
      if (resp.degraded()) {
        v.Check(resp.degraded_reason == "overload" ||
                    resp.degraded_reason == "anomalous",
                "unexpected degradation reason under backpressure: " +
                    resp.degraded_reason);
        if (resp.degraded_reason == "overload") ++overload;
      }
    } catch (const std::future_error&) {
      ++broken;
    }
  }
  const serve::ServiceStatsSnapshot stats = rig.Finish(&service, result);

  v.Check(broken == 0, StrFormat("%llu broken futures",
                                 static_cast<unsigned long long>(broken)));
  v.Check(answered == opts.requests, "a request went unanswered");
  v.Check(stats.requests == opts.requests,
          "responses delivered != requests driven");
  v.Check(stats.rejected == rig.injector.injected("submit_reject"),
          "rejected counter != injected submit rejects (queue cannot really "
          "fill under sequential driving)");
  v.Check(stats.fallback_overload == overload,
          "overload counter disagrees with client-observed overloads");
  v.Check(overload > 0, "storm never exhausted a retry budget");
  v.Check(stats.model_predictions > 0, "nothing got through the storm");
}

/// rolling-drain: replica-level faults under a Fabric. One replica of the
/// feather group is stalled probabilistically and then killed on a
/// counted pick, while the golf group is drain-swap-revived one replica
/// at a time; the fabric rig's faulted-run checks hold throughout.
void RunRollingDrain(const FaultPlan& plan, const ChaosOptions& opts,
                     ScenarioResult* result) {
  Violations v(result);
  FaultInjector injector(plan);
  FabricRig rig(RigFabricConfig(3, /*cache_capacity=*/0, &injector, opts.seed),
                /*pools=*/3, /*probes_per_pool=*/3, opts.seed ^ 0x0D3A1ull,
                result);

  const std::string golf_group =
      workload::QueryTypeName(workload::QueryType::kGolfBall);
  const auto golf_model = std::make_shared<const core::Predictor>(
      *rig.two_step.CategoryModel(workload::QueryType::kGolfBall));

  uint64_t drain_ops = 0;
  for (size_t i = 0; i < opts.requests; ++i) {
    // Roll the golf group: drain-swap-revive replica r at the r-th quarter.
    if (i > 0 && opts.requests >= 8 && i % (opts.requests / 4) == 0) {
      const size_t r = i / (opts.requests / 4) - 1;
      if (r < 3) {
        v.Check(rig.fab.DrainSwapRevive(golf_group, r, golf_model),
                StrFormat("drain-swap-revive of replica %llu failed",
                          static_cast<unsigned long long>(r)));
        ++drain_ops;
      }
    }
    const size_t j = i % rig.probes.size();
    rig.CheckResponse(rig.fab.Submit({rig.probes[j], 100.0}).get(), j);
  }
  rig.fab.Shutdown();

  const fabric::FabricStatsSnapshot stats =
      rig.CheckFaultedRun(opts.requests, drain_ops, result);
  for (size_t r = 0; r < drain_ops; ++r) {
    v.Check(rig.fab.registry(golf_group, r)->generation() == 2,
            "drained replica did not take the republished model");
    v.Check(rig.fab.health(golf_group, r) == fabric::ReplicaHealth::kUp,
            "drained replica was not revived");
  }
  v.Check(stats.shed == 0 && stats.deferred == 0,
          "admission acted while disabled");

  result->report = FaultDigest(injector);
  result->report += stats.ToString();
  result->report += StrFormat(
      "rolling drains:     %llu (stalled %llu, absorbed %llu)\n",
      static_cast<unsigned long long>(drain_ops),
      static_cast<unsigned long long>(rig.deadline_seen),
      static_cast<unsigned long long>(rig.absorbed));
}

/// model-lifecycle: the closed loop under the model_poison fault. A weak
/// champion serves a live (sequentially driven) PredictionService whose
/// shadow lane feeds a LifecycleManager; strong candidates are registered
/// one at a time — the injector decides which are poisoned — and each is
/// driven to a terminal state. The scenario requires one of each outcome:
/// a poisoned candidate rejected by the gate, a clean promotion regressed
/// (actuals scaled mid-probation) into a watchdog rollback, and a clean
/// promotion confirmed. Throughout, every response must bit-match the
/// model of the generation it reports, and no generation ever maps to a
/// poisoned candidate's model (zero poisoned predictions reach clients).
void RunModelLifecycle(const FaultPlan& plan, const ChaosOptions& opts,
                       ScenarioResult* result) {
  Violations v(result);
  obs::FlightRecorder flight;
  ServeRig rig(plan);
  rig.injector.set_flight_recorder(&flight);

  // The champion is trained on x3-miscalibrated metrics, so it serves with
  // a steady ~2.0 relative error on every metric. Clean challengers train
  // unbiased and land around 0.8-1.6 (the intrinsic error of 3-NN equal
  // weighting on this workload), comfortably under the champion; poisoned
  // ones multiply predictions x100 and sit near 99.
  const auto weak_champion = TrainModel(opts.seed ^ 0x0DDBA11ull, 16, 3.0);
  rig.registry.Publish(weak_champion);

  obs::MetricsRegistry lifecycle_metrics;
  lifecycle::LifecycleConfig lcfg;
  lcfg.window_observations = 24;
  lcfg.gate.min_observations = 24;
  lcfg.gate.margin = 0.05;
  // Above the clean challengers' intrinsic ~1.6 error, far below the
  // poisoned candidates' ~99: tolerance alone rejects every poison.
  lcfg.gate.tolerance = 3.0;
  lcfg.max_shadow_windows = 3;
  lcfg.probation_windows = 2;
  // The watchdog threshold is max(2.5, 2x the promoted risk): a clean
  // probation (windowed risk <= ~2.0) never trips it, while the
  // regressed-actuals phase below (x0.2 => ~4.0 relative error) always
  // does.
  lcfg.rollback_margin = 1.0;
  lcfg.rollback_min_risk = 2.5;
  lcfg.registry = &lifecycle_metrics;
  lcfg.flight = &flight;
  lcfg.faults = &rig.injector;
  lifecycle::LifecycleManager manager(&rig.registry, lcfg);

  serve::ServiceConfig config;
  config.num_workers = 1;     // sequential driving => deterministic order
  config.cache_capacity = 0;  // every answer is a fresh model prediction
  config.fallback_on_anomalous = false;  // lifecycle traffic, not anomalies
  config.shadow = &manager;
  serve::PredictionService service = rig.Serve(config);

  const auto examples = ServeExamples(256, opts.seed ^ 0x11FEC1Cull);

  // Harness-side truth: which model every published generation maps to,
  // and whether that model belongs to a poisoned candidate.
  std::vector<std::pair<std::shared_ptr<const core::Predictor>, bool>>
      registered;
  std::map<uint64_t, std::shared_ptr<const core::Predictor>> gen_models;
  std::map<uint64_t, bool> gen_poisoned;
  gen_models[rig.registry.generation()] = weak_champion;
  gen_poisoned[rig.registry.generation()] = false;

  uint64_t driven = 0, mismatches = 0, poisoned_served = 0, unknown_gen = 0;
  auto drive = [&](size_t n, double actual_scale) {
    for (size_t k = 0; k < n; ++k) {
      const auto& ex = examples[driven % examples.size()];
      const serve::ServeResponse resp =
          service.Submit({ex.query_features, 100.0}).get();
      ++driven;
      const auto it = gen_models.find(resp.model_generation);
      if (it == gen_models.end()) {
        ++unknown_gen;
      } else {
        if (!BitIdentical(resp.prediction,
                          it->second->Predict(ex.query_features))) {
          ++mismatches;
        }
        if (gen_poisoned[resp.model_generation]) ++poisoned_served;
      }
      // The simulator actuals: the example's ground-truth metrics, scaled
      // when the scenario wants the serving champion to look regressed.
      manager.ScoreActual(ex.query_features,
                          ScaleMetrics(ex.metrics, actual_scale));
      const uint64_t gen = manager.champion_generation();
      if (gen_models.find(gen) == gen_models.end()) {
        const auto model = manager.champion_model();
        bool poisoned = false;
        for (const auto& [m, p] : registered) {
          if (m == model && p) poisoned = true;
        }
        gen_models[gen] = model;
        gen_poisoned[gen] = poisoned;
      }
    }
  };

  const auto terminal = [](lifecycle::CandidateState s) {
    return s == lifecycle::CandidateState::kRejected ||
           s == lifecycle::CandidateState::kRolledBack ||
           s == lifecycle::CandidateState::kConfirmed;
  };

  bool poison_done = false, rollback_done = false, confirm_done = false;
  size_t next_candidate = 0;
  while (!(poison_done && rollback_done && confirm_done) &&
         next_candidate < 24) {
    const auto model =
        TrainModel(opts.seed ^ (0xC0FFEEull + 31 * next_candidate), 96);
    const size_t idx = manager.RegisterCandidate(
        model, StrFormat("cand-%02zu", next_candidate));
    ++next_candidate;
    const bool poisoned = manager.candidate_poisoned(idx);
    registered.emplace_back(model, poisoned);
    // A clean candidate while a rollback is still owed gets regressed
    // actuals once promoted, so the watchdog must demote it.
    const bool make_bad = !poisoned && !rollback_done;
    size_t guard = 0;
    while (!terminal(manager.candidate_state(idx)) && guard < 12) {
      const bool in_probation =
          manager.candidate_state(idx) == lifecycle::CandidateState::kPromoted;
      // Scaling actuals DOWN is what regresses the serving champion:
      // |m - m/5| / (m/5) = 4.0, while scaling up saturates below 1.0.
      drive(lcfg.window_observations, in_probation && make_bad ? 0.2 : 1.0);
      ++guard;
    }
    const lifecycle::CandidateState final_state = manager.candidate_state(idx);
    v.Check(terminal(final_state),
            StrFormat("candidate %zu never reached a terminal state", idx));
    if (poisoned) {
      v.Check(final_state == lifecycle::CandidateState::kRejected,
              StrFormat("poisoned candidate %zu ended %s, not rejected", idx,
                        lifecycle::CandidateStateName(final_state)));
      if (final_state == lifecycle::CandidateState::kRejected) {
        poison_done = true;
      }
    } else if (make_bad) {
      if (final_state == lifecycle::CandidateState::kRolledBack) {
        rollback_done = true;
      }
    } else if (final_state == lifecycle::CandidateState::kConfirmed) {
      confirm_done = true;
    }
  }
  const serve::ServiceStatsSnapshot stats = rig.Finish(&service, result);

  v.Check(poison_done, "no poisoned candidate was drawn and rejected");
  v.Check(rollback_done, "the watchdog rollback never happened");
  v.Check(confirm_done, "no clean promotion was confirmed");

  // The zero-tolerance invariant: a poisoned candidate must never serve.
  uint64_t poisoned_promoted = 0;
  for (const auto& info : manager.Candidates()) {
    if (info.poisoned && info.promoted_generation != 0) ++poisoned_promoted;
  }
  v.Check(poisoned_promoted == 0, "a poisoned candidate was promoted");
  v.Check(poisoned_served == 0,
          StrFormat("%llu responses served by a poisoned model",
                    static_cast<unsigned long long>(poisoned_served)));
  v.Check(mismatches == 0,
          StrFormat("%llu responses did not bit-match their generation",
                    static_cast<unsigned long long>(mismatches)));
  v.Check(unknown_gen == 0,
          StrFormat("%llu responses reported an unknown generation",
                    static_cast<unsigned long long>(unknown_gen)));

  v.Check(stats.requests == driven, "a request was lost");
  v.Check(stats.shadow_observed == stats.model_predictions,
          "shadow lane missed a model response");
  const lifecycle::LifecycleStats ls = manager.stats();
  v.Check(ls.scored + ls.pending_invalidated == driven,
          "a scored observation went missing");
  v.Check(ls.poisoned_candidates == rig.injector.injected("model_poison"),
          "poison tally diverged from the injector");

  result->report += StrFormat(
      "lifecycle counters:\n"
      "  candidates         %llu (poisoned %llu)\n"
      "  windows            %llu (scored %llu, shadow %llu)\n"
      "  promotions         %llu\n"
      "  rejections         %llu\n"
      "  rollbacks          %llu\n"
      "  confirmations      %llu\n",
      static_cast<unsigned long long>(ls.candidates),
      static_cast<unsigned long long>(ls.poisoned_candidates),
      static_cast<unsigned long long>(ls.windows),
      static_cast<unsigned long long>(ls.scored),
      static_cast<unsigned long long>(ls.shadow_predictions),
      static_cast<unsigned long long>(ls.promotions),
      static_cast<unsigned long long>(ls.rejections),
      static_cast<unsigned long long>(ls.rollbacks),
      static_cast<unsigned long long>(ls.confirmations));
  result->report += "candidates:\n";
  for (const auto& info : manager.Candidates()) {
    result->report += StrFormat(
        "  %-8s %-11s poisoned=%d windows=%llu gen=%llu risk=%.9g\n",
        info.label.c_str(), lifecycle::CandidateStateName(info.state),
        info.poisoned ? 1 : 0,
        static_cast<unsigned long long>(info.shadow_windows),
        static_cast<unsigned long long>(info.promoted_generation), info.risk);
  }
  // The decision log closes the report, so the CI same-seed diff of two
  // scenario runs IS the byte-identical-decision-log check.
  result->report += manager.log().ToString();

  result->counters = {
      {"lifecycle_candidates", static_cast<double>(ls.candidates)},
      {"lifecycle_poisoned_candidates",
       static_cast<double>(ls.poisoned_candidates)},
      {"lifecycle_promotions", static_cast<double>(ls.promotions)},
      {"lifecycle_rejections", static_cast<double>(ls.rejections)},
      {"lifecycle_rollbacks", static_cast<double>(ls.rollbacks)},
      {"lifecycle_confirmations", static_cast<double>(ls.confirmations)},
      {"lifecycle_windows", static_cast<double>(ls.windows)},
      {"lifecycle_scored", static_cast<double>(ls.scored)},
      {"lifecycle_shadow_predictions",
       static_cast<double>(ls.shadow_predictions)},
      {"lifecycle_requests", static_cast<double>(stats.requests)},
      {"lifecycle_poisoned_promoted", static_cast<double>(poisoned_promoted)},
      {"lifecycle_poisoned_served", static_cast<double>(poisoned_served)},
      {"lifecycle_prediction_mismatches", static_cast<double>(mismatches)},
      {"lifecycle_violations",
       static_cast<double>(result->violations.size())},
  };
}

/// soak: concurrent clients under a randomized plan, for volume. Checks the
/// accounting identities and the no-broken-future contract, not report
/// determinism.
void RunSoak(const FaultPlan& plan, const ChaosOptions& opts,
             ScenarioResult* result) {
  Violations v(result);
  const auto model_a = TrainModel(opts.seed ^ 0x50A0ull);
  const auto model_b = TrainModel(opts.seed ^ 0x50A1ull);
  std::atomic<uint64_t> swaps{0};
  ServeRig rig(plan);
  rig.registry.Publish(model_a);
  rig.injector.set_registry_swap_hook([&] {
    rig.registry.Publish(swaps.fetch_add(1) % 2 == 0 ? model_b : model_a);
  });

  serve::ServiceConfig config;
  config.num_workers = 2;
  config.max_batch = 16;
  config.cache_capacity = 1024;
  config.queue_deadline_seconds = 2.0;  // << injected 30s stalls
  config.breaker.enabled = true;
  serve::PredictionService service = rig.Serve(config);

  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 1e-5;

  const size_t kClients = 4;
  const size_t per_client = opts.requests / kClients;
  const size_t total = per_client * kClients;
  std::atomic<uint64_t> answered{0}, broken{0}, unlabeled{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto probes = MakeProbes(64, opts.seed ^ (0xC11E47ull + c));
      for (size_t i = 0; i < per_client; ++i) {
        std::future<serve::ServeResponse> future = service.SubmitWithRetry(
            {probes[i % probes.size()], 100.0}, policy);
        try {
          const serve::ServeResponse resp = future.get();
          answered.fetch_add(1);
          if (resp.degraded() && resp.degraded_reason.empty()) {
            unlabeled.fetch_add(1);
          }
        } catch (const std::future_error&) {
          broken.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const serve::ServiceStatsSnapshot stats = rig.Finish(&service, result);

  v.Check(broken.load() == 0,
          StrFormat("%llu broken futures",
                    static_cast<unsigned long long>(broken.load())));
  v.Check(answered.load() == total, "a soak request went unanswered");
  v.Check(unlabeled.load() == 0, "degraded responses without a reason");
  v.Check(stats.requests == total,
          StrFormat("responses %llu != requests driven %llu",
                    static_cast<unsigned long long>(stats.requests),
                    static_cast<unsigned long long>(total)));
  v.Check(stats.rejected >= rig.injector.injected("submit_reject"),
          "rejected counter below the injected reject count");

  result->report += StrFormat(
      "clients: %llu x %llu requests\n",
      static_cast<unsigned long long>(kClients),
      static_cast<unsigned long long>(per_client));
}

/// fabric-soak: the capacity soak. Admission load waves keyed by request
/// index shed wrecking balls and park bowling balls at the front door,
/// rolling drains walk the golf group, and the target replica is stalled
/// and then killed; on top of the fabric rig's faulted-run checks, the
/// driver mirrors every admission decision and the run holds a wall-clock
/// p99 SLO that stays out of the report.
void RunFabricSoak(const FaultPlan& plan, const ChaosOptions& opts,
                   ScenarioResult* result) {
  Violations v(result);
  const size_t requests = opts.requests;
  v.Check(requests >= kFabricSoakMinRequests,
          "fabric soak needs >= 10k requests for its fault schedule");
  FaultInjector injector(plan);
  fabric::FabricConfig config =
      RigFabricConfig(3, /*cache_capacity=*/1024, &injector, opts.seed);
  // Deferred dispatches overlap in-flight traffic, so live queue depths
  // are racy; pin the P2C to its keyed draws to keep pick counts (and so
  // the whole report) byte-replayable.
  config.p2c_ignore_depth = true;
  config.admission.enabled = true;
  config.admission.p99_slo_seconds = 0.25;
  config.admission.max_queue_depth = 512;
  config.admission.max_deferred = 256;
  const fabric::AdmissionConfig admission_cfg = config.admission;
  FabricRig rig(std::move(config), /*pools=*/4, /*probes_per_pool=*/4,
                opts.seed ^ 0xFAB50ull, result);

  const std::string golf_group =
      workload::QueryTypeName(workload::QueryType::kGolfBall);
  const auto golf_model = std::make_shared<const core::Predictor>(
      *rig.two_step.CategoryModel(workload::QueryType::kGolfBall));

  const size_t wave_len = std::max<size_t>(1, requests / 16);
  const size_t drain_every = std::max<size_t>(1000, requests / 12);

  obs::Histogram latency_hist;
  struct Parked {
    std::future<serve::ServeResponse> future;
    size_t probe = 0;
  };
  std::deque<Parked> parked;  // mirrors the fabric's deferred queue, FIFO
  uint64_t shed_direct = 0, shed_overflow = 0, parked_total = 0,
           drained_mid = 0, admitted_mirror = 0, breach_mirror = 0,
           drain_ops = 0, bad_shed = 0;
  const auto verify = [&](const serve::ServeResponse& resp, size_t j) {
    latency_hist.Record(resp.latency_seconds);
    rig.CheckResponse(resp, j);
  };

  for (size_t i = 0; i < requests; ++i) {
    const bool over = rig.Overloaded(i, wave_len);
    if (i > 0 && i % drain_every == 0) {
      const size_t r = (i / drain_every - 1) % 3;
      v.Check(rig.fab.DrainSwapRevive(golf_group, r, golf_model),
              "drain-swap-revive failed mid-soak");
      ++drain_ops;
    }
    const size_t j = i % rig.probes.size();
    const workload::QueryType pool = rig.probe_pool[j];
    if (over) ++breach_mirror;
    std::future<serve::ServeResponse> future =
        rig.fab.Submit({rig.probes[j], 100.0});
    // The driver mirrors the admission policy (same pool verdict, same
    // virtual signal) so it knows which futures resolved inline (sheds),
    // which are parked at the front door, and which hit a replica queue.
    if (over && pool == workload::QueryType::kWreckingBall) {
      if (future.get().degraded_reason != "admission-shed") ++bad_shed;
      ++shed_direct;
      continue;
    }
    if (over && pool == workload::QueryType::kBowlingBall) {
      if (parked.size() < admission_cfg.max_deferred) {
        parked.push_back({std::move(future), j});
        ++parked_total;
        continue;
      }
      if (future.get().degraded_reason != "admission-shed") ++bad_shed;
      ++shed_overflow;
      continue;
    }
    ++admitted_mirror;
    verify(future.get(), j);
    if (!over) {
      // The fabric piggyback-drained up to kDeferDrainPerSubmit parked
      // requests during this admit; collect them in the same FIFO order.
      const size_t n = std::min(fabric::kDeferDrainPerSubmit, parked.size());
      for (size_t k = 0; k < n; ++k) {
        Parked p = std::move(parked.front());
        parked.pop_front();
        verify(p.future.get(), p.probe);
        ++drained_mid;
      }
    }
  }
  const uint64_t shutdown_drained = parked.size();
  rig.fab.Shutdown();  // dispatches the still-parked leftovers, then stops
  while (!parked.empty()) {
    Parked p = std::move(parked.front());
    parked.pop_front();
    verify(p.future.get(), p.probe);
  }

  v.Check(bad_shed == 0,
          StrFormat("%llu shed responses were not labeled admission-shed",
                    static_cast<unsigned long long>(bad_shed)));
  v.Check(shed_direct > 0, "no wrecking ball was shed under overload");
  v.Check(parked_total > 0, "no bowling ball was deferred under overload");
  v.Check(drained_mid > 0, "no deferred request drained after its wave");
  const fabric::FabricStatsSnapshot stats =
      rig.CheckFaultedRun(requests, drain_ops, result);
  v.Check(stats.shed == shed_direct + shed_overflow,
          "shed counter != client-observed sheds");
  v.Check(stats.defer_overflow == shed_overflow,
          "defer-overflow counter != client-observed overflow sheds");
  v.Check(stats.deferred == parked_total,
          "deferred counter != client-parked requests");
  v.Check(stats.defer_drained == drained_mid + shutdown_drained,
          "defer-drained counter != mid-run + shutdown drains");
  v.Check(stats.admitted == admitted_mirror,
          "admitted counter != client-mirrored admits");
  v.Check(stats.slo_breaches == breach_mirror,
          "slo-breach counter != requests decided under overload waves");

  // The p99-under-chaos SLO: an invariant, never part of the report (the
  // report must stay byte-replayable and wall-clock never is).
  const double p99 = latency_hist.Quantile(0.99);
  v.Check(p99 <= 0.25,
          StrFormat("p99 under chaos %.6fs breached the 0.25s soak SLO",
                    p99));

  result->report = StrFormat(
      "fabric soak: %llu requests | wave %llu | probes %llu | replicas 3\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(wave_len),
      static_cast<unsigned long long>(rig.probes.size()));
  result->report += FaultDigest(injector);
  result->report += stats.ToString();

  const auto count = [](uint64_t value) {
    return static_cast<double>(value);
  };
  // Keys carry the fabric_soak_ prefix because they land in the shared
  // golden/tolerance namespace (tests/golden/fabric.json) next to the
  // paper-figure headline keys.
  result->counters = {
      {"fabric_soak_requests", count(requests)},
      {"fabric_soak_classified", count(stats.classified)},
      {"fabric_soak_route_cache_hits", count(stats.route_cache_hits)},
      {"fabric_soak_admitted", count(stats.admitted)},
      {"fabric_soak_shed_wrecking", count(shed_direct)},
      {"fabric_soak_shed_defer_overflow", count(shed_overflow)},
      {"fabric_soak_deferred", count(stats.deferred)},
      {"fabric_soak_defer_drained_midrun", count(drained_mid)},
      {"fabric_soak_defer_drained_shutdown", count(shutdown_drained)},
      {"fabric_soak_slo_breaches", count(stats.slo_breaches)},
      {"fabric_soak_drains", count(stats.drains)},
      {"fabric_soak_escalations_dead", count(stats.escalations_dead)},
      {"fabric_soak_replica_kills", count(injector.injected("replica_kill"))},
      {"fabric_soak_replica_stalls",
       count(injector.injected("replica_stall"))},
      {"fabric_soak_deadline_fallbacks", count(rig.deadline_seen)},
      {"fabric_soak_violations", count(result->violations.size())},
  };
}

// ---------------------------------------------------------------- table --

/// One row of the chaos table: a run and the FaultPlan it runs under
/// unless ChaosOptions::plan replaces it (`plan` fills in a plan seeded
/// with options.seed), and whether it is one of the six scenarios
/// `qpp_tool chaos` runs when no run is named.
struct ChaosRow {
  const char* name;
  bool scenario;
  void (*plan)(const ChaosOptions&, FaultPlan*);
  void (*run)(const FaultPlan&, const ChaosOptions&, ScenarioResult*);
};

const ChaosRow kChaosRows[] = {
    {"node-death", true,
     [](const ChaosOptions&, FaultPlan* p) {
       p->engine.node_failure_probability = 0.5;
       p->engine.max_failed_nodes = 3;
       p->engine.repartition_seconds = 0.5;
       p->engine.node_slowdown_probability = 0.3;
       p->engine.node_slowdown_multiplier = 2.5;
       p->engine.disk_stall_probability = 0.2;
       p->engine.disk_stall_multiplier = 4.0;
     },
     RunNodeDeath},
    {"fallback-storm", true,
     [](const ChaosOptions&, FaultPlan* p) {
       p->serve.worker_stall_probability = 0.45;
       p->serve.worker_stall_seconds = 60.0;
     },
     RunFallbackStorm},
    {"hot-swap", true,
     [](const ChaosOptions&, FaultPlan* p) {
       p->serve.registry_swap_probability = 0.35;
     },
     RunHotSwap},
    {"backpressure", true,
     [](const ChaosOptions&, FaultPlan* p) {
       p->serve.submit_reject_probability = 0.4;
     },
     RunBackpressure},
    {"rolling-drain", true,
     [](const ChaosOptions&, FaultPlan* p) {
       // The kill must land inside small harness runs too: at 200
       // requests (the unit-test scale) the target sees ~20 picks, so 15
       // is the latest counted pick that reliably exists.
       p->serve.target_replica_label = "feather#1";
       p->serve.replica_kill_after_picks = 15;
       p->serve.replica_stall_probability = 0.25;
       p->serve.replica_stall_seconds = 60.0;
     },
     RunRollingDrain},
    {"model-lifecycle", true,
     [](const ChaosOptions&, FaultPlan* p) {
       // High enough that a poisoned candidate lands within a few draws at
       // any seed; the scenario keeps registering until it has seen one.
       p->serve.model_poison_probability = 0.75;
       p->serve.model_poison_multiplier = 100.0;
     },
     RunModelLifecycle},
    {"soak", false,
     [](const ChaosOptions& o, FaultPlan* p) { *p = RandomFaultPlan(o.seed); },
     RunSoak},
    {"fabric-soak", false,
     [](const ChaosOptions& o, FaultPlan* p) {
       // Sized to the run: the counted kill lands once the target has
       // taken ~1/20th of the traffic in picks (its fair share is ~1/12th,
       // so it always gets there), and stalls are rare enough that their
       // capped real sleeps stay negligible even at 1M requests.
       p->serve.target_replica_label = "feather#2";
       p->serve.replica_kill_after_picks =
           std::max<uint64_t>(50, o.requests / 20);
       p->serve.replica_stall_probability = 0.01;
       p->serve.replica_stall_seconds = 60.0;
     },
     RunFabricSoak},
};

const ChaosRow* FindRow(const std::string& name) {
  for (const ChaosRow& row : kChaosRows) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

}  // namespace

// --------------------------------------------------------------- public --

std::vector<ml::TrainingExample> PoolExamples(size_t pools, size_t per_pool,
                                              uint64_t seed) {
  static const double kElapsedBase[4] = {10.0, 400.0, 2500.0, 9000.0};
  QPP_CHECK(pools >= 1 && pools <= 4);
  Rng rng(seed);
  std::vector<ml::TrainingExample> out;
  out.reserve(pools * per_pool);
  for (size_t pool = 0; pool < pools; ++pool) {
    const double off = static_cast<double>(pool);
    for (size_t i = 0; i < per_pool; ++i) {
      ml::TrainingExample ex;
      const double a = rng.Uniform(1.0, 10.0);
      const double b = rng.Uniform(1.0, 10.0);
      const double c = rng.Uniform(0.0, 5.0);
      ex.query_features = {a + 40.0 * off, b + 10.0 * off, c,
                           a * b + 25.0 * off, rng.Uniform(0.0, 1.0)};
      // 0.5ab + c <= 55, so every example stays inside its pool's band.
      ex.metrics.elapsed_seconds = kElapsedBase[pool] + 0.5 * a * b + c;
      ex.metrics.records_accessed = 1000.0 * a + 50.0 * c + 10000.0 * off;
      ex.metrics.records_used = 100.0 * a + 1000.0 * off;
      ex.metrics.message_count = 10.0 * b + 100.0 * off;
      ex.metrics.message_bytes = 1000.0 * b + 10.0 * a;
      out.push_back(std::move(ex));
    }
  }
  return out;
}

std::vector<ml::TrainingExample> ServeExamples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ml::TrainingExample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ml::TrainingExample ex;
    const double a = rng.Uniform(1.0, 10.0);
    const double b = rng.Uniform(1.0, 10.0);
    const double c = rng.Uniform(0.0, 5.0);
    ex.query_features = {a, b, c, a * b, rng.Uniform(0.0, 1.0)};
    ex.metrics.elapsed_seconds = 0.5 * a * b + c;
    ex.metrics.records_accessed = 1000.0 * a + 50.0 * c;
    ex.metrics.records_used = 100.0 * a;
    ex.metrics.message_count = 10.0 * b;
    ex.metrics.message_bytes = 1000.0 * b + 10.0 * a;
    out.push_back(std::move(ex));
  }
  return out;
}

const std::vector<std::string>& ChaosScenarioNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const ChaosRow& row : kChaosRows) {
      if (row.scenario) names.push_back(row.name);
    }
    return names;
  }();
  return kNames;
}

std::optional<FaultPlan> ChaosScenarioPlan(const std::string& name,
                                           const ChaosOptions& options) {
  const ChaosRow* row = FindRow(name);
  if (row == nullptr) return std::nullopt;
  FaultPlan plan;
  plan.seed = options.seed;
  row->plan(options, &plan);
  return plan;
}

FaultPlan RandomFaultPlan(uint64_t seed) {
  Rng rng(SplitMix64(seed ^ 0xC4A05ull));
  FaultPlan plan;
  plan.seed = seed;
  plan.engine.disk_stall_probability = rng.Uniform(0.0, 0.3);
  plan.engine.disk_stall_multiplier = rng.Uniform(2.0, 8.0);
  plan.engine.message_loss_rate = rng.Uniform(0.0, 0.1);
  plan.engine.node_slowdown_probability = rng.Uniform(0.0, 0.3);
  plan.engine.node_slowdown_multiplier = rng.Uniform(1.5, 4.0);
  plan.engine.node_failure_probability = rng.Uniform(0.0, 0.3);
  plan.engine.max_failed_nodes = 2;
  plan.engine.buffer_pressure_probability = rng.Uniform(0.0, 0.3);
  plan.serve.submit_reject_probability = rng.Uniform(0.0, 0.3);
  plan.serve.worker_stall_probability = rng.Uniform(0.0, 0.2);
  plan.serve.worker_stall_seconds = 30.0;
  plan.serve.registry_swap_probability = rng.Uniform(0.0, 0.2);
  // Replica-targeted fields (plan v3) get nontrivial values too so serde
  // round trips exercise them; they are label-gated to fabric replica
  // labels and the soak's service carries no shard_label, so they stay
  // inert in the soak row.
  plan.serve.target_replica_label = "golf ball#1";
  plan.serve.replica_kill_after_picks = 10 + seed % 90;
  plan.serve.replica_stall_probability = rng.Uniform(0.05, 0.3);
  plan.serve.replica_stall_seconds = rng.Uniform(10.0, 60.0);
  // Model-poison fields (plan v4): exercised by serde round trips; inert
  // in the soak itself, which registers no lifecycle candidates.
  plan.serve.model_poison_probability = rng.Uniform(0.1, 0.9);
  plan.serve.model_poison_multiplier = rng.Uniform(10.0, 200.0);
  return plan;
}

ScenarioResult RunChaosScenario(const std::string& name,
                                const ChaosOptions& options) {
  ScenarioResult result;
  result.name = name;
  const ChaosRow* row = FindRow(name);
  if (row == nullptr) {
    result.violations.push_back("unknown scenario: " + name);
    return result;
  }
  row->run(options.plan.value_or(*ChaosScenarioPlan(name, options)), options,
           &result);
  return result;
}

ObsFlightDemoResult RunObsFlightDemo(const ChaosOptions& options) {
  ObsFlightDemoResult out;
  ScenarioResult& result = out.scenario;
  result.name = "obs-flight-demo";
  Violations v(&result);

  const size_t requests = options.requests;
  v.Check(requests >= 512,
          "obs flight demo needs >= 512 requests (one breaching window)");
  if (requests < 512) return out;

  obs::TraceRecorder trace;
  fabric::FabricConfig config =
      RigFabricConfig(2, /*cache_capacity=*/1024, nullptr, options.seed);
  config.trace = &trace;
  config.trace_seed = SplitMix64(options.seed ^ 0x0B5F11D0ull);
  config.p2c_ignore_depth = true;
  config.admission.enabled = true;
  config.admission.p99_slo_seconds = 0.25;
  config.admission.max_queue_depth = 512;
  // Shed-only policy: every future resolves inline or through a replica,
  // so the sequential driver never blocks on a parked request and the
  // whole flight history replays byte-for-byte.
  config.admission.defer_bowling = false;
  FabricRig rig(std::move(config), /*pools=*/4, /*probes_per_pool=*/2,
                options.seed ^ 0x0B5D3340ull, &result);
  fabric::Fabric& fab = rig.fab;
  fab.flight()->Record(obs::FlightEventKind::kNote, /*trace_id=*/0,
                       /*code=*/0, 0.0, "obs-demo-start");

  // The SLO engine under test: synthetic seed-derived latencies (never the
  // wall clock) make every window's verdict a pure function of the seed.
  // The p99 rule trips during overload waves; the fallback-share rule
  // trips with it (sheds are degraded responses); the deferred-pending
  // gauge rule never trips — the dump shows healthy rules next to
  // breaching ones.
  obs::Histogram* demo_latency = fab.metrics()->GetHistogram(
      "qpp_demo_latency_seconds", {}, [] {
        obs::HistogramOptions o;
        o.exemplars = true;
        return o;
      }());
  fab.metrics()->SetHelp("qpp_demo_latency_seconds",
                         "seed-derived synthetic latency of demo requests");
  obs::Counter* responses_total =
      fab.metrics()->GetCounter("qpp_demo_responses_total");
  obs::Counter* degraded_total =
      fab.metrics()->GetCounter("qpp_demo_degraded_total");
  obs::SloEngineOptions engine_options;
  engine_options.window_ticks = 64;
  engine_options.eager_refresh_every = 0;  // pure tumbling windows
  engine_options.registry = fab.metrics();
  engine_options.flight = fab.flight();
  engine_options.trace = &trace;
  obs::SloEngine slo(engine_options);
  {
    obs::SloRule p99;
    p99.name = "demo_p99";
    p99.kind = obs::SloRule::Kind::kHistogramQuantile;
    p99.threshold = 0.25;
    p99.min_samples = 16;
    p99.histogram = demo_latency;
    p99.quantile = 0.99;
    slo.AddRule(std::move(p99));
    obs::SloRule share;
    share.name = "demo_fallback_share";
    share.kind = obs::SloRule::Kind::kCounterRatio;
    share.threshold = 0.10;
    share.min_samples = 16;
    share.numerator = degraded_total;
    share.denominator = responses_total;
    slo.AddRule(std::move(share));
    obs::SloRule deferred;
    deferred.name = "demo_deferred_pending";
    deferred.kind = obs::SloRule::Kind::kGaugeThreshold;
    deferred.threshold = 1.0;
    deferred.gauge = fab.metrics()->GetGauge("qpp_fabric_deferred_pending");
    slo.AddRule(std::move(deferred));
  }

  const size_t wave_len = std::max<size_t>(64, requests / 16);
  uint64_t shed_mirror = 0, admitted_mirror = 0, degraded_seen = 0;
  std::string first_breach_rule;
  for (size_t i = 0; i < requests; ++i) {
    const bool over = rig.Overloaded(i, wave_len);
    const size_t j = i % rig.probes.size();
    const serve::ServeResponse resp =
        fab.Submit({rig.probes[j], 100.0}).get();
    if (over && rig.probe_pool[j] == workload::QueryType::kWreckingBall) {
      ++shed_mirror;
      v.Check(resp.degraded_reason == "admission-shed",
              "wrecking ball under overload was not labeled admission-shed");
    } else {
      ++admitted_mirror;
    }
    v.Check(resp.trace_id != 0, "a response came back without a trace id");
    if (resp.degraded()) ++degraded_seen;

    // Synthetic latency: uniform noise off the seed, an order of magnitude
    // over the SLO during waves. The response's own identity scopes the
    // tick, so the alert that closes a breaching window is tagged with the
    // request that tipped it.
    Rng lat_rng(SplitMix64(options.seed ^ 0x0B5DA7ull ^ i));
    const double synthetic = over ? 0.5 + 0.5 * lat_rng.NextDouble()
                                  : 0.001 + 0.004 * lat_rng.NextDouble();
    obs::ScopedRequestContext tick_scope(
        obs::RequestContext{resp.trace_id});
    responses_total->Inc();
    if (resp.degraded()) degraded_total->Inc();
    demo_latency->Record(synthetic, resp.trace_id);
    const std::optional<obs::SloEvaluation> eval = slo.Tick();
    if (eval.has_value() && !eval->eager && eval->any_breached() &&
        out.flight_dump.empty()) {
      // The black box, captured the moment the breach is known.
      out.breach_trace_id = resp.trace_id;
      for (const obs::SloRuleOutcome& r : eval->rules) {
        if (r.breached) { first_breach_rule = r.rule; break; }
      }
      out.flight_dump =
          fab.flight()->DumpJson("slo-breach:" + first_breach_rule);
    }
  }
  fab.Shutdown();
  out.trace_json = trace.ToJson();
  out.prometheus_text = fab.metrics()->PrometheusText();

  const std::string breach_hex = obs::TraceIdHex(out.breach_trace_id);
  v.Check(!out.flight_dump.empty(), "no SLO window ever closed breaching");
  v.Check(out.breach_trace_id != 0, "breaching window has no trace id");
  v.Check(slo.alerts_total() > 0, "the SLO engine never fired an alert");
  v.Check(slo.windows_closed() >= requests / 64 / 2,
          "the SLO engine closed too few windows");
  v.Check(out.flight_dump.find("\"slo_alert\"") != std::string::npos,
          "flight dump carries no slo_alert event");
  v.Check(out.flight_dump.find("\"slo_breach\"") != std::string::npos,
          "flight dump carries no admission slo_breach event");
  v.Check(out.flight_dump.find("\"admission_shed\"") != std::string::npos,
          "flight dump carries no admission_shed event");
  v.Check(out.flight_dump.find("\"pick\"") != std::string::npos,
          "flight dump carries no replica pick event");
  v.Check(out.flight_dump.find(breach_hex) != std::string::npos,
          "flight dump does not mention the breaching trace id");
  const size_t chain = CountOccurrences(out.trace_json, breach_hex);
  v.Check(chain >= 3,
          StrFormat("breaching trace id appears %llu times in the trace; "
                    "expected a span chain of >= 3",
                    static_cast<unsigned long long>(chain)));
  v.Check(trace.dropped_count() == 0, "trace recorder dropped events");
  v.Check(out.prometheus_text.find(
              "# TYPE qpp_demo_latency_seconds histogram") !=
              std::string::npos,
          "prometheus exposition lost the demo histogram");
  v.Check(out.prometheus_text.find("trace_id=") != std::string::npos,
          "prometheus exposition carries no exemplar");
  const fabric::FabricStatsSnapshot stats = fab.stats();
  v.Check(stats.shed == shed_mirror,
          "shed counter != client-observed sheds");
  v.Check(stats.admitted == admitted_mirror,
          "admitted counter != client-mirrored admits");
  v.Check(degraded_seen == shed_mirror,
          "degradations beyond the admission sheds");

  result.report = StrFormat(
      "obs flight demo: %llu requests | wave %llu | window 64 | probes "
      "%llu\n"
      "breach: rule %s trace %s\n"
      "slo: ticks %llu windows %llu alerts %llu\n"
      "admission: admitted %llu shed %llu\n"
      "flight: dump %llu bytes | prom %llu bytes | id chain %llu spans\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(wave_len),
      static_cast<unsigned long long>(rig.probes.size()),
      first_breach_rule.c_str(), breach_hex.c_str(),
      static_cast<unsigned long long>(slo.ticks()),
      static_cast<unsigned long long>(slo.windows_closed()),
      static_cast<unsigned long long>(slo.alerts_total()),
      static_cast<unsigned long long>(admitted_mirror),
      static_cast<unsigned long long>(shed_mirror),
      static_cast<unsigned long long>(out.flight_dump.size()),
      static_cast<unsigned long long>(out.prometheus_text.size()),
      static_cast<unsigned long long>(chain));
  return out;
}

}  // namespace qpp::fault
