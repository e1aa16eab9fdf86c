// The online path: serve-cold and serve-hot. One client thread, acting as
// an admission thread, keeps kInFlight requests outstanding against a
// per-pool fabric (one replica per group, default ServiceConfig) serving
// the TwoStepPredictor trained on the Experiment-1 split. Closed loop:
// each caller waits for the verdict before it dispatches the query.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>

#include "fabric/fabric.h"
#include "ledger.h"
#include "serve/cost_fallback.h"

namespace qpp::ledger {

namespace {

constexpr size_t kInFlight = 16;
/// serve-hot's working set: well inside both the route cache and the
/// result cache (4096 entries each by default).
constexpr size_t kHotPlans = 256;
/// serve-cold's warm-up pass. The timed phase continues the cycle where
/// the pass stopped, so with ~18.5k plans per cycle against 4096-entry LRU
/// caches no timed request can hit.
constexpr size_t kColdWarmup = 1024;

/// One plan the client cycles through, with the answer it must receive.
struct Plan {
  const linalg::Vector* features = nullptr;
  double cost = 0.0;
  /// Bits the client must see: the offline TwoStepPredictor::Predict (the
  /// expert's answer, or the base model's where the category has no
  /// expert), or, where that answer is flagged anomalous, the labeled
  /// optimizer-cost fallback.
  core::Prediction expected;
  bool anomalous_fallback = false;
  std::string replica_prefix;  ///< "group#" of the group that must answer
};

struct Deployment {
  std::unique_ptr<core::TwoStepPredictor> model;
  serve::CostCalibration calibration;
  std::unique_ptr<fabric::Fabric> fabric;
};

/// The program's own set-up, minus the warm-up pass: train on `train`,
/// fit the fallback's cost calibration on the Experiment-1 split, start
/// the fabric, publish.
Deployment Deploy(const Inputs& in,
                  const std::vector<ml::TrainingExample>& train) {
  Deployment d;
  d.model = std::make_unique<core::TwoStepPredictor>();
  d.model->Train(train);
  std::vector<double> elapsed;
  for (const ml::TrainingExample& ex : in.train()) {
    elapsed.push_back(ex.metrics.elapsed_seconds);
  }
  d.calibration = serve::CostCalibration::Fit(in.train_cost, elapsed);
  d.fabric = std::make_unique<fabric::Fabric>(fabric::MakePerPoolFabricConfig(1),
                                              d.calibration);
  fabric::PublishTwoStep(*d.model, d.fabric.get());
  return d;
}

/// The first `limit` plans the workload drives, with the answers `d` must
/// give.
std::vector<Plan> MakePlans(const Inputs& in, const Deployment& d, bool hot,
                            size_t limit) {
  std::vector<Plan> plans;
  for (size_t i = 0; i < in.serve_features.size() && plans.size() < limit;
       ++i) {
    Plan p;
    p.features = &in.serve_features[i];
    p.cost = in.serve_cost[i];
    const core::Prediction first = d.model->base().Predict(*p.features);
    const core::Predictor* expert = d.model->CategoryModel(first.predicted_type);
    p.replica_prefix =
        (expert != nullptr ? workload::QueryTypeName(first.predicted_type)
                           : d.fabric->catch_all_name()) +
        std::string("#");
    p.expected = d.model->Predict(*p.features);
    if (p.expected.anomalous) {
      p.anomalous_fallback = true;
      p.expected = serve::FallbackPrediction(d.calibration, p.cost,
                                             /*anomalous=*/true);
    }
    // serve-hot replays plans the result cache can hold: anomalous answers
    // are never cached (they are rare, and only model answers are).
    if (hot && p.anomalous_fallback) continue;
    plans.push_back(std::move(p));
  }
  return plans;
}

bool SameDouble(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SamePrediction(const core::Prediction& a, const core::Prediction& b) {
  const engine::QueryMetrics& x = a.metrics;
  const engine::QueryMetrics& y = b.metrics;
  return SameDouble(x.elapsed_seconds, y.elapsed_seconds) &&
         SameDouble(x.records_accessed, y.records_accessed) &&
         SameDouble(x.records_used, y.records_used) &&
         SameDouble(x.disk_ios, y.disk_ios) &&
         SameDouble(x.message_count, y.message_count) &&
         SameDouble(x.message_bytes, y.message_bytes) &&
         SameDouble(a.mean_neighbor_distance, b.mean_neighbor_distance) &&
         SameDouble(a.confidence, b.confidence) && a.anomalous == b.anomalous &&
         a.neighbor_indices == b.neighbor_indices;
}

bool Matches(const serve::ServeResponse& r, const Plan& p) {
  if (r.shard.rfind(p.replica_prefix, 0) != 0) return false;
  if (p.anomalous_fallback) {
    return r.source == serve::ResponseSource::kOptimizerFallback &&
           r.degraded_reason == "anomalous" &&
           SamePrediction(r.prediction, p.expected);
  }
  return r.source != serve::ResponseSource::kOptimizerFallback &&
         SamePrediction(r.prediction, p.expected);
}

/// Exact latencies of a systematic sample of the requests: every
/// stride-th one, at most kMaxKept of them. When full, every other kept
/// value is dropped and the stride doubles, so the buffer stays at 512 KB
/// however fast the loop runs and rss_mb measures the program, not it.
class LatencySample {
 public:
  LatencySample() { kept_.reserve(kMaxKept); }

  void Add(double us) {
    const uint64_t index = seen_++;
    if (index % stride_ != 0) return;
    if (kept_.size() == kMaxKept) {
      for (size_t i = 0; i < kMaxKept / 2; ++i) kept_[i] = kept_[2 * i];
      kept_.resize(kMaxKept / 2);
      stride_ *= 2;
      if (index % stride_ != 0) return;
    }
    kept_.push_back(us);
  }
  double Quantile(double q) const { return ledger::Quantile(kept_, q); }
  size_t size() const { return kept_.size(); }

 private:
  static constexpr size_t kMaxKept = size_t{1} << 16;
  std::vector<double> kept_;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
};

struct LoopResult {
  uint64_t completed = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  LatencySample latency_us;
};

/// Closed loop: kInFlight requests outstanding, verdicts taken as they
/// arrive, plans taken cyclically from *cursor. Stops submitting after
/// `max_requests` submits or `seconds` of wall time, whichever comes first,
/// then drains. With `spans`, every request gets a request span with
/// children fabric.submit (inside Fabric::Submit), client.wait (the client
/// looking for a ready verdict), and the derived serve.service (the
/// response's own enqueue-to-respond time, placed after Submit returned)
/// and serve.wake (the rest: the verdict waiting for the client to take
/// it); client.own spans cover the client's own work in between.
LoopResult ClosedLoop(fabric::Fabric* fabric, const std::vector<Plan>& plans,
                      size_t* cursor, uint64_t max_requests, double seconds,
                      SpanStore* spans) {
  struct Slot {
    std::future<serve::ServeResponse> future;
    const Plan* plan = nullptr;
    int64_t t_submit = 0;
    int64_t t_submitted = 0;
    uint64_t id = 0;
  };
  std::array<Slot, kInFlight> ring;
  LoopResult out;
  const int64_t start = NowNs();
  const int64_t stop_at = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t submitted = 0;

  const auto submit = [&](Slot* slot) {
    const Plan& plan = plans[*cursor];
    *cursor = (*cursor + 1) % plans.size();
    serve::ServeRequest request;
    request.features = *plan.features;
    request.optimizer_cost = plan.cost;
    slot->plan = &plan;
    slot->id = submitted++;
    slot->t_submit = NowNs();
    slot->future = fabric->Submit(std::move(request));
    slot->t_submitted = NowNs();
  };

  size_t live = 0;
  for (Slot& slot : ring) {
    if (submitted == max_requests) break;
    submit(&slot);
    ++live;
  }
  // The client takes verdicts as they arrive, the oldest ready one first:
  // it polls the outstanding futures instead of sleeping on one, so a
  // request held up in one replica delays no other request's verdict.
  const auto next_ready = [&ring]() -> Slot& {
    for (;;) {
      Slot* best = nullptr;
      for (Slot& s : ring) {
        if (s.future.valid() && (best == nullptr || s.id < best->id) &&
            s.future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
          best = &s;
        }
      }
      if (best != nullptr) return *best;
      std::this_thread::yield();
    }
  };
  bool open = true;
  while (live > 0) {
    const int64_t wait_from = NowNs();
    Slot& slot = next_ready();
    const serve::ServeResponse response = slot.future.get();
    const int64_t done = NowNs();
    --live;
    ++out.completed;
    out.latency_us.Add(static_cast<double>(done - slot.t_submit) / 1e3);
    if (!Matches(response, *slot.plan)) ++out.failed;
    if (spans != nullptr) {
      const uint32_t req = spans->Add("request", slot.id, SpanStore::kNoParent,
                                      slot.t_submit, done);
      spans->Add("fabric.submit", slot.id, req, slot.t_submit,
                 slot.t_submitted);
      spans->Add("client.wait", slot.id, req, wait_from, done);
      const int64_t responded =
          std::min(done, slot.t_submitted +
                             static_cast<int64_t>(response.latency_seconds * 1e9));
      spans->Add("serve.service", slot.id, req, slot.t_submitted, responded);
      spans->Add("serve.wake", slot.id, req, responded, done);
    }
    const uint64_t finished = slot.id;
    if (open && (done >= stop_at || submitted == max_requests)) open = false;
    if (open) {
      submit(&slot);
      ++live;
    }
    if (spans != nullptr) {
      // The client's own work between two program calls: checking the
      // verdict, recording it, building the next request.
      spans->Add("client.own", finished, SpanStore::kNoParent, done,
                 open ? slot.t_submit : NowNs());
    }
  }
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

struct Counters {
  uint64_t route_hits = 0;
  uint64_t requests = 0;  ///< summed over every replica
  uint64_t cache_hits = 0;
  uint64_t batches = 0;
  uint64_t batched = 0;
  uint64_t feather_cache_hits = 0;  ///< the feather expert's result cache
};

Counters Read(const fabric::Fabric& fabric) {
  const fabric::FabricStatsSnapshot s = fabric.stats();
  Counters c;
  c.route_hits = s.route_cache_hits;
  for (const auto& g : s.groups) {
    for (const auto& r : g.replicas) {
      c.requests += r.service.requests;
      c.cache_hits += r.service.cache_hits;
      c.batches += r.service.batches;
      c.batched += r.service.batched_requests;
      if (g.name == workload::QueryTypeName(workload::QueryType::kFeather)) {
        c.feather_cache_hits += r.service.cache_hits;
      }
    }
  }
  return c;
}

Counters Delta(const Counters& a, const Counters& b) {
  return {b.route_hits - a.route_hits,   b.requests - a.requests,
          b.cache_hits - a.cache_hits,   b.batches - a.batches,
          b.batched - a.batched,         b.feather_cache_hits - a.feather_cache_hits};
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Replays the workload's plans against single layers, from outside the
/// fabric, into spans: the catch-all Predict (the classify cost), the
/// cost fallback, and PredictBatchInto's stages on the feather expert at
/// micro-batch size `batch`.
void ReplayServeLayers(const std::vector<Plan>& plans, const Deployment& d,
                       size_t batch, SpanStore* spans, Report* report) {
  const size_t n = std::min<size_t>(plans.size(), 8192);
  for (size_t i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    d.model->base().Predict(*plans[i].features);
    spans->Add("core.predict", i, SpanStore::kNoParent, t0, NowNs());
  }

  // FallbackPrediction is tens of nanoseconds: one span per pass.
  [[maybe_unused]] volatile double sink = 0.0;
  for (int pass = 0; pass < 16; ++pass) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      sink = serve::FallbackPrediction(d.calibration, plans[i].cost,
                                       /*anomalous=*/false)
                 .metrics.elapsed_seconds;
    }
    spans->Add("serve.fallback", pass, SpanStore::kNoParent, t0, NowNs(), n);
  }

  const core::Predictor* feather =
      d.model->CategoryModel(workload::QueryType::kFeather);
  if (feather == nullptr) feather = &d.model->base();
  core::Predictor::BatchScratch scratch;
  std::vector<core::Prediction> out;
  std::vector<linalg::Vector> queries;
  core::Predictor::BatchStageTimes warm;
  core::Predictor::BatchStageTimes times;
  size_t replayed = 0;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms the scratch
    for (size_t i = 0; i + batch <= n; i += batch) {
      queries.clear();
      for (size_t j = i; j < i + batch; ++j) queries.push_back(*plans[j].features);
      feather->PredictBatchInto(queries, &scratch, &out, nullptr,
                                pass == 0 ? &warm : &times);
      if (pass == 1) replayed += batch;
    }
  }
  const double per_query_us = replayed == 0 ? 0.0 : 1e6 / static_cast<double>(replayed);
  report->Layer("core.batch_preprocess_us", times.preprocess_s * per_query_us, "us");
  report->Layer("core.batch_kernel_us", times.kernel_s * per_query_us, "us");
  report->Layer("core.batch_solve_us", times.solve_s * per_query_us, "us");
  report->Layer("core.batch_project_us", times.project_s * per_query_us, "us");
  report->Layer("core.batch_knn_us", times.knn_s * per_query_us, "us");
  report->Layer("core.batch_assemble_us", times.assemble_s * per_query_us, "us");
}

}  // namespace

void RunServe(const Inputs& in, const Options& opt, bool hot, Report* report) {
  // Set-up, several times. Set-up i trains on training set (i + 1) mod
  // kSetups, so setup_s does not rest on one split's training cost and the
  // last set-up trains on the Experiment-1 split; its deployment serves
  // the timed phase. Each warm-up pass is checked against its own model.
  const size_t warm_count = hot ? kHotPlans : kColdWarmup;
  std::vector<double> setup_s;
  Deployment d;
  std::vector<Plan> plans;
  size_t cursor = 0;
  for (int i = 0; i < kSetups; ++i) {
    const bool last = i + 1 == kSetups;
    d.fabric.reset();  // the previous fabric shuts down first
    const int64_t t0 = NowNs();
    d = Deploy(in, in.builds[static_cast<size_t>(i + 1) % kSetups].examples);
    const int64_t t1 = NowNs();
    // Untimed: the answers the checks expect from this model.
    plans = MakePlans(in, d, hot, last && !hot ? SIZE_MAX : warm_count);
    cursor = 0;
    const int64_t t2 = NowNs();
    const LoopResult warm = ClosedLoop(d.fabric.get(), plans, &cursor,
                                       std::min(warm_count, plans.size()), 1e9,
                                       nullptr);
    const int64_t t3 = NowNs();
    report->attempted += warm.completed;
    report->failed += warm.failed;
    setup_s.push_back(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9);
  }
  std::printf("plans: %zu distinct (%s), %zu in flight\n", plans.size(),
              hot ? "warmed into both caches" : "cycled cold", kInFlight);

  const auto timed = [&](SpanStore* spans, Counters* delta) {
    const Counters before = Read(*d.fabric);
    LoopResult r = ClosedLoop(d.fabric.get(), plans, &cursor, UINT64_MAX,
                              opt.seconds, spans);
    *delta = Delta(before, Read(*d.fabric));
    report->attempted += r.completed;
    report->failed += r.failed;
    return r;
  };
  Counters c;
  const LoopResult r = timed(nullptr, &c);
  const double qps = static_cast<double>(r.completed) / r.wall_s;
  const double route_share = Share(c.route_hits, r.completed);
  const double cache_share = Share(c.cache_hits, c.requests);
  if (hot) {
    report->Check("serve-hot: every timed request hits the route cache",
                  c.route_hits == r.completed);
    report->Check("serve-hot: every timed request hits the result cache",
                  c.cache_hits == r.completed);
  } else {
    report->Check("serve-cold: no timed request hits the route cache",
                  c.route_hits == 0);
    // The golf and bowling experts' few hundred plans do fit their caches.
    report->Check("serve-cold: no timed request hits the feather expert's "
                  "result cache",
                  c.feather_cache_hits == 0);
  }
  std::printf("timed: %llu requests in %.3f s, route-hit share %.4f, "
              "result-cache share %.4f, mean batch %.2f\n",
              static_cast<unsigned long long>(r.completed), r.wall_s,
              route_share, cache_share, Share(c.batched, c.batches));

  report->E2e("setup_s", Median(setup_s), "s");
  report->E2e("lat_p50_us", r.latency_us.Quantile(0.50), "us");
  report->E2e("rss_mb", PeakRssMb(), "MB");
  report->Layer("diag.samples", static_cast<double>(r.latency_us.size()), "count");
  report->Layer("diag.qps", qps, "1/s");
  report->Layer("diag.lat_p90_us", r.latency_us.Quantile(0.90), "us");
  report->Layer("diag.lat_p99_us", r.latency_us.Quantile(0.99), "us");
  if (!opt.trace) return;

  // The traced run: the same loop again with spans, then the single-layer
  // replays.
  SpanStore spans;
  Counters tc;
  const LoopResult tr = timed(&spans, &tc);
  const double batch_mean = Share(tc.batched, tc.batches);
  report->Layer("fabric.submit_us", spans.MeanUs("fabric.submit"), "us");
  report->Layer("fabric.route_hit_share", Share(tc.route_hits, tr.completed), "ratio");
  report->Layer("client.wait_us", spans.MeanUs("client.wait"), "us");
  report->Layer("client.own_us", spans.MeanUs("client.own"), "us");
  report->Layer("serve.service_us", spans.MeanUs("serve.service"), "us");
  report->Layer("serve.wake_us", spans.MeanUs("serve.wake"), "us");
  report->Layer("serve.cache_hit_share", Share(tc.cache_hits, tc.requests), "ratio");
  report->Layer("serve.batch_mean", batch_mean, "count");
  ReplayServeLayers(plans, d,
                    std::max<size_t>(1, static_cast<size_t>(batch_mean + 0.5)),
                    &spans, report);
  report->Layer("core.predict_us", spans.MeanUs("core.predict"), "us");
  report->Layer("serve.fallback_us", spans.MeanUs("serve.fallback"), "us");

  // The training inside set-up, stage by stage.
  report->Check("replayed training is byte-identical to the served model",
                ReplayTwoStepTrain(in.train(), &spans, 0) ==
                    TrainDigest(*d.model));
  report->Layer("ml.preprocess_ms", spans.TotalNs("ml.preprocess") / 1e6, "ms");
  report->Layer("ml.kcca_train_ms", spans.TotalNs("ml.kcca_train") / 1e6, "ms");
  report->Layer("ml.kdtree_build_ms", spans.TotalNs("ml.kdtree_build") / 1e6, "ms");
  report->Layer("ml.self_knn_ms", spans.TotalNs("ml.self_knn") / 1e6, "ms");

  // The client thread is the serial step: per request it is inside
  // Fabric::Submit, looking for a ready verdict, or doing its own work.
  const double per_request_us = tr.wall_s * 1e6 / static_cast<double>(tr.completed);
  const double layers_us = spans.MeanUs("fabric.submit") +
                           spans.MeanUs("client.wait") +
                           spans.MeanUs("client.own");
  const double ratio = layers_us / per_request_us;
  report->Layer("reconcile.ratio", ratio, "ratio");
  report->Check("layers reconcile with end to end within 10%",
                ratio >= 0.9 && ratio <= 1.1);
  report->Layer("trace.overhead_pct",
                (tr.latency_us.Quantile(0.5) / r.latency_us.Quantile(0.5) -
                 1.0) * 100.0,
                "%");
  if (!opt.spans_out.empty() && !spans.Write(opt.spans_out)) {
    report->Check("spans written to " + opt.spans_out, false);
  }
}

}  // namespace qpp::ledger
