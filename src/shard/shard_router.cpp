#include "shard/shard_router.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"
#include "obs/request_context.h"
#include "serve/cost_fallback.h"

namespace qpp::shard {

namespace {

/// Same FNV-1a-over-bit-patterns the service cache uses, but returning the
/// full 64-bit value for replica selection under hash routing.
uint64_t FeatureBits(const linalg::Vector& v) {
  return static_cast<uint64_t>(
      serve::PredictionService::FeatureHash{}(v));
}

obs::TraceEvent InstantEvent(obs::TraceRecorder* trace, const char* name) {
  obs::TraceEvent e;
  e.phase = 'i';
  e.name = name;
  e.category = "shard";
  e.pid = obs::TraceRecorder::kServicePid;
  e.tid = trace->CurrentThreadTid();
  e.ts_us = trace->NowMicros();
  // Submit installs the request's context before any routing work, so
  // escalation/exhausted instants correlate with the request's spans.
  const obs::RequestContext& ctx = obs::CurrentRequestContext();
  if (ctx.valid()) {
    e.args.emplace_back("trace_id",
                        "\"" + obs::TraceIdHex(ctx.trace_id) + "\"");
  }
  return e;
}

}  // namespace

const char* RoutingPolicyName(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kClassifier: return "classifier";
    case RoutingPolicy::kOptimizerCost: return "optimizer-cost";
    case RoutingPolicy::kHash: return "hash";
  }
  return "?";
}

ShardRouterConfig MakePerPoolConfig(serve::ServiceConfig base) {
  ShardRouterConfig config;
  for (const workload::QueryType type :
       {workload::QueryType::kFeather, workload::QueryType::kGolfBall,
        workload::QueryType::kBowlingBall,
        workload::QueryType::kWreckingBall}) {
    ShardSpec spec;
    spec.name = workload::QueryTypeName(type);
    spec.pools = {type};
    spec.service = base;
    config.shards.push_back(std::move(spec));
  }
  ShardSpec catch_all;
  catch_all.name = "one-model";
  catch_all.service = base;
  config.shards.push_back(std::move(catch_all));
  return config;
}

std::string ShardStatsSnapshot::ToString() const {
  std::string out = StrFormat(
      "router: classified %llu | route-cache hits %llu | escalations "
      "dead %llu open %llu overloaded %llu | exhausted-fallbacks %llu\n",
      static_cast<unsigned long long>(classified),
      static_cast<unsigned long long>(route_cache_hits),
      static_cast<unsigned long long>(escalations_dead),
      static_cast<unsigned long long>(escalations_open),
      static_cast<unsigned long long>(escalations_overloaded),
      static_cast<unsigned long long>(fallback_exhausted));
  for (const PerShard& s : shards) {
    out += StrFormat(
        "  %-14s gen %llu  routed %llu  absorbed %llu  cache %llu  "
        "model %llu  fallbacks %llu\n",
        (s.name + (s.catch_all ? "*" : "")).c_str(),
        static_cast<unsigned long long>(s.generation),
        static_cast<unsigned long long>(s.routed),
        static_cast<unsigned long long>(s.absorbed),
        static_cast<unsigned long long>(s.service.cache_hits),
        static_cast<unsigned long long>(s.service.model_predictions),
        static_cast<unsigned long long>(s.service.fallbacks()));
  }
  return out;
}

ShardRouter::ShardRouter(ShardRouterConfig config,
                         serve::CostCalibration calibration)
    : policy_(config.policy),
      open_probe_every_(std::max<size_t>(1, config.open_probe_every)),
      calibration_(calibration),
      trace_(config.trace),
      faults_(config.faults),
      route_cache_(config.route_cache_capacity) {
  QPP_CHECK_MSG(!config.shards.empty(), "router needs at least one shard");
  classified_ = metrics_.GetCounter("qpp_shard_classified_total");
  route_cache_hits_ = metrics_.GetCounter("qpp_shard_route_cache_hits_total");
  fallback_exhausted_ =
      metrics_.GetCounter("qpp_shard_fallback_exhausted_total");
  for (ShardSpec& spec : config.shards) {
    auto shard = std::make_unique<Shard>();
    shard->spec = std::move(spec);
    for (const auto& other : shards_) {
      QPP_CHECK_MSG(other->spec.name != shard->spec.name,
                    "duplicate shard name: " << shard->spec.name);
    }
    shard->registry = std::make_unique<serve::ModelRegistry>();
    serve::ServiceConfig service_config = shard->spec.service;
    service_config.shard_label = shard->spec.name;
    if (service_config.trace == nullptr) service_config.trace = trace_;
    if (service_config.faults == nullptr) service_config.faults = faults_;
    if (service_config.shadow == nullptr) service_config.shadow = config.shadow;
    shard->service = std::make_unique<serve::PredictionService>(
        shard->registry.get(), service_config, calibration_);
    const obs::Labels labels = {{"shard", shard->spec.name}};
    shard->routed = metrics_.GetCounter("qpp_shard_requests_total", labels);
    shard->absorbed = metrics_.GetCounter("qpp_shard_absorbed_total", labels);
    shard->escalated_dead = metrics_.GetCounter(
        "qpp_shard_escalations_total",
        {{"shard", shard->spec.name}, {"reason", "dead"}});
    shard->escalated_open = metrics_.GetCounter(
        "qpp_shard_escalations_total",
        {{"shard", shard->spec.name}, {"reason", "circuit-open"}});
    shard->escalated_overloaded = metrics_.GetCounter(
        "qpp_shard_escalations_total",
        {{"shard", shard->spec.name}, {"reason", "overloaded"}});
    if (shard->spec.pools.empty()) {
      QPP_CHECK_MSG(catch_all_ == nullptr,
                    "more than one catch-all shard configured");
      catch_all_ = shard.get();
    } else {
      experts_.push_back(shard.get());
    }
    shards_.push_back(std::move(shard));
  }
  QPP_CHECK_MSG(catch_all_ != nullptr,
                "router needs a catch-all shard (one spec with empty pools)");
  if (faults_ != nullptr && faults_->plan().serve.shard_targeted() &&
      registry(faults_->plan().serve.target_shard) != nullptr) {
    // Default kill semantics: the targeted shard loses its model. The
    // harness may overwrite this hook with its own.
    serve::ModelRegistry* target =
        registry(faults_->plan().serve.target_shard);
    faults_->set_shard_kill_hook([target] { target->Unpublish(); });
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

void ShardRouter::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    for (auto& shard : shards_) shard->service->Shutdown();
  });
}

serve::ModelRegistry* ShardRouter::registry(const std::string& shard_name) {
  for (auto& shard : shards_) {
    if (shard->spec.name == shard_name) return shard->registry.get();
  }
  return nullptr;
}

serve::PredictionService* ShardRouter::service(
    const std::string& shard_name) {
  for (auto& shard : shards_) {
    if (shard->spec.name == shard_name) return shard->service.get();
  }
  return nullptr;
}

const std::string& ShardRouter::catch_all_name() const {
  return catch_all_->spec.name;
}

ShardRouter::Shard* ShardRouter::ExpertFor(workload::QueryType pool,
                                           const linalg::Vector& features) {
  Shard* first = nullptr;
  size_t replicas = 0;
  for (Shard* expert : experts_) {
    for (const workload::QueryType p : expert->spec.pools) {
      if (p != pool) continue;
      if (first == nullptr) first = expert;
      ++replicas;
      break;
    }
  }
  if (replicas <= 1) return first;  // may be null: no expert for this pool
  // Replicated pool: pick by feature bits, a pure function of the request,
  // so replica choice never depends on arrival order or thread count.
  size_t pick = FeatureBits(features) % replicas;
  for (Shard* expert : experts_) {
    for (const workload::QueryType p : expert->spec.pools) {
      if (p != pool) continue;
      if (pick == 0) return expert;
      --pick;
      break;
    }
  }
  return first;
}

ShardRouter::Shard* ShardRouter::Route(const serve::ServeRequest& request) {
  switch (policy_) {
    case RoutingPolicy::kHash: {
      if (experts_.empty()) return catch_all_;
      return experts_[FeatureBits(request.features) % experts_.size()];
    }
    case RoutingPolicy::kOptimizerCost: {
      if (request.optimizer_cost < 0.0) return catch_all_;
      const workload::QueryType pool = workload::ClassifyElapsed(
          calibration_.EstimateSeconds(request.optimizer_cost));
      Shard* expert = ExpertFor(pool, request.features);
      return expert != nullptr ? expert : catch_all_;
    }
    case RoutingPolicy::kClassifier:
      break;
  }
  const serve::ModelRegistry::Snapshot snap = catch_all_->registry->Acquire();
  if (!snap.valid()) {
    // No classifier: the one-model shard owns the request (and will answer
    // with its own labeled no-model fallback).
    return catch_all_;
  }
  RouteVerdict verdict;
  bool cached = false;
  if (route_cache_.capacity() > 0) {
    std::lock_guard<std::mutex> lock(route_cache_mu_);
    cached = route_cache_.Get(request.features, &verdict) &&
             verdict.classifier_generation == snap.generation;
  }
  if (cached) {
    route_cache_hits_->Inc();
  } else {
    {
      obs::Span span(trace_, "classify", "shard");
      verdict.pool = snap.model->Classify(request.features);
    }
    verdict.classifier_generation = snap.generation;
    classified_->Inc();
    if (route_cache_.capacity() > 0) {
      std::lock_guard<std::mutex> lock(route_cache_mu_);
      route_cache_.Put(request.features, verdict);
    }
  }
  Shard* expert = ExpertFor(verdict.pool, request.features);
  return expert != nullptr ? expert : catch_all_;
}

void ShardRouter::TraceEscalation(const Shard& from, const char* reason) {
  if (trace_ == nullptr) return;
  obs::TraceEvent e = InstantEvent(trace_, "escalate");
  e.args.emplace_back("shard",
                      std::string("\"") + from.spec.name + "\"");
  e.args.emplace_back("reason", std::string("\"") + reason + "\"");
  trace_->Add(std::move(e));
}

std::future<serve::ServeResponse> ShardRouter::InlineFallback(
    const serve::ServeRequest& request) {
  fallback_exhausted_->Inc();
  if (trace_ != nullptr) {
    trace_->Add(InstantEvent(trace_, "exhausted"));
  }
  std::promise<serve::ServeResponse> promise;
  std::future<serve::ServeResponse> future = promise.get_future();
  serve::ServeResponse response;
  response.prediction = serve::FallbackPrediction(
      calibration_, request.optimizer_cost, /*anomalous=*/false);
  response.source = serve::ResponseSource::kOptimizerFallback;
  response.degraded_reason = "shards-exhausted";
  response.trace_id = request.ctx.trace_id;
  promise.set_value(std::move(response));
  return future;
}

std::future<serve::ServeResponse> ShardRouter::Submit(
    serve::ServeRequest request) {
  // Routing (classify span, escalations, shard-kill faults) runs under the
  // request's correlation scope so every event it emits carries the id.
  obs::ScopedRequestContext scope(request.ctx);
  Shard* target = Route(request);
  if (faults_ != nullptr && faults_->serve_enabled() &&
      faults_->NextShardKill(target->spec.name)) {
    // Fires before the health check below so the Nth routed request is
    // also the first one the dead shard escalates.
    faults_->FireShardKill();
  }
  std::future<serve::ServeResponse> future;
  if (target != catch_all_) {
    const char* escalation = nullptr;
    if (!target->registry->has_model()) {
      escalation = "dead";
      target->escalated_dead->Inc();
    } else if (target->spec.service.breaker.enabled &&
               target->service->breaker().state() ==
                   serve::CircuitBreaker::State::kOpen &&
               target->open_diversions.fetch_add(
                   1, std::memory_order_relaxed) %
                       open_probe_every_ !=
                   open_probe_every_ - 1) {
      // Divert while open, but let every Nth request through as a probe so
      // the shard's breaker can walk its half-open recovery path.
      escalation = "circuit-open";
      target->escalated_open->Inc();
    } else if (target->service->TrySubmit(request, &future)) {
      target->routed->Inc();
      return future;
    } else {
      escalation = "overloaded";
      target->escalated_overloaded->Inc();
    }
    TraceEscalation(*target, escalation);
    catch_all_->absorbed->Inc();
  } else {
    catch_all_->routed->Inc();
  }
  if (catch_all_->service->TrySubmit(request, &future)) return future;
  // Bottom of the ladder: even the one-model shard refused (queue full or
  // reject storm) — answer inline with the calibrated optimizer estimate.
  return InlineFallback(request);
}

ShardStatsSnapshot ShardRouter::stats() const {
  ShardStatsSnapshot out;
  out.classified = classified_->value();
  out.route_cache_hits = route_cache_hits_->value();
  out.fallback_exhausted = fallback_exhausted_->value();
  for (const auto& shard : shards_) {
    ShardStatsSnapshot::PerShard s;
    s.name = shard->spec.name;
    s.catch_all = shard.get() == catch_all_;
    s.routed = shard->routed->value();
    s.absorbed = shard->absorbed->value();
    s.generation = shard->registry->generation();
    s.service = shard->service->stats();
    out.shards.push_back(std::move(s));
    out.escalations_dead += shard->escalated_dead->value();
    out.escalations_open += shard->escalated_open->value();
    out.escalations_overloaded += shard->escalated_overloaded->value();
  }
  return out;
}

size_t PublishTwoStep(const core::TwoStepPredictor& two_step,
                      ShardRouter* router) {
  QPP_CHECK(router != nullptr && two_step.trained());
  size_t published = 0;
  serve::ModelRegistry* catch_all = router->registry(router->catch_all_name());
  QPP_CHECK(catch_all != nullptr);
  catch_all->Publish(two_step.base());
  ++published;
  for (const workload::QueryType type :
       {workload::QueryType::kFeather, workload::QueryType::kGolfBall,
        workload::QueryType::kBowlingBall,
        workload::QueryType::kWreckingBall}) {
    const core::Predictor* expert = two_step.CategoryModel(type);
    if (expert == nullptr) continue;
    const auto model = std::make_shared<const core::Predictor>(*expert);
    for (size_t i = 0; i < router->num_shards(); ++i) {
      const ShardSpec& spec = router->shard_spec(i);
      if (std::find(spec.pools.begin(), spec.pools.end(), type) ==
          spec.pools.end()) {
        continue;
      }
      router->registry(spec.name)->Publish(model);
      ++published;
    }
  }
  return published;
}

}  // namespace qpp::shard
