#include "fabric/fabric.h"

#include <chrono>
#include <string_view>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "obs/json_util.h"

namespace qpp::fabric {

namespace {

// Step-1 verdict memo entries (exact feature match, classifier-generation
// tagged): the classifier runs once per distinct plan per generation, not
// once per request.
constexpr size_t kRouteCacheCapacity = 4096;
// While a replica's breaker is open its picks are diverted, so the breaker
// would never see the probes it needs to recover; every kOpenProbeEvery-th
// diverted pick is sent through anyway as a recovery probe.
constexpr size_t kOpenProbeEvery = 32;
// Ring capacity of the always-on flight recorder (obs/flight_recorder.h).
constexpr size_t kFlightCapacity = 4096;
// The catch-all group: it serves the base model, which is also the step-1
// classifier.
constexpr const char* kCatchAllGroup = "one-model";
// The `reason` label of each Fabric::Escalation, in its order.
constexpr const char* kEscalationReasons[] = {"dead", "circuit-open",
                                              "overloaded"};

}  // namespace

const char* ReplicaHealthName(ReplicaHealth h) {
  switch (h) {
    case ReplicaHealth::kUp: return "up";
    case ReplicaHealth::kDraining: return "draining";
    case ReplicaHealth::kDead: return "dead";
  }
  return "?";
}

std::string ReplicaLabel(const std::string& group, size_t replica) {
  return group + "#" + std::to_string(replica);
}

FabricConfig MakePerPoolFabricConfig(size_t replicas_per_group,
                                     serve::ServiceConfig base) {
  FabricConfig config;
  config.replicas_per_group = replicas_per_group;
  config.service = std::move(base);
  return config;
}

std::string FabricStatsSnapshot::ToString() const {
  std::string out = StrFormat(
      "fabric: classified %llu | route-cache hits %llu | admitted %llu "
      "shed %llu deferred %llu (drained %llu overflow %llu) | breaches "
      "%llu | drains %llu | escalations dead %llu open %llu overloaded "
      "%llu | exhausted-fallbacks %llu\n",
      static_cast<unsigned long long>(classified),
      static_cast<unsigned long long>(route_cache_hits),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deferred),
      static_cast<unsigned long long>(defer_drained),
      static_cast<unsigned long long>(defer_overflow),
      static_cast<unsigned long long>(slo_breaches),
      static_cast<unsigned long long>(drains),
      static_cast<unsigned long long>(escalations_dead),
      static_cast<unsigned long long>(escalations_open),
      static_cast<unsigned long long>(escalations_overloaded),
      static_cast<unsigned long long>(fallback_exhausted));
  for (const PerGroup& g : groups) {
    out += StrFormat("  %-14s routed %llu  absorbed %llu\n",
                     (g.name + (g.catch_all ? "*" : "")).c_str(),
                     static_cast<unsigned long long>(g.routed),
                     static_cast<unsigned long long>(g.absorbed));
    for (const PerReplica& r : g.replicas) {
      out += StrFormat(
          "    %-14s %-8s gen %llu  picks %llu  cache %llu  model %llu  "
          "fallbacks %llu\n",
          r.label.c_str(), ReplicaHealthName(r.health),
          static_cast<unsigned long long>(r.generation),
          static_cast<unsigned long long>(r.picks),
          static_cast<unsigned long long>(r.service.cache_hits),
          static_cast<unsigned long long>(r.service.model_predictions),
          static_cast<unsigned long long>(r.service.fallbacks()));
    }
  }
  return out;
}

Fabric::Fabric(FabricConfig config, serve::CostCalibration calibration)
    : admission_config_(config.admission),
      p2c_seed_(config.p2c_seed),
      p2c_ignore_depth_(config.p2c_ignore_depth),
      calibration_(calibration),
      trace_(config.trace),
      faults_(config.faults),
      flight_(obs::FlightRecorderOptions{kFlightCapacity}),
      trace_ids_(config.trace_seed),
      admission_(config.admission, &metrics_, &flight_, config.trace),
      route_cache_(kRouteCacheCapacity) {
  QPP_CHECK_MSG(config.replicas_per_group >= 1,
                "every group needs at least one replica");
  classified_ = metrics_.GetCounter("qpp_fabric_classified_total");
  route_cache_hits_ =
      metrics_.GetCounter("qpp_fabric_route_cache_hits_total");
  admitted_ = metrics_.GetCounter("qpp_fabric_admitted_total");
  for (const workload::QueryType type : workload::kQueryTypes) {
    shed_by_pool_[workload::QueryTypeIndex(type)] = metrics_.GetCounter(
        "qpp_fabric_shed_total", {{"pool", workload::QueryTypeName(type)}});
  }
  deferred_ = metrics_.GetCounter("qpp_fabric_deferred_total");
  defer_drained_ = metrics_.GetCounter("qpp_fabric_defer_drained_total");
  defer_overflow_ = metrics_.GetCounter("qpp_fabric_defer_overflow_total");
  slo_breaches_ = metrics_.GetCounter("qpp_fabric_slo_breach_total");
  drains_ = metrics_.GetCounter("qpp_fabric_drains_total");
  fallback_exhausted_ =
      metrics_.GetCounter("qpp_fabric_fallback_exhausted_total");
  deferred_pending_ = metrics_.GetGauge("qpp_fabric_deferred_pending");

  std::vector<std::string> names;
  for (const workload::QueryType type : workload::kQueryTypes) {
    names.push_back(workload::QueryTypeName(type));
  }
  names.push_back(kCatchAllGroup);
  for (const std::string& name : names) {
    auto group = std::make_unique<Group>();
    group->name = name;
    const obs::Labels group_labels = {{"group", name}};
    group->routed =
        metrics_.GetCounter("qpp_fabric_requests_total", group_labels);
    group->absorbed =
        metrics_.GetCounter("qpp_fabric_absorbed_total", group_labels);
    for (int reason = 0; reason < kNumEscalations; ++reason) {
      group->escalated[reason] = metrics_.GetCounter(
          "qpp_fabric_escalations_total",
          {{"group", name}, {"reason", kEscalationReasons[reason]}});
    }
    for (size_t i = 0; i < config.replicas_per_group; ++i) {
      auto replica = std::make_unique<Replica>();
      replica->label = ReplicaLabel(name, i);
      replica->registry = std::make_unique<serve::ModelRegistry>();
      serve::ServiceConfig service_config = config.service;
      service_config.shard_label = replica->label;
      service_config.trace = trace_;
      service_config.faults = faults_;
      if (admission_config_.enabled) {
        // Every replica feeds the front door's windowed-p99 signal.
        AdmissionController* admission = &admission_;
        service_config.on_response =
            [admission](const serve::ServeResponse& response) {
              admission->RecordLatency(response.latency_seconds);
            };
      }
      replica->service = std::make_unique<serve::PredictionService>(
          replica->registry.get(), service_config, calibration_);
      if (service_config.breaker.enabled) {
        // Every breaker flip of every replica lands in the black box.
        obs::FlightRecorder* flight = &flight_;
        const std::string label = replica->label;
        replica->service->mutable_breaker()->set_transition_hook(
            [flight, label](serve::CircuitBreaker::State from,
                            serve::CircuitBreaker::State to) {
              flight->Record(obs::FlightEventKind::kBreakerTransition,
                             /*trace_id=*/0, static_cast<int32_t>(to),
                             static_cast<double>(from), label);
            });
      }
      replica->picks = metrics_.GetCounter(
          "qpp_fabric_replica_picks_total",
          {{"group", name}, {"replica", std::to_string(i)}});
      group->replicas.push_back(std::move(replica));
    }
    groups_.push_back(std::move(group));
  }
  catch_all_ = groups_.back().get();

  if (faults_ != nullptr) {
    // Injected faults go into our black box too; detached in ~Fabric —
    // the injector outlives the fabric per the config contract.
    faults_->set_flight_recorder(&flight_);
  }
}

Fabric::~Fabric() {
  Shutdown();
  if (faults_ != nullptr) faults_->set_flight_recorder(nullptr);
}

void Fabric::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    // Deferred requests were accepted (their futures are out there):
    // dispatch them now, before the replicas stop. Any the replicas
    // refuse fall through to the inline fallback as usual.
    std::vector<DeferredRequest> leftovers;
    {
      std::lock_guard<std::mutex> lock(deferred_mu_);
      while (!deferred_queue_.empty()) {
        leftovers.push_back(std::move(deferred_queue_.front()));
        deferred_queue_.pop_front();
      }
      deferred_pending_->Set(0.0);
    }
    for (DeferredRequest& d : leftovers) DispatchDeferred(&d);
    for (auto& group : groups_) {
      for (auto& replica : group->replicas) replica->service->Shutdown();
    }
  });
}

Fabric::Group* Fabric::FindGroup(const std::string& name) const {
  for (const auto& g : groups_) {
    if (g->name == name) return g.get();
  }
  return nullptr;
}

Fabric::Replica* Fabric::FindReplica(const std::string& group,
                                     size_t replica) const {
  const Group* g = FindGroup(group);
  if (g == nullptr || replica >= g->replicas.size()) return nullptr;
  return g->replicas[replica].get();
}

serve::ModelRegistry* Fabric::registry(const std::string& group,
                                       size_t replica) {
  Replica* r = FindReplica(group, replica);
  return r == nullptr ? nullptr : r->registry.get();
}

serve::PredictionService* Fabric::service(const std::string& group,
                                          size_t replica) {
  Replica* r = FindReplica(group, replica);
  return r == nullptr ? nullptr : r->service.get();
}

ReplicaHealth Fabric::health(const std::string& group, size_t replica) const {
  const Replica* r = FindReplica(group, replica);
  QPP_CHECK_MSG(r != nullptr, "unknown replica: " << group << "#" << replica);
  return r->health.load(std::memory_order_relaxed);
}

void Fabric::SetReplicaHealth(const std::string& group, size_t replica,
                              ReplicaHealth health) {
  Replica* r = FindReplica(group, replica);
  QPP_CHECK_MSG(r != nullptr, "unknown replica: " << group << "#" << replica);
  r->health.store(health, std::memory_order_relaxed);
  flight_.Record(obs::FlightEventKind::kHealthChange, /*trace_id=*/0,
                 static_cast<int32_t>(health), 0.0, r->label);
  if (trace_ != nullptr) {
    TraceInstant("health", "replica",
                 r->label + "=" + ReplicaHealthName(health));
  }
}

bool Fabric::DrainSwapRevive(const std::string& group, size_t replica,
                             std::shared_ptr<const core::Predictor> model) {
  Replica* r = FindReplica(group, replica);
  if (r == nullptr) return false;
  SetReplicaHealth(group, replica, ReplicaHealth::kDraining);
  // The replica takes no new picks now; wait (bounded) for what it
  // already queued. Sequential harnesses see an empty queue immediately.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (r->service->queue_depth() > 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  r->registry->Publish(std::move(model));
  SetReplicaHealth(group, replica, ReplicaHealth::kUp);
  drains_->Inc();
  flight_.Record(obs::FlightEventKind::kSwap, /*trace_id=*/0, /*code=*/0,
                 0.0, r->label);
  TraceInstant("drain-swap-revive", "replica", r->label);
  return true;
}

size_t Fabric::replica_count(const std::string& group) const {
  const Group* g = FindGroup(group);
  return g == nullptr ? 0 : g->replicas.size();
}

const std::string& Fabric::catch_all_name() const {
  return catch_all_->name;
}

size_t Fabric::TotalQueueDepth() const {
  size_t depth = 0;
  for (const auto& group : groups_) {
    for (const auto& replica : group->replicas) {
      depth += replica->service->queue_depth();
    }
  }
  return depth;
}

Fabric::RouteVerdict Fabric::Classify(const serve::ServeRequest& request) {
  RouteVerdict verdict;
  // The classifier is the catch-all group's model; replicas serve the same
  // bits, so any up replica with a model will do (falling back to any
  // replica with one — a draining classifier still classifies).
  serve::ModelRegistry::Snapshot snap;
  for (const auto& replica : catch_all_->replicas) {
    if (replica->health.load(std::memory_order_relaxed) ==
        ReplicaHealth::kDead) {
      continue;
    }
    snap = replica->registry->Acquire();
    if (snap.valid()) break;
  }
  if (!snap.valid()) {
    for (const auto& replica : catch_all_->replicas) {
      snap = replica->registry->Acquire();
      if (snap.valid()) break;
    }
  }
  if (!snap.valid()) return verdict;  // no classifier anywhere: generation 0
  bool cached = false;
  {
    std::lock_guard<std::mutex> lock(route_cache_mu_);
    cached = route_cache_.Get(request.features, &verdict) &&
             verdict.classifier_generation == snap.generation;
  }
  if (cached) {
    route_cache_hits_->Inc();
    return verdict;
  }
  {
    obs::Span span(trace_, "classify", "fabric");
    verdict.pool = snap.model->Classify(request.features);
  }
  verdict.classifier_generation = snap.generation;
  classified_->Inc();
  {
    std::lock_guard<std::mutex> lock(route_cache_mu_);
    route_cache_.Put(request.features, verdict);
  }
  return verdict;
}

Fabric::Replica* Fabric::PickReplica(Group* group, bool require_model,
                                     Escalation* reason) {
  // Eligible = up, serving a model (experts only), breaker not open — but
  // every kOpenProbeEvery-th pick of an open-breaker replica goes through
  // anyway as a recovery probe, so its breaker can walk the half-open path
  // back to closed.
  std::vector<Replica*> ups;
  ups.reserve(group->replicas.size());
  size_t open_excluded = 0;
  for (auto& replica : group->replicas) {
    if (replica->health.load(std::memory_order_relaxed) !=
        ReplicaHealth::kUp) {
      continue;
    }
    if (require_model && !replica->registry->has_model()) continue;
    if (replica->service->config().breaker.enabled &&
        replica->service->breaker().state() ==
            serve::CircuitBreaker::State::kOpen &&
        replica->open_diversions.fetch_add(1, std::memory_order_relaxed) %
                kOpenProbeEvery !=
            kOpenProbeEvery - 1) {
      ++open_excluded;
      continue;
    }
    ups.push_back(replica.get());
  }
  if (ups.empty()) {
    *reason = open_excluded > 0 ? kCircuitOpen : kDead;
    return nullptr;
  }
  if (ups.size() == 1) return ups[0];
  // Power of two choices with a keyed draw: candidates and the tie-break
  // come from one SplitMix64 stream consumed per pick, so a sequentially
  // driven fabric replays its pick sequence bit-for-bit.
  const uint64_t seq = group->pick_seq.fetch_add(1, std::memory_order_relaxed);
  const uint64_t draw_a = SplitMix64(p2c_seed_ ^ SplitMix64(seq));
  const uint64_t draw_b = SplitMix64(draw_a);
  Replica* a = ups[draw_a % ups.size()];
  Replica* b = ups[draw_b % ups.size()];
  if (a == b) return a;
  if (!p2c_ignore_depth_) {
    const size_t depth_a = a->service->queue_depth();
    const size_t depth_b = b->service->queue_depth();
    if (depth_a != depth_b) return depth_a < depth_b ? a : b;
  }
  return (draw_b >> 63) != 0 ? b : a;
}

void Fabric::TraceInstant(const char* name, const char* detail_key,
                          std::string_view detail) {
  if (trace_ == nullptr) return;
  trace_->Instant(name, "fabric", {{detail_key, obs::JsonString(detail)}});
}

void Fabric::RespondShed(const serve::ServeRequest& request,
                         std::promise<serve::ServeResponse>* promise,
                         workload::QueryType pool) {
  shed_by_pool_[workload::QueryTypeIndex(pool)]->Inc();
  TraceInstant("admission-shed", "pool", workload::QueryTypeName(pool));
  flight_.Record(obs::FlightEventKind::kFallback, request.ctx.trace_id,
                 static_cast<int32_t>(pool), 0.0, "admission-shed");
  promise->set_value(
      serve::FallbackResponse(calibration_, request, "admission-shed"));
}

void Fabric::RespondExhausted(const serve::ServeRequest& request,
                              std::promise<serve::ServeResponse>* promise) {
  fallback_exhausted_->Inc();
  // Dispatch installed the request's context, so the event carries its id.
  if (trace_ != nullptr) trace_->Instant("exhausted", "fabric");
  flight_.Record(obs::FlightEventKind::kFallback, request.ctx.trace_id,
                 /*code=*/0, 0.0, "fabric-exhausted");
  promise->set_value(
      serve::FallbackResponse(calibration_, request, "fabric-exhausted"));
}

void Fabric::Dispatch(const serve::ServeRequest& request,
                      std::promise<serve::ServeResponse>* promise,
                      const RouteVerdict& verdict) {
  // Deferred-drain and shutdown dispatches arrive outside Submit's scope;
  // reinstall the request's identity for picks, escalations, and faults.
  obs::ScopedRequestContext scope(request.ctx);
  // No classifier: the catch-all owns the request (and answers with its
  // own labeled no-model fallback) rather than an expert it never voted.
  if (verdict.classified()) {
    Group* expert = GroupFor(verdict.pool);
    Escalation escalation = kDead;
    Replica* replica = PickReplica(expert, /*require_model=*/true,
                                   &escalation);
    if (replica != nullptr) {
      replica->picks->Inc();
      flight_.Record(obs::FlightEventKind::kPick, request.ctx.trace_id,
                     /*code=*/0, 0.0, replica->label);
      // Fires before the dispatch below so the Nth pick is also the first
      // one the dead replica forces to re-route.
      MaybeKill(replica);
      if (replica->health.load(std::memory_order_relaxed) ==
              ReplicaHealth::kUp &&
          replica->registry->has_model() &&
          replica->service->TrySubmit(request, promise)) {
        expert->routed->Inc();
        return;
      }
      // The pick went stale under us (killed mid-flight) or its queue
      // refused: either way the group could not take it.
      escalation = replica->registry->has_model() ? kOverloaded : kDead;
    }
    expert->escalated[escalation]->Inc();
    if (trace_ != nullptr) {
      TraceInstant("escalate", "group",
                   expert->name + ":" + kEscalationReasons[escalation]);
    }
    flight_.Record(obs::FlightEventKind::kEscalation, request.ctx.trace_id,
                   escalation, 0.0, expert->name);
    catch_all_->absorbed->Inc();
  } else {
    catch_all_->routed->Inc();
  }
  Escalation unused = kDead;
  Replica* replica = PickReplica(catch_all_, /*require_model=*/false,
                                 &unused);
  if (replica != nullptr) {
    replica->picks->Inc();
    flight_.Record(obs::FlightEventKind::kPick, request.ctx.trace_id,
                   /*code=*/0, 0.0, replica->label);
    MaybeKill(replica);
    if (replica->health.load(std::memory_order_relaxed) !=
            ReplicaHealth::kDead &&
        replica->service->TrySubmit(request, promise)) {
      return;
    }
  }
  // Bottom of the ladder: no catch-all replica could take it.
  RespondExhausted(request, promise);
}

void Fabric::MaybeKill(Replica* replica) {
  if (faults_ == nullptr || !faults_->serve_enabled() ||
      !faults_->NextReplicaKill(replica->label)) {
    return;
  }
  // The injected kill: the replica drops dead and loses its model (its
  // registry keeps the generation count); its group peers absorb the
  // traffic.
  replica->health.store(ReplicaHealth::kDead, std::memory_order_relaxed);
  replica->registry->Unpublish();
}

void Fabric::DrainDeferred() {
  // Piggyback draining: dispatch a few parked requests whenever the
  // signal is clear. Runs on the submitting client's thread.
  for (size_t i = 0; i < kDeferDrainPerSubmit; ++i) {
    DeferredRequest d;
    {
      std::lock_guard<std::mutex> lock(deferred_mu_);
      if (deferred_queue_.empty()) return;
      d = std::move(deferred_queue_.front());
      deferred_queue_.pop_front();
      deferred_pending_->Set(static_cast<double>(deferred_queue_.size()));
    }
    DispatchDeferred(&d);
  }
}

void Fabric::DispatchDeferred(DeferredRequest* deferred) {
  defer_drained_->Inc();
  obs::ScopedRequestContext scope(deferred->request.ctx);
  flight_.Record(obs::FlightEventKind::kDeferDrained,
                 deferred->request.ctx.trace_id);
  Dispatch(deferred->request, &deferred->promise,
           Classify(deferred->request));
}

std::future<serve::ServeResponse> Fabric::Submit(serve::ServeRequest request) {
  // The front door stamps the correlation id (unless the caller already
  // did) and installs it for everything this thread does on the request's
  // behalf: classification, the admission verdict, dispatch, fault draws.
  if (!request.ctx.valid()) request.ctx = trace_ids_.Next();
  obs::ScopedRequestContext scope(request.ctx);
  std::promise<serve::ServeResponse> promise;
  std::future<serve::ServeResponse> future = promise.get_future();
  const RouteVerdict verdict = Classify(request);
  if (admission_config_.enabled) {
    const LoadSignal signal = admission_.Signal(TotalQueueDepth());
    const bool breached = admission_.Breached(signal);
    if (breached) {
      slo_breaches_->Inc();
      flight_.Record(obs::FlightEventKind::kSloBreach, request.ctx.trace_id,
                     static_cast<int32_t>(verdict.pool),
                     signal.windowed_p99_seconds);
    }
    switch (admission_.Decide(verdict.pool, signal)) {
      case AdmissionAction::kShed:
        flight_.Record(obs::FlightEventKind::kAdmissionShed,
                       request.ctx.trace_id,
                       static_cast<int32_t>(verdict.pool),
                       static_cast<double>(signal.queue_depth));
        RespondShed(request, &promise, verdict.pool);
        return future;
      case AdmissionAction::kDefer: {
        bool parked = false;
        {
          std::lock_guard<std::mutex> lock(deferred_mu_);
          if (deferred_queue_.size() < admission_config_.max_deferred) {
            DeferredRequest d;
            d.request = std::move(request);
            d.promise = std::move(promise);
            deferred_queue_.push_back(std::move(d));
            deferred_pending_->Set(
                static_cast<double>(deferred_queue_.size()));
            parked = true;
          }
        }
        if (parked) {
          deferred_->Inc();
          flight_.Record(obs::FlightEventKind::kAdmissionDefer,
                         obs::CurrentRequestContext().trace_id,
                         static_cast<int32_t>(verdict.pool),
                         static_cast<double>(signal.queue_depth));
          TraceInstant("defer", "pool",
                       workload::QueryTypeName(verdict.pool));
          return future;
        }
        // Defer buffer full: degrade to a shed rather than block.
        defer_overflow_->Inc();
        flight_.Record(obs::FlightEventKind::kDeferOverflow,
                       request.ctx.trace_id,
                       static_cast<int32_t>(verdict.pool),
                       static_cast<double>(signal.queue_depth));
        RespondShed(request, &promise, verdict.pool);
        return future;
      }
      case AdmissionAction::kAdmit:
        break;
    }
    admitted_->Inc();
    flight_.Record(obs::FlightEventKind::kAdmissionAdmit,
                   request.ctx.trace_id,
                   static_cast<int32_t>(verdict.pool));
    if (!breached) DrainDeferred();
  } else {
    admitted_->Inc();
  }
  Dispatch(request, &promise, verdict);
  return future;
}

FabricStatsSnapshot Fabric::stats() const {
  FabricStatsSnapshot out;
  out.classified = classified_->value();
  out.route_cache_hits = route_cache_hits_->value();
  out.admitted = admitted_->value();
  for (const obs::Counter* c : shed_by_pool_) out.shed += c->value();
  out.deferred = deferred_->value();
  out.defer_drained = defer_drained_->value();
  out.defer_overflow = defer_overflow_->value();
  out.slo_breaches = slo_breaches_->value();
  out.drains = drains_->value();
  out.fallback_exhausted = fallback_exhausted_->value();
  for (const auto& group : groups_) {
    FabricStatsSnapshot::PerGroup g;
    g.name = group->name;
    g.catch_all = group.get() == catch_all_;
    g.routed = group->routed->value();
    g.absorbed = group->absorbed->value();
    for (const auto& replica : group->replicas) {
      FabricStatsSnapshot::PerReplica r;
      r.label = replica->label;
      r.health = replica->health.load(std::memory_order_relaxed);
      r.generation = replica->registry->generation();
      r.picks = replica->picks->value();
      r.service = replica->service->stats();
      g.replicas.push_back(std::move(r));
    }
    out.groups.push_back(std::move(g));
    out.escalations_dead += group->escalated[kDead]->value();
    out.escalations_open += group->escalated[kCircuitOpen]->value();
    out.escalations_overloaded += group->escalated[kOverloaded]->value();
  }
  return out;
}

size_t PublishTwoStep(const core::TwoStepPredictor& two_step,
                      Fabric* fabric) {
  QPP_CHECK(fabric != nullptr && two_step.trained());
  size_t published = 0;
  const auto publish = [&](const std::string& group,
                           const core::Predictor& model) {
    const auto shared = std::make_shared<const core::Predictor>(model);
    for (size_t i = 0; i < fabric->replica_count(group); ++i) {
      fabric->registry(group, i)->Publish(shared);
      ++published;
    }
  };
  publish(fabric->catch_all_name(), two_step.base());
  for (const workload::QueryType type : workload::kQueryTypes) {
    const core::Predictor* expert = two_step.CategoryModel(type);
    if (expert != nullptr) publish(workload::QueryTypeName(type), *expert);
  }
  return published;
}

}  // namespace qpp::fabric
