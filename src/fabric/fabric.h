// Replicated per-pool serving: the paper's two-step design (classify a
// query as feather / golf ball / bowling ball, then predict with a
// pool-specific expert model — Experiment 3, Fig. 14) lifted from the
// offline core::TwoStepPredictor into the serving layer, in the shape of a
// mixture-of-experts / model-selection router (Jacobs et al.; Crankshaw et
// al., NSDI'17), with replica groups per expert and prediction-aware
// admission control at the front door.
//
//   client ──Submit()──▶ classify (step-1, cached)
//                          │ admission: shed / defer heavies on SLO breach
//                          ▼
//                        expert replica group ── power-of-two-choices ──▶
//                          │ no up replica / breaker open / refused?     │
//                          ▼                                             ▼
//                        catch-all replica group            one PredictionService
//                          │ refused?                       per replica (own
//                          ▼                                registry, queue,
//                        inline optimizer-cost fallback     workers, breaker)
//
// The step-1 classifier is the catch-all group's model. With none
// published anywhere there is no verdict to route by, so the catch-all
// owns the request and answers with its own labeled no-model fallback.
//
// The shape is the pool set's (workload/pools.h), by construction: one
// expert group per workload::QueryType, then the "one-model" catch-all.
// Each group is N independent serve::PredictionService instances behind
// one name ("feather#0", "feather#1", ...), all built from one
// ServiceConfig. Replicas of a group serve the same model bits, so
// replica choice never changes an answer — it only spreads load. The
// spread is power-of-two-choices: draw two candidate replicas from a
// keyed RNG stream (seeded by FabricConfig::p2c_seed and a per-group pick
// sequence number), dispatch to the one with the shallower queue, break
// ties with a keyed coin from the same draw. Under sequential driving the
// whole pick sequence — candidates, depths (all zero), tie-breaks —
// replays bit-for-bit; under concurrent traffic the draw sequence is
// still fixed, only which request consumes which draw varies (the same
// contract fault injection gives).
//
// Per-replica health (up / draining / dead) turns hot-swaps and chaos
// kills into rolling operations: a draining replica takes no new picks
// but finishes its queue, a dead one is routed around, and the group
// stays serving throughout. DrainSwapRevive() is the one-replica rolling
// publish; chaos's rolling-drain scenario walks it across a group under
// fire.
//
// Determinism contract: for a fixed set of published models, every
// response answered by an expert group is bit-identical to the offline
// core::TwoStepPredictor::Predict, and every response absorbed by the
// catch-all is bit-identical to its base model — regardless of replica
// count, worker threads, client threads, batching, caching, or which
// replica answered. Routing is a pure function of (request, published
// models): the route cache only memoizes step-1 verdicts, keyed by exact
// feature bits + classifier generation. The one deliberate deviation is
// `Prediction::predicted_type`, which carries the answering expert's own
// neighbor vote rather than the step-1 vote; the step-1 pool is the group
// named in `ServeResponse::shard`. Admission produces labeled
// degradations ("admission-shed"), never silently altered predictions;
// deferred requests are answered by the normal model path once
// dispatched. See docs/FABRIC.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/two_step.h"
#include "fabric/admission.h"
#include "fault/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "serve/lru_cache.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "workload/pools.h"

namespace qpp::fabric {

enum class ReplicaHealth : int {
  kUp = 0,    ///< eligible for new picks
  kDraining,  ///< no new picks; finishes what it has queued
  kDead,      ///< routed around entirely
};

const char* ReplicaHealthName(ReplicaHealth h);

/// "group#index" — the replica's service shard_label, response stamp, and
/// fault-plan target key (ServeFaultSpec::target_replica_label).
std::string ReplicaLabel(const std::string& group, size_t replica);

struct FabricConfig {
  /// Replicas in each group (independent services behind one name).
  size_t replicas_per_group = 2;
  /// Every replica's queue/batch/cache/breaker settings. `trace`,
  /// `faults`, `shard_label`, and `on_response` are stamped by the
  /// fabric; leave them unset.
  serve::ServiceConfig service;
  AdmissionConfig admission;
  /// Key for the power-of-two-choices draw stream. Two fabrics with the
  /// same seed, shape, and (sequential) request sequence make identical
  /// picks.
  uint64_t p2c_seed = 0xFAB51Cull;
  /// Deterministic-harness mode: P2C skips the live queue-depth comparison
  /// (timing-dependent by nature — a just-dispatched request may or may
  /// not have been popped yet) and resolves every two-candidate choice
  /// with its keyed coin. The fabric soak sets this so per-replica pick
  /// counts replay byte-for-byte even while deferred dispatches overlap
  /// in-flight traffic; live serving leaves it off and gets real
  /// shallower-queue-wins spreading.
  bool p2c_ignore_depth = false;
  /// Key for the deterministic trace-id stream: request n of a fabric's
  /// life gets DeriveTraceId(trace_seed, n) stamped at Submit (unless the
  /// caller stamped its own). Same seed + same request sequence = same ids.
  uint64_t trace_seed = 0xFAB0B5ull;
  /// Optional sinks, shared by all replicas; must outlive the fabric.
  obs::TraceRecorder* trace = nullptr;
  fault::FaultInjector* faults = nullptr;
};

/// A FabricConfig with `replicas_per_group` replicas per group, each
/// running `base`, and every other field at its default.
FabricConfig MakePerPoolFabricConfig(size_t replicas_per_group,
                                     serve::ServiceConfig base = {});

struct FabricStatsSnapshot {
  struct PerReplica {
    std::string label;
    ReplicaHealth health = ReplicaHealth::kUp;
    uint64_t generation = 0;
    uint64_t picks = 0;  ///< times the P2C spread dispatched here
    serve::ServiceStatsSnapshot service;
  };
  struct PerGroup {
    std::string name;
    bool catch_all = false;
    uint64_t routed = 0;    ///< requests dispatched here as first choice
    uint64_t absorbed = 0;  ///< requests escalated into this group
    std::vector<PerReplica> replicas;
  };
  std::vector<PerGroup> groups;
  uint64_t classified = 0;
  uint64_t route_cache_hits = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;            ///< admission-shed responses (all pools)
  uint64_t deferred = 0;        ///< parked at the front door
  uint64_t defer_drained = 0;   ///< parked requests later dispatched
  uint64_t defer_overflow = 0;  ///< defer buffer full: degraded to shed
  uint64_t slo_breaches = 0;    ///< decisions taken under a breached SLO
  uint64_t drains = 0;          ///< DrainSwapRevive operations completed
  uint64_t escalations_dead = 0;
  uint64_t escalations_open = 0;
  uint64_t escalations_overloaded = 0;
  uint64_t fallback_exhausted = 0;

  uint64_t escalations() const {
    return escalations_dead + escalations_open + escalations_overloaded;
  }
  std::string ToString() const;
};

class Fabric {
 public:
  /// The calibration backs the admission-shed response and the final
  /// fallback rung. If `config.faults` carries a replica-targeted plan
  /// naming one of our replicas, the pick its counted kill names marks
  /// that replica dead and unpublishes its registry.
  explicit Fabric(FabricConfig config,
                  serve::CostCalibration calibration = {});
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Classify → admission → replica-group dispatch. Never blocks on a
  /// full replica queue and never returns a broken future; the worst case
  /// is the labeled inline fallback ("fabric-exhausted").
  std::future<serve::ServeResponse> Submit(serve::ServeRequest request);

  /// Dispatches any still-deferred requests, then stops every replica
  /// (each drains its queue first). Idempotent.
  void Shutdown();

  // Replica addressing: group name + index within the group.
  serve::ModelRegistry* registry(const std::string& group, size_t replica);
  serve::PredictionService* service(const std::string& group, size_t replica);
  ReplicaHealth health(const std::string& group, size_t replica) const;
  void SetReplicaHealth(const std::string& group, size_t replica,
                        ReplicaHealth health);

  /// The rolling hot-swap primitive: mark the replica draining, wait for
  /// its queue to empty (bounded), publish `model`, mark it up again.
  /// False when the replica does not exist or the drain timed out (the
  /// replica is then left draining and unpublished-to).
  bool DrainSwapRevive(const std::string& group, size_t replica,
                       std::shared_ptr<const core::Predictor> model);

  size_t replica_count(const std::string& group) const;
  const std::string& catch_all_name() const;

  /// Total requests currently queued across every replica — the admission
  /// controller's live queue-depth signal.
  size_t TotalQueueDepth() const;

  AdmissionController* admission() { return &admission_; }
  FabricStatsSnapshot stats() const;
  /// Fabric-level qpp_fabric_* metrics (per-replica serve metrics live in
  /// each replica's own service registry).
  obs::MetricsRegistry* metrics() { return &metrics_; }
  /// The always-on black box: every admission verdict, pick, escalation,
  /// swap, health change, breaker flip, SLO alert, and injected fault of
  /// this fabric's life, newest few thousand retained. Dump it on failure.
  obs::FlightRecorder* flight() { return &flight_; }
  /// Trace ids stamped so far (the next request gets sequence number
  /// issued(); tests replay ids with DeriveTraceId(trace_seed, n)).
  uint64_t trace_ids_issued() const { return trace_ids_.issued(); }

 private:
  /// Why a request left its expert group for the catch-all: the index of
  /// the group's qpp_fabric_escalations_total counter and the `code` of
  /// its kEscalation flight event.
  enum Escalation : int32_t {
    kDead,
    kCircuitOpen,
    kOverloaded,
    kNumEscalations
  };

  struct Replica {
    std::string label;
    // Registry declared before the service: workers acquire snapshots
    // until Shutdown, so destruction must tear the service down first.
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::PredictionService> service;
    std::atomic<ReplicaHealth> health{ReplicaHealth::kUp};
    obs::Counter* picks = nullptr;
    std::atomic<uint64_t> open_diversions{0};
  };

  struct Group {
    std::string name;
    std::vector<std::unique_ptr<Replica>> replicas;
    std::atomic<uint64_t> pick_seq{0};  ///< consumes the P2C draw stream
    obs::Counter* routed = nullptr;
    obs::Counter* absorbed = nullptr;
    obs::Counter* escalated[kNumEscalations] = {};  ///< by Escalation
  };

  /// Step-1 verdict. Generation 0 means no classifier was published
  /// anywhere: `pool` is then the admission default (feather) and the
  /// catch-all owns the request.
  struct RouteVerdict {
    workload::QueryType pool = workload::QueryType::kFeather;
    uint64_t classifier_generation = 0;
    bool classified() const { return classifier_generation != 0; }
  };

  /// A request parked by a defer decision: the caller already holds the
  /// future; the promise travels with the request until dispatch.
  struct DeferredRequest {
    serve::ServeRequest request;
    std::promise<serve::ServeResponse> promise;
  };

  RouteVerdict Classify(const serve::ServeRequest& request);
  /// The expert group serving `pool`.
  Group* GroupFor(workload::QueryType pool) {
    return groups_[workload::QueryTypeIndex(pool)].get();
  }
  /// The group named `name`, or null.
  Group* FindGroup(const std::string& name) const;
  /// Replica `replica` of the group named `group`, or null.
  Replica* FindReplica(const std::string& group, size_t replica) const;
  /// P2C pick among eligible replicas; null (with `reason` = kDead or
  /// kCircuitOpen) when none is eligible. `require_model` is false for the
  /// catch-all, whose replicas answer the labeled no-model fallback
  /// themselves.
  Replica* PickReplica(Group* group, bool require_model, Escalation* reason);
  /// Routes `request` down the group → catch-all → inline ladder and
  /// fulfills `promise` (moved from on dispatch or answered inline).
  void Dispatch(const serve::ServeRequest& request,
                std::promise<serve::ServeResponse>* promise,
                const RouteVerdict& verdict);
  void RespondShed(const serve::ServeRequest& request,
                   std::promise<serve::ServeResponse>* promise,
                   workload::QueryType pool);
  void RespondExhausted(const serve::ServeRequest& request,
                        std::promise<serve::ServeResponse>* promise);
  /// Applies the fault plan's replica kill when `replica`'s pick is the
  /// one NextReplicaKill names.
  void MaybeKill(Replica* replica);
  void DrainDeferred();
  /// Dispatches a request a defer decision parked, under its own context.
  void DispatchDeferred(DeferredRequest* deferred);
  /// A "fabric"-category instant event. A caller that builds `detail`
  /// tests `trace_` first, so an untraced fabric builds no string.
  void TraceInstant(const char* name, const char* detail_key,
                    std::string_view detail);

  const AdmissionConfig admission_config_;
  const uint64_t p2c_seed_;
  const bool p2c_ignore_depth_;
  const serve::CostCalibration calibration_;
  obs::TraceRecorder* const trace_;
  fault::FaultInjector* const faults_;
  // Declared before admission_: the controller's SLO engine publishes into
  // the fabric registry and flight recorder, so both must outlive it.
  obs::MetricsRegistry metrics_;
  obs::FlightRecorder flight_;
  obs::TraceIdGenerator trace_ids_;
  /// One expert group per workload::QueryType, in kQueryTypes order (so
  /// GroupFor indexes it), then the catch-all.
  std::vector<std::unique_ptr<Group>> groups_;
  Group* catch_all_ = nullptr;
  AdmissionController admission_;
  obs::Counter* classified_ = nullptr;
  obs::Counter* route_cache_hits_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  /// qpp_fabric_shed_total{pool=...}, indexed by workload::QueryTypeIndex.
  obs::Counter* shed_by_pool_[workload::kNumQueryTypes] = {};
  obs::Counter* deferred_ = nullptr;
  obs::Counter* defer_drained_ = nullptr;
  obs::Counter* defer_overflow_ = nullptr;
  obs::Counter* slo_breaches_ = nullptr;
  obs::Counter* drains_ = nullptr;
  obs::Counter* fallback_exhausted_ = nullptr;
  obs::Gauge* deferred_pending_ = nullptr;
  std::mutex route_cache_mu_;
  serve::LruCache<linalg::Vector, RouteVerdict,
                  serve::PredictionService::FeatureHash>
      route_cache_;
  std::mutex deferred_mu_;
  std::deque<DeferredRequest> deferred_queue_;
  std::once_flag shutdown_once_;
};

/// Publishes a trained TwoStepPredictor across the fabric: the base model
/// into every catch-all replica (where it doubles as the step-1
/// classifier) and each per-category expert into every replica of its
/// pool's group. Pools whose category fell back to the base model publish
/// nothing — their groups stay dead and the fabric escalates to the
/// catch-all, exactly TwoStepPredictor's own fallback. Returns the number
/// of publishes performed.
size_t PublishTwoStep(const core::TwoStepPredictor& two_step, Fabric* fabric);

}  // namespace qpp::fabric
