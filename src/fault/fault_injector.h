// The FaultInjector: a thread-safe session that turns a FaultPlan into
// concrete, replayable fault decisions, and makes every injected fault
// observable.
//
// Determinism is the whole point. Each decision point draws from its own
// RNG derived as Rng(SplitMix64(seed ^ tag ^ index)):
//
//  * engine decisions are keyed by the query hash (and operator ordinal
//    within the query), so a given query suffers the same faults no matter
//    when, where, or how many times it is simulated;
//  * serve decisions are keyed by monotonic per-kind sequence numbers
//    (submit attempt #i, batch #j). Driven sequentially — one request in
//    flight at a time, as the chaos harness does — the whole schedule is
//    bit-replayable; under concurrent traffic the decision *sequence* is
//    still fixed, only which request draws which index varies.
//
// Observability: every injected fault increments a labeled counter
// (qpp_fault_injected_total{layer=...,kind=...}) in the registry passed at
// construction, and emits an instant event (category "fault") into the
// trace recorder — tagged with the current request's trace id when a
// RequestContext scope is installed — so chaos runs show up in the
// Prometheus text and Perfetto exactly like organic behavior. A flight recorder can be
// attached (set_flight_recorder) to also put every injection into the
// black box. All sinks are optional and null-tested once.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/rng.h"
#include "fault/fault_plan.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace qpp::fault {

class FaultInjector {
 public:
  /// `registry` and `trace` (both optional) receive fault events; they
  /// must outlive the injector.
  explicit FaultInjector(FaultPlan plan,
                         obs::MetricsRegistry* registry = nullptr,
                         obs::TraceRecorder* trace = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  bool engine_enabled() const { return plan_.engine.enabled(); }
  bool serve_enabled() const { return plan_.serve.enabled(); }

  /// Attaches (or detaches, with nullptr) a flight recorder that receives
  /// one kFault event per injection. The recorder must stay alive until
  /// detached — the Fabric attaches its own in its constructor and
  /// detaches it on destruction.
  void set_flight_recorder(obs::FlightRecorder* flight) {
    flight_.store(flight, std::memory_order_release);
  }

  // ------------------------------------------------------------- engine --

  /// Query-level faults, fixed for a (plan.seed, query_hash) pair.
  struct QueryFaults {
    double cpu_multiplier = 1.0;      ///< straggler node gates every barrier
    int failed_nodes = 0;             ///< work re-partitioned over survivors
    double repartition_seconds = 0.0; ///< one-time failover cost
    double work_mem_multiplier = 1.0; ///< buffer-pool pressure
    uint64_t op_seed = 0;             ///< stream seed for per-op decisions
  };

  /// Operator-level faults within a query, keyed by the operator's visit
  /// ordinal. Deterministic for (QueryFaults.op_seed, op_index).
  struct OpFaults {
    double io_multiplier = 1.0;  ///< disk stall
    double message_loss = 0.0;   ///< fraction of messages retransmitted
  };

  /// Samples (and records) the query-level faults for one simulated query.
  /// Never blocks; safe from any thread.
  QueryFaults SampleQuery(uint64_t query_hash, int nodes_used) const;

  /// Samples (and records) operator-level faults. `op_index` is the
  /// operator's ordinal in plan visit order; `net_messages` the operator's
  /// message count (loss only applies to operators that move messages).
  OpFaults SampleOp(const QueryFaults& q, size_t op_index,
                    double net_messages) const;

  // -------------------------------------------------------------- serve --

  /// One decision per submit attempt: true = refuse this attempt as if the
  /// queue were saturated. Consumes the next submit-attempt index.
  bool NextSubmitReject();

  struct BatchFaults {
    double stall_seconds = 0.0;  ///< virtual age added to the whole batch
    bool swap_registry = false;  ///< fire the swap hook mid-batch
  };

  /// One decision per micro-batch; consumes the next batch index.
  BatchFaults NextBatchFaults();

  /// Called by the serving worker when a batch decision says swap; invokes
  /// the hook (set by the harness to publish a new model generation).
  void FireRegistrySwap();
  void set_registry_swap_hook(std::function<void()> hook);

  // ------------------------------------------------------------- replica --

  /// One decision per fabric pick of the replica labeled `label`
  /// ("group#index"): true exactly once, when the plan's target replica
  /// has been picked its configured Nth time (a counted decision —
  /// deterministic under sequential driving, and independent of the seed),
  /// and then records the replica_kill injection; the fabric marks the
  /// replica dead and unpublishes its model. Calls for non-target replicas
  /// return false without consuming the counter.
  bool NextReplicaKill(const std::string& label);

  /// One decision per micro-batch picked up by the replica labeled
  /// `label`; only the plan's target replica ever stalls. Consumes the
  /// target replica's batch index.
  BatchFaults NextReplicaBatchFaults(const std::string& label);

  // ----------------------------------------------------------- lifecycle --

  /// One decision per registered lifecycle candidate: the prediction
  /// multiplier the candidate's shadow lane must apply (1.0 = clean,
  /// plan.serve.model_poison_multiplier = poisoned). Consumes the next
  /// candidate index; records a model_poison injection when poisoned.
  double NextModelPoison();

  // ------------------------------------------------------ introspection --

  /// Total injected faults by kind, independent of any registry (the chaos
  /// report's deterministic fault-schedule digest feeds on these).
  uint64_t injected(const char* kind) const;
  uint64_t total_injected() const;

 private:
  // Decision-stream tags: each fault point hashes its own tag into the
  // seed so streams never correlate.
  enum Tag : uint64_t {
    kTagDiskStall = 0x9E3779B97F4A7C15ull,
    kTagMsgLoss = 0xBF58476D1CE4E5B9ull,
    kTagSlowdown = 0x94D049BB133111EBull,
    kTagNodeFail = 0xD6E8FEB86659FD93ull,
    kTagBufPressure = 0xA5A5A5A5A5A5A5A5ull,
    kTagSubmit = 0xC2B2AE3D27D4EB4Full,
    kTagStall = 0x165667B19E3779F9ull,
    kTagSwap = 0x27D4EB2F165667C5ull,
    kTagReplicaStall = 0x8EBC6AF09C88C6E3ull,
    kTagPoison = 0x589965CC75374CC3ull,
  };

  struct Kind {
    const char* name;
    std::atomic<uint64_t> count{0};
    obs::Counter* counter = nullptr;  // resolved once in the constructor
  };
  enum KindIndex {
    kDiskStall = 0,
    kMsgLoss,
    kNodeSlowdown,
    kNodeFailure,
    kBufferPressure,
    kSubmitReject,
    kWorkerStall,
    kRegistrySwap,
    kReplicaKill,
    kReplicaStall,
    kModelPoison,
    kNumKinds,
  };

  /// Deterministic uniform draw for (tag, index) under this plan's seed.
  double Draw(uint64_t tag, uint64_t index) const;
  void Record(KindIndex kind, const char* detail = nullptr) const;

  const FaultPlan plan_;
  obs::TraceRecorder* const trace_;
  std::atomic<obs::FlightRecorder*> flight_{nullptr};
  mutable Kind kinds_[kNumKinds];
  std::atomic<uint64_t> submit_seq_{0};
  std::atomic<uint64_t> batch_seq_{0};
  // Replica-targeted streams: only calls naming the plan's target replica
  // consume these, so one replica's schedule is unaffected by its peers.
  std::atomic<uint64_t> replica_pick_seq_{0};
  std::atomic<uint64_t> replica_batch_seq_{0};
  // Lifecycle stream: one poison decision per registered candidate.
  std::atomic<uint64_t> candidate_seq_{0};
  std::mutex hook_mu_;
  std::function<void()> swap_hook_;
};

}  // namespace qpp::fault
