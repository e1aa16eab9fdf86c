// Deterministic fault injection: the FaultPlan.
//
// The paper's use cases (admission control, scheduling, user feedback) only
// pay off if predictions stay trustworthy when the system misbehaves — and
// learned predictors degrade exactly when the serving environment drifts
// from training conditions (see PAPERS.md, the LinkedIn evaluation). A
// FaultPlan is a compact, serializable description of *how* the system
// misbehaves: fault kinds, probabilities, and magnitudes for both layers
// that matter —
//
//  * the execution simulator (src/engine/): disk stalls, message loss with
//    retransmit cost, straggler/failed nodes with work re-partitioning,
//    buffer-pool pressure shrinking operator working memory;
//  * the prediction service (src/serve/): submit-reject storms (simulated
//    queue saturation), worker stalls that age queued requests past their
//    deadline, and registry hot-swaps injected mid-batch.
//
// Every stochastic decision a plan implies is sampled from seeded RNG
// streams keyed by (plan.seed, decision point) — see fault_injector.h — so
// a fault schedule is exactly replayable: same plan, same workload, same
// faults, bit-for-bit. Plans serialize via common/serde (versioned binary,
// byte-stable round trips) so a chaos run can be shipped and replayed.
#pragma once

#include <cstdint>
#include <string>

#include "common/serde.h"
#include "common/status.h"

namespace qpp::fault {

/// Engine-layer faults, applied per query / per operator inside
/// engine::ExecutionSimulator::Execute. Multipliers are >= 1 in any sane
/// plan (faults make things slower, never faster); probabilities in [0, 1].
struct EngineFaultSpec {
  /// Per-operator probability that this operator's disk I/O stalls.
  double disk_stall_probability = 0.0;
  /// I/O time multiplier applied to a stalled operator.
  double disk_stall_multiplier = 4.0;
  /// Fraction of each operator's messages lost and retransmitted.
  double message_loss_rate = 0.0;
  /// Cost of one lost message, in sent-message equivalents (send + ack
  /// timeout + resend is > 1 message of work).
  double retransmit_cost_factor = 2.0;
  /// Per-query probability that one node is a straggler; the barrier at
  /// every operator then waits on it.
  double node_slowdown_probability = 0.0;
  double node_slowdown_multiplier = 2.0;  ///< straggler CPU multiplier
  /// Per-query probability that nodes fail before execution; their work is
  /// re-partitioned over the survivors.
  double node_failure_probability = 0.0;
  int max_failed_nodes = 1;  ///< failures sampled in [1, max]; < nodes_used
  /// One-time cost of re-partitioning work after node failure.
  double repartition_seconds = 0.5;
  /// Per-query probability of buffer-pool pressure (a co-resident workload
  /// stealing memory): operator working memory shrinks, forcing spills.
  double buffer_pressure_probability = 0.0;
  /// Effective working-memory multiplier under pressure, in (0, 1].
  double work_mem_multiplier = 0.25;

  bool enabled() const {
    return disk_stall_probability > 0.0 || message_loss_rate > 0.0 ||
           node_slowdown_probability > 0.0 ||
           node_failure_probability > 0.0 ||
           buffer_pressure_probability > 0.0;
  }
};

/// Serve-layer faults, applied by serve::PredictionService at deterministic
/// decision points: one decision per submit attempt (indexed by a global
/// attempt counter) and one per micro-batch (indexed by a batch counter).
struct ServeFaultSpec {
  /// Probability that a TrySubmit attempt is refused as if the queue were
  /// full (a saturation storm without needing real queue pressure).
  double submit_reject_probability = 0.0;
  /// Per-batch probability that the picking worker stalls.
  double worker_stall_probability = 0.0;
  /// Stall length, added to every batched request's *virtual* queue age so
  /// deadline policy triggers deterministically (the worker also really
  /// sleeps, capped at 1ms, so stalls are visible in wall-time traces).
  double worker_stall_seconds = 0.0;
  /// Per-batch probability of firing the registry-swap hook right after
  /// the worker acquired its model snapshot — the hardest hot-swap timing.
  double registry_swap_probability = 0.0;

  // Replica-targeted faults (replicated serving, see fabric/fabric.h).
  // `target_replica_label` names one replica by its "group#index" label;
  // empty disables them.

  /// Replica whose registry/workers the faults below aim at.
  std::string target_replica_label;
  /// Kill the target replica (the fabric sets its health to dead and
  /// unpublishes its registry) when the fabric picks it for the Nth time —
  /// a counted, not sampled, decision, so the kill lands on the same pick
  /// under any seed. 0 disables.
  uint64_t replica_kill_after_picks = 0;
  /// Per-batch probability that a target-replica worker stalls; same
  /// virtual-age semantics as worker_stall_* but scoped to one replica.
  double replica_stall_probability = 0.0;
  double replica_stall_seconds = 0.0;

  bool replica_targeted() const {
    return !target_replica_label.empty() &&
           (replica_kill_after_picks > 0 || replica_stall_probability > 0.0);
  }

  // Lifecycle-targeted faults (closed-loop model lifecycle, see
  // lifecycle/lifecycle.h). One decision per registered candidate, keyed
  // by its registration index.

  /// Probability that a registered challenger model is poisoned: its
  /// shadow predictions are scaled by model_poison_multiplier, modeling a
  /// corrupted or badly retrained candidate. The lifecycle gate must
  /// reject it — a poisoned candidate never reaches user traffic (the
  /// "model-lifecycle" chaos scenario pins this as zero-tolerance).
  double model_poison_probability = 0.0;
  /// Prediction multiplier applied to a poisoned candidate (>= 1).
  double model_poison_multiplier = 100.0;

  bool enabled() const {
    return submit_reject_probability > 0.0 ||
           worker_stall_probability > 0.0 ||
           registry_swap_probability > 0.0 || replica_targeted() ||
           model_poison_probability > 0.0;
  }
};

/// A complete, replayable fault schedule: seed + per-layer specs.
struct FaultPlan {
  uint64_t seed = 0;
  EngineFaultSpec engine;
  ServeFaultSpec serve;

  bool enabled() const { return engine.enabled() || serve.enabled(); }

  /// Versioned binary serialization (magic "QPPF"). Write/Read round trips
  /// are byte-identical — tests/property_test.cpp holds this invariant.
  void Write(BinaryWriter* w) const;
  static FaultPlan Read(BinaryReader* r);

  /// Multi-line human-readable description (chaos harness banner).
  std::string ToString() const;
};

Status SaveFaultPlanFile(const FaultPlan& plan, const std::string& path);
/// Loads a file written by SaveFaultPlanFile: the file must hold exactly
/// one plan. Fails on a bad magic or version, a v2-v4 shard target, a
/// max_failed_nodes outside int, truncation, or bytes after the plan.
Result<FaultPlan> LoadFaultPlanFile(const std::string& path);

}  // namespace qpp::fault
