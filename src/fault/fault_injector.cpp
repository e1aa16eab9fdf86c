#include "fault/fault_injector.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "obs/json_util.h"

namespace qpp::fault {

namespace {
const char* kKindNames[] = {
    "disk_stall",      "message_loss",  "node_slowdown", "node_failure",
    "buffer_pressure", "submit_reject", "worker_stall",  "registry_swap",
    "replica_kill",    "replica_stall", "model_poison",
};
const char* kKindLayers[] = {
    "engine", "engine", "engine",  "engine",  "engine",    "serve",
    "serve",  "serve",  "replica", "replica", "lifecycle",
};
}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, obs::MetricsRegistry* registry,
                             obs::TraceRecorder* trace)
    : plan_(std::move(plan)), trace_(trace) {
  for (int k = 0; k < kNumKinds; ++k) {
    kinds_[k].name = kKindNames[k];
    if (registry != nullptr) {
      kinds_[k].counter = registry->GetCounter(
          "qpp_fault_injected_total",
          {{"layer", kKindLayers[k]}, {"kind", kKindNames[k]}});
    }
  }
}

double FaultInjector::Draw(uint64_t tag, uint64_t index) const {
  // One throwaway Rng per decision: decisions are keyed purely by
  // (seed, tag, index), never by draw order, so replay is exact under any
  // interleaving of callers.
  Rng rng(SplitMix64(plan_.seed ^ tag ^ SplitMix64(index)));
  return rng.NextDouble();
}

void FaultInjector::Record(KindIndex kind, const char* detail) const {
  kinds_[kind].count.fetch_add(1, std::memory_order_relaxed);
  if (kinds_[kind].counter != nullptr) kinds_[kind].counter->Inc();
  if (obs::FlightRecorder* flight =
          flight_.load(std::memory_order_acquire)) {
    // trace_id 0 falls back to the installed RequestContext inside Record,
    // so request-triggered faults land in the black box with their id.
    flight->Record(obs::FlightEventKind::kFault, /*trace_id=*/0,
                   static_cast<int32_t>(kind), 0.0,
                   detail != nullptr ? std::string_view(detail)
                                     : std::string_view(kinds_[kind].name));
  }
  if (trace_ != nullptr) {
    obs::TraceArgs args;
    if (detail != nullptr) args.emplace_back("detail", obs::JsonString(detail));
    trace_->Instant(kinds_[kind].name, "fault", std::move(args));
  }
}

FaultInjector::QueryFaults FaultInjector::SampleQuery(uint64_t query_hash,
                                                      int nodes_used) const {
  QueryFaults q;
  q.op_seed = SplitMix64(plan_.seed ^ query_hash);
  const EngineFaultSpec& spec = plan_.engine;
  if (!spec.enabled()) return q;
  if (spec.node_slowdown_probability > 0.0 &&
      Draw(kTagSlowdown, query_hash) < spec.node_slowdown_probability) {
    q.cpu_multiplier = std::max(1.0, spec.node_slowdown_multiplier);
    Record(kNodeSlowdown);
  }
  if (spec.node_failure_probability > 0.0 &&
      Draw(kTagNodeFail, query_hash) < spec.node_failure_probability) {
    // Fail 1..max nodes but always leave a survivor.
    const int cap = std::min(spec.max_failed_nodes, nodes_used - 1);
    if (cap >= 1) {
      const uint64_t extra =
          static_cast<uint64_t>(Draw(kTagNodeFail, ~query_hash) * cap);
      q.failed_nodes = 1 + static_cast<int>(std::min<uint64_t>(
                               extra, static_cast<uint64_t>(cap - 1)));
      q.repartition_seconds = std::max(0.0, spec.repartition_seconds);
      Record(kNodeFailure);
    }
  }
  if (spec.buffer_pressure_probability > 0.0 &&
      Draw(kTagBufPressure, query_hash) < spec.buffer_pressure_probability) {
    q.work_mem_multiplier =
        std::clamp(spec.work_mem_multiplier, 1e-3, 1.0);
    Record(kBufferPressure);
  }
  return q;
}

FaultInjector::OpFaults FaultInjector::SampleOp(const QueryFaults& q,
                                                size_t op_index,
                                                double net_messages) const {
  OpFaults op;
  const EngineFaultSpec& spec = plan_.engine;
  if (!spec.enabled()) return op;
  if (spec.disk_stall_probability > 0.0 &&
      Draw(kTagDiskStall, q.op_seed ^ op_index) <
          spec.disk_stall_probability) {
    op.io_multiplier = std::max(1.0, spec.disk_stall_multiplier);
    Record(kDiskStall);
  }
  if (spec.message_loss_rate > 0.0 && net_messages > 0.0) {
    // Message loss is a rate, not a coin flip: every operator that moves
    // messages loses the configured fraction and pays the retransmit cost.
    op.message_loss = std::clamp(spec.message_loss_rate, 0.0, 1.0);
    Record(kMsgLoss);
  }
  return op;
}

bool FaultInjector::NextSubmitReject() {
  const ServeFaultSpec& spec = plan_.serve;
  if (spec.submit_reject_probability <= 0.0) return false;
  const uint64_t i = submit_seq_.fetch_add(1, std::memory_order_relaxed);
  if (Draw(kTagSubmit, i) < spec.submit_reject_probability) {
    Record(kSubmitReject);
    return true;
  }
  return false;
}

FaultInjector::BatchFaults FaultInjector::NextBatchFaults() {
  BatchFaults out;
  const ServeFaultSpec& spec = plan_.serve;
  if (!spec.enabled()) return out;
  const uint64_t i = batch_seq_.fetch_add(1, std::memory_order_relaxed);
  if (spec.worker_stall_probability > 0.0 &&
      Draw(kTagStall, i) < spec.worker_stall_probability) {
    out.stall_seconds = std::max(0.0, spec.worker_stall_seconds);
    Record(kWorkerStall);
  }
  if (spec.registry_swap_probability > 0.0 &&
      Draw(kTagSwap, i) < spec.registry_swap_probability) {
    out.swap_registry = true;
    // Recorded in FireRegistrySwap, when the swap actually happens.
  }
  return out;
}

void FaultInjector::FireRegistrySwap() {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = swap_hook_;
  }
  if (hook) {
    Record(kRegistrySwap);
    hook();
  }
}

void FaultInjector::set_registry_swap_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  swap_hook_ = std::move(hook);
}

bool FaultInjector::NextReplicaKill(const std::string& label) {
  const ServeFaultSpec& spec = plan_.serve;
  if (spec.replica_kill_after_picks == 0 ||
      label != spec.target_replica_label) {
    return false;
  }
  // Counted, not sampled: the (spec.replica_kill_after_picks)-th pick of
  // the target replica is the one that kills it.
  if (replica_pick_seq_.fetch_add(1, std::memory_order_relaxed) + 1 !=
      spec.replica_kill_after_picks) {
    return false;
  }
  Record(kReplicaKill, spec.target_replica_label.c_str());
  return true;
}

FaultInjector::BatchFaults FaultInjector::NextReplicaBatchFaults(
    const std::string& label) {
  BatchFaults out;
  const ServeFaultSpec& spec = plan_.serve;
  if (spec.replica_stall_probability <= 0.0 ||
      label != spec.target_replica_label) {
    return out;
  }
  const uint64_t i =
      replica_batch_seq_.fetch_add(1, std::memory_order_relaxed);
  if (Draw(kTagReplicaStall, i) < spec.replica_stall_probability) {
    out.stall_seconds = std::max(0.0, spec.replica_stall_seconds);
    Record(kReplicaStall, spec.target_replica_label.c_str());
  }
  return out;
}

double FaultInjector::NextModelPoison() {
  const ServeFaultSpec& spec = plan_.serve;
  if (spec.model_poison_probability <= 0.0) return 1.0;
  const uint64_t i = candidate_seq_.fetch_add(1, std::memory_order_relaxed);
  if (Draw(kTagPoison, i) < spec.model_poison_probability) {
    Record(kModelPoison);
    return std::max(1.0, spec.model_poison_multiplier);
  }
  return 1.0;
}

uint64_t FaultInjector::injected(const char* kind) const {
  for (int k = 0; k < kNumKinds; ++k) {
    if (std::string(kinds_[k].name) == kind) {
      return kinds_[k].count.load(std::memory_order_relaxed);
    }
  }
  QPP_CHECK_MSG(false, "unknown fault kind: " << kind);
  return 0;
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    total += kinds_[k].count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace qpp::fault
