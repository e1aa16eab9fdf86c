#include "fault/fault_plan.h"

#include <limits>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/str_util.h"

namespace qpp::fault {

namespace {
constexpr uint32_t kMagic = 0x51505046;  // "QPPF" little-endian
// v1: engine + serve probabilities. v2 appends the shard-targeted serve
// fields; v3 appends the replica-targeted serve fields; v4 appends the
// model_poison lifecycle fields; v5 drops the shard fields again (the
// shard router is gone: replica faults cover one expert going bad). Older
// files still load (the appended fault families default to disabled) —
// unless they aim a shard fault, which no longer has anything to hit.
constexpr uint32_t kVersion = 5;
}  // namespace

void FaultPlan::Write(BinaryWriter* w) const {
  QPP_CHECK(w != nullptr);
  w->WriteU32(kMagic);
  w->WriteU32(kVersion);
  w->WriteU64(seed);
  w->WriteDouble(engine.disk_stall_probability);
  w->WriteDouble(engine.disk_stall_multiplier);
  w->WriteDouble(engine.message_loss_rate);
  w->WriteDouble(engine.retransmit_cost_factor);
  w->WriteDouble(engine.node_slowdown_probability);
  w->WriteDouble(engine.node_slowdown_multiplier);
  w->WriteDouble(engine.node_failure_probability);
  w->WriteI64(engine.max_failed_nodes);
  w->WriteDouble(engine.repartition_seconds);
  w->WriteDouble(engine.buffer_pressure_probability);
  w->WriteDouble(engine.work_mem_multiplier);
  w->WriteDouble(serve.submit_reject_probability);
  w->WriteDouble(serve.worker_stall_probability);
  w->WriteDouble(serve.worker_stall_seconds);
  w->WriteDouble(serve.registry_swap_probability);
  w->WriteString(serve.target_replica_label);
  w->WriteU64(serve.replica_kill_after_picks);
  w->WriteDouble(serve.replica_stall_probability);
  w->WriteDouble(serve.replica_stall_seconds);
  w->WriteDouble(serve.model_poison_probability);
  w->WriteDouble(serve.model_poison_multiplier);
}

FaultPlan FaultPlan::Read(BinaryReader* r) {
  QPP_CHECK(r != nullptr);
  QPP_CHECK_MSG(r->ReadU32() == kMagic, "not a fault plan file");
  const uint32_t version = r->ReadU32();
  QPP_CHECK_MSG(version >= 1 && version <= kVersion,
                "unsupported fault plan version");
  FaultPlan p;
  p.seed = r->ReadU64();
  p.engine.disk_stall_probability = r->ReadDouble();
  p.engine.disk_stall_multiplier = r->ReadDouble();
  p.engine.message_loss_rate = r->ReadDouble();
  p.engine.retransmit_cost_factor = r->ReadDouble();
  p.engine.node_slowdown_probability = r->ReadDouble();
  p.engine.node_slowdown_multiplier = r->ReadDouble();
  p.engine.node_failure_probability = r->ReadDouble();
  const int64_t max_failed_nodes = r->ReadI64();
  QPP_CHECK_MSG(max_failed_nodes >= std::numeric_limits<int>::min() &&
                    max_failed_nodes <= std::numeric_limits<int>::max(),
                "fault plan max_failed_nodes " << max_failed_nodes
                                               << " is outside int");
  p.engine.max_failed_nodes = static_cast<int>(max_failed_nodes);
  p.engine.repartition_seconds = r->ReadDouble();
  p.engine.buffer_pressure_probability = r->ReadDouble();
  p.engine.work_mem_multiplier = r->ReadDouble();
  p.serve.submit_reject_probability = r->ReadDouble();
  p.serve.worker_stall_probability = r->ReadDouble();
  p.serve.worker_stall_seconds = r->ReadDouble();
  p.serve.registry_swap_probability = r->ReadDouble();
  if (version >= 2 && version <= 4) {
    // v2-v4 shard fields: target_shard, then the kill count and the stall
    // probability/seconds, all inert without a target. A named target
    // would replay a different schedule if silently dropped.
    const std::string target_shard = r->ReadString();
    QPP_CHECK_MSG(target_shard.empty(),
                  "fault plan v" << version << " sets target_shard \""
                                 << target_shard
                                 << "\"; shard faults are no longer "
                                    "supported (use target_replica_label)");
    r->ReadU64();
    r->ReadDouble();
    r->ReadDouble();
  }
  if (version >= 3) {
    p.serve.target_replica_label = r->ReadString();
    p.serve.replica_kill_after_picks = r->ReadU64();
    p.serve.replica_stall_probability = r->ReadDouble();
    p.serve.replica_stall_seconds = r->ReadDouble();
  }
  if (version >= 4) {
    p.serve.model_poison_probability = r->ReadDouble();
    p.serve.model_poison_multiplier = r->ReadDouble();
  }
  return p;
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << StrFormat("fault plan (seed %llu)%s\n",
                  static_cast<unsigned long long>(seed),
                  enabled() ? "" : " — all faults disabled");
  if (engine.enabled()) {
    os << StrFormat(
        "  engine: disk_stall p=%.2f x%.1f | msg_loss %.2f x%.1f | "
        "slowdown p=%.2f x%.1f | node_fail p=%.2f (<=%d, +%.2fs) | "
        "buf_pressure p=%.2f mem x%.2f\n",
        engine.disk_stall_probability, engine.disk_stall_multiplier,
        engine.message_loss_rate, engine.retransmit_cost_factor,
        engine.node_slowdown_probability, engine.node_slowdown_multiplier,
        engine.node_failure_probability, engine.max_failed_nodes,
        engine.repartition_seconds, engine.buffer_pressure_probability,
        engine.work_mem_multiplier);
  }
  if (serve.enabled()) {
    os << StrFormat(
        "  serve: submit_reject p=%.2f | worker_stall p=%.2f %.1fs | "
        "registry_swap p=%.2f\n",
        serve.submit_reject_probability, serve.worker_stall_probability,
        serve.worker_stall_seconds, serve.registry_swap_probability);
    if (serve.replica_targeted()) {
      os << StrFormat(
          "  replica \"%s\": kill after %llu picks | stall p=%.2f %.1fs\n",
          serve.target_replica_label.c_str(),
          static_cast<unsigned long long>(serve.replica_kill_after_picks),
          serve.replica_stall_probability, serve.replica_stall_seconds);
    }
    if (serve.model_poison_probability > 0.0) {
      os << StrFormat("  lifecycle: model_poison p=%.2f x%.1f\n",
                      serve.model_poison_probability,
                      serve.model_poison_multiplier);
    }
  }
  return os.str();
}

Status SaveFaultPlanFile(const FaultPlan& plan, const std::string& path) {
  return WriteFile(path, "fault plan", [&](std::ostream& os) {
    BinaryWriter w(os);
    plan.Write(&w);
  });
}

Result<FaultPlan> LoadFaultPlanFile(const std::string& path) {
  return ReadFile<FaultPlan>(path, "fault plan", [](std::istream& is) {
    BinaryReader r(is);
    return FaultPlan::Read(&r);
  });
}

}  // namespace qpp::fault
