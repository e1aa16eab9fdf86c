// The chaos harness under test: every named scenario passes its invariants
// AND produces a byte-identical report when replayed with the same seed or
// under its own saved plan;
// the fault injector's decisions are independent of call interleaving; a
// disabled injector is indistinguishable from none; monotone fault kinds
// never make any metric smaller; FaultPlans survive file round trips, and
// files in the older v2/v4 layouts load as the same plan unless they aim
// a fault at a shard, which is an error. The long-mode soaks (10k
// concurrent requests under a randomized plan; the fabric capacity soak
// at 1M requests) run only when QPP_SOAK=1 — ctest wires them up under
// the `soak` label. A 10k fabric soak always runs so plain ctest still
// covers the admission/replica/chaos stack end to end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "catalog/tpcds.h"
#include "engine/simulator.h"
#include "fault/chaos.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "optimizer/optimizer.h"
#include "workload/generator.h"
#include "workload/tpcds_templates.h"

namespace qpp::fault {
namespace {

// ------------------------------------------------- scenario determinism --

class ChaosScenarioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosScenarioTest, PassesAndReplaysByteIdentically) {
  ChaosOptions opts;
  opts.seed = 42;
  opts.requests = 200;
  opts.queries = 12;
  const ScenarioResult first = RunChaosScenario(GetParam(), opts);
  for (const std::string& v : first.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(first.ok());
  EXPECT_FALSE(first.report.empty());

  // Same seed, fresh everything: the report must not move by a byte.
  const ScenarioResult second = RunChaosScenario(GetParam(), opts);
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(first.report, second.report);

  // A different seed is a different schedule (same invariants though).
  ChaosOptions other = opts;
  other.seed = 1234;
  const ScenarioResult shifted = RunChaosScenario(GetParam(), other);
  for (const std::string& v : shifted.violations) ADD_FAILURE() << v;
  EXPECT_NE(first.report, shifted.report);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ChaosScenarioTest,
                         ::testing::ValuesIn(ChaosScenarioNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ChaosScenarioTest, UnknownScenarioIsAViolationNotACrash) {
  const ScenarioResult r = RunChaosScenario("no-such-scenario", {});
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(ChaosScenarioPlan("no-such-scenario", {}).has_value());
}

TEST(ChaosScenarioTest, EveryDeterministicRowReplaysItsOwnPlan) {
  // A run under the plan `qpp_tool chaos --save-plan` ships for it must be
  // the run itself, byte for byte: the replay contract. The concurrent
  // soak is the one row whose bytes are not deterministic.
  std::vector<std::string> rows = ChaosScenarioNames();
  rows.push_back("fabric-soak");
  for (const std::string& name : rows) {
    SCOPED_TRACE(name);
    ChaosOptions opts;
    opts.seed = 7;
    opts.requests = name == "fabric-soak" ? 10000 : 200;
    opts.queries = 12;
    const ScenarioResult own = RunChaosScenario(name, opts);
    for (const std::string& v : own.violations) ADD_FAILURE() << v;
    opts.plan = ChaosScenarioPlan(name, opts);
    ASSERT_TRUE(opts.plan.has_value());
    const ScenarioResult replay = RunChaosScenario(name, opts);
    EXPECT_TRUE(replay.ok());
    EXPECT_EQ(own.report, replay.report);
    EXPECT_EQ(own.counters, replay.counters);
  }
}

// ------------------------------------------------- injector determinism --

TEST(FaultInjectorTest, DecisionsAreKeyedNotOrdered) {
  FaultPlan plan;
  plan.seed = 77;
  plan.engine.disk_stall_probability = 0.3;
  plan.engine.node_failure_probability = 0.4;
  plan.engine.max_failed_nodes = 2;
  const FaultInjector a(plan);
  const FaultInjector b(plan);

  // b samples the same queries in reverse order and with extra queries
  // interleaved; per-query results must match a's exactly.
  std::vector<FaultInjector::QueryFaults> forward;
  for (uint64_t q = 0; q < 32; ++q) {
    forward.push_back(a.SampleQuery(q * 0x9E37ull, 8));
  }
  for (uint64_t q = 32; q-- > 0;) {
    b.SampleQuery(0xDEADull + q, 8);  // unrelated interleaved traffic
    const FaultInjector::QueryFaults qf = b.SampleQuery(q * 0x9E37ull, 8);
    EXPECT_EQ(qf.cpu_multiplier, forward[q].cpu_multiplier);
    EXPECT_EQ(qf.failed_nodes, forward[q].failed_nodes);
    EXPECT_EQ(qf.work_mem_multiplier, forward[q].work_mem_multiplier);
    EXPECT_EQ(qf.op_seed, forward[q].op_seed);
  }
}

TEST(FaultInjectorTest, FailureAlwaysLeavesASurvivor) {
  FaultPlan plan;
  plan.seed = 5;
  plan.engine.node_failure_probability = 1.0;
  plan.engine.max_failed_nodes = 64;  // more than the cluster has
  const FaultInjector inj(plan);
  for (uint64_t q = 0; q < 64; ++q) {
    const auto qf = inj.SampleQuery(q, 4);
    EXPECT_GE(qf.failed_nodes, 1);
    EXPECT_LE(qf.failed_nodes, 3);  // 4 nodes: at most 3 may die
  }
  // A single-node "cluster" cannot lose its only node.
  EXPECT_EQ(inj.SampleQuery(99, 1).failed_nodes, 0);
}

// -------------------------------------------------- engine monotonicity --

TEST(EngineFaultTest, MonotoneFaultKindsNeverShrinkAnyMetric) {
  // Disk stalls, message loss, stragglers, and buffer pressure leave the
  // node count alone, so EVERY metric must be >= its clean value,
  // elementwise. (Node failure legitimately shrinks message totals — fewer
  // survivors exchange less — which is why it is excluded here and covered
  // by the node-death scenario's elapsed-only bound.)
  FaultPlan plan;
  plan.seed = 11;
  plan.engine.disk_stall_probability = 0.4;
  plan.engine.disk_stall_multiplier = 5.0;
  plan.engine.message_loss_rate = 0.1;
  plan.engine.node_slowdown_probability = 0.4;
  plan.engine.buffer_pressure_probability = 0.4;
  plan.engine.work_mem_multiplier = 0.2;
  const FaultInjector inj(plan);
  const FaultInjector disabled{FaultPlan{}};

  const catalog::Catalog catalog = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&catalog, {});
  const engine::ExecutionSimulator sim(&catalog,
                                       engine::SystemConfig::Neoview4());
  size_t checked = 0;
  for (const auto& q : workload::GenerateWorkload(
           workload::TpcdsTemplates(), 12, 3)) {
    const auto planned = opt.Plan(q.sql);
    ASSERT_TRUE(planned.ok()) << q.sql;
    const engine::QueryMetrics clean = sim.Execute(planned.value());
    const engine::QueryMetrics off =
        sim.Execute(planned.value(), nullptr, &disabled);
    const engine::QueryMetrics faulted =
        sim.Execute(planned.value(), nullptr, &inj);
    EXPECT_EQ(off.ToVector(), clean.ToVector());
    EXPECT_EQ(off.cpu_seconds, clean.cpu_seconds);
    const auto cv = clean.ToVector();
    const auto fv = faulted.ToVector();
    for (size_t m = 0; m < cv.size(); ++m) {
      EXPECT_GE(fv[m], cv[m]) << q.template_name << " metric " << m;
    }
    EXPECT_GE(faulted.cpu_seconds, clean.cpu_seconds);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(inj.total_injected(), 0u);
}

// ----------------------------------------------------- plan round trips --

TEST(FaultPlanTest, FileRoundTripPreservesEveryField) {
  const FaultPlan plan = RandomFaultPlan(0xC0FFEEull);
  const std::string path = ::testing::TempDir() + "/chaos_plan.bin";
  ASSERT_TRUE(SaveFaultPlanFile(plan, path).ok());
  const auto loaded = LoadFaultPlanFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  // Byte-identical re-serialization is the strongest equality available.
  std::ostringstream a, b;
  BinaryWriter wa(a), wb(b);
  plan.Write(&wa);
  loaded.value().Write(&wb);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(loaded.value().seed, plan.seed);
  EXPECT_EQ(loaded.value().ToString(), plan.ToString());
}

/// `plan` hand-written in a pre-v5 layout (v2..v4): the v1 fields, the
/// four shard fields v2 appended (target_shard, kill count, stall
/// probability and seconds), then the replica (v3) and poison (v4) fields
/// the version has.
std::string LegacyPlanBytes(const FaultPlan& plan, uint32_t version,
                            const std::string& target_shard) {
  std::ostringstream os;
  BinaryWriter w(os);
  w.WriteU32(0x51505046);  // "QPPF"
  w.WriteU32(version);
  w.WriteU64(plan.seed);
  const EngineFaultSpec& e = plan.engine;
  for (const double d :
       {e.disk_stall_probability, e.disk_stall_multiplier,
        e.message_loss_rate, e.retransmit_cost_factor,
        e.node_slowdown_probability, e.node_slowdown_multiplier,
        e.node_failure_probability}) {
    w.WriteDouble(d);
  }
  w.WriteI64(e.max_failed_nodes);
  for (const double d : {e.repartition_seconds,
                         e.buffer_pressure_probability,
                         e.work_mem_multiplier}) {
    w.WriteDouble(d);
  }
  const ServeFaultSpec& s = plan.serve;
  for (const double d :
       {s.submit_reject_probability, s.worker_stall_probability,
        s.worker_stall_seconds, s.registry_swap_probability}) {
    w.WriteDouble(d);
  }
  w.WriteString(target_shard);
  w.WriteU64(target_shard.empty() ? 0 : 25);
  w.WriteDouble(target_shard.empty() ? 0.0 : 0.3);
  w.WriteDouble(target_shard.empty() ? 0.0 : 60.0);
  if (version >= 3) {
    w.WriteString(s.target_replica_label);
    w.WriteU64(s.replica_kill_after_picks);
    w.WriteDouble(s.replica_stall_probability);
    w.WriteDouble(s.replica_stall_seconds);
  }
  if (version >= 4) {
    w.WriteDouble(s.model_poison_probability);
    w.WriteDouble(s.model_poison_multiplier);
  }
  return os.str();
}

std::string CurrentPlanBytes(const FaultPlan& plan) {
  std::ostringstream os;
  BinaryWriter w(os);
  plan.Write(&w);
  return os.str();
}

Result<FaultPlan> LoadPlanBytes(const std::string& bytes,
                                const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  return LoadFaultPlanFile(path);
}

TEST(FaultPlanTest, LegacyLayoutsWithoutShardFaultsLoadAsTheSamePlan) {
  // v4 carries every field the current format has; v2 predates the
  // replica and poison families, which must come back disabled.
  const FaultPlan full = RandomFaultPlan(0xC0FFEEull);
  FaultPlan v1_fields = full;
  v1_fields.serve.target_replica_label.clear();
  v1_fields.serve.replica_kill_after_picks = 0;
  v1_fields.serve.replica_stall_probability = 0.0;
  v1_fields.serve.replica_stall_seconds = 0.0;
  v1_fields.serve.model_poison_probability = 0.0;
  v1_fields.serve.model_poison_multiplier =
      ServeFaultSpec{}.model_poison_multiplier;
  for (const auto& [version, plan] :
       {std::pair<uint32_t, FaultPlan>{2, v1_fields}, {4, full}}) {
    SCOPED_TRACE(version);
    const auto loaded =
        LoadPlanBytes(LegacyPlanBytes(plan, version, ""),
                      "legacy_v" + std::to_string(version) + ".bin");
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(CurrentPlanBytes(loaded.value()), CurrentPlanBytes(plan));
  }
}

TEST(FaultPlanTest, LegacyShardTargetIsAnErrorNotASilentDrop) {
  // The shard a v2-v4 plan aims at no longer exists; replaying the plan
  // without it would be a different schedule, so loading refuses it.
  const FaultPlan plan = RandomFaultPlan(0xC0FFEEull);
  for (const uint32_t version : {2u, 3u, 4u}) {
    SCOPED_TRACE(version);
    const auto loaded =
        LoadPlanBytes(LegacyPlanBytes(plan, version, "feather"),
                      "legacy_shard_v" + std::to_string(version) + ".bin");
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("target_shard"),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST(FaultPlanTest, LoadRejectsGarbage) {
  EXPECT_FALSE(LoadPlanBytes("this is not a fault plan", "garbage.bin").ok());
  EXPECT_FALSE(
      LoadFaultPlanFile(::testing::TempDir() + "/does-not-exist.bin").ok());

  const FaultPlan plan = RandomFaultPlan(0xC0FFEEull);
  const std::string bytes = CurrentPlanBytes(plan);
  ASSERT_TRUE(LoadPlanBytes(bytes, "valid.bin").ok());
  EXPECT_FALSE(LoadPlanBytes(bytes + "x", "trailing.bin").ok());
  FaultPlan wide = plan;
  wide.engine.max_failed_nodes = 7;
  std::string wide_bytes = CurrentPlanBytes(wide);
  // max_failed_nodes is the eighth 8-byte field after magic and version;
  // set its high half so the value no longer fits an int.
  const size_t max_failed_at = 8 + 8 * 8;
  ASSERT_EQ(wide_bytes[max_failed_at], 7);
  wide_bytes[max_failed_at + 4] = 1;
  EXPECT_FALSE(LoadPlanBytes(wide_bytes, "wide.bin").ok());

  // Every truncation fails; at every offset the byte set to 0x00, to 0xFF
  // and with its top bit flipped either fails or loads a plan that writes
  // back exactly the corrupted bytes.
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(LoadPlanBytes(bytes.substr(0, n), "cut.bin").ok())
        << "cut at " << n;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    for (const unsigned char v : {0x00, 0xFF, b ^ 0x80}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(v);
      const auto loaded = LoadPlanBytes(corrupt, "corrupt.bin");
      if (!loaded.ok()) continue;
      EXPECT_EQ(CurrentPlanBytes(loaded.value()), corrupt) << "offset " << i;
    }
  }
}

// ------------------------------------------------------------- the soak --

TEST(ChaosSoakTest, TenThousandRequestsUnderRandomizedFaults) {
  const char* gate = std::getenv("QPP_SOAK");
  if (gate == nullptr || std::string(gate) != "1") {
    GTEST_SKIP() << "soak mode is opt-in: set QPP_SOAK=1 (ctest -L soak)";
  }
  ChaosOptions opts;
  opts.seed = 20260806;
  opts.requests = 10000;
  const ScenarioResult r = RunChaosScenario("soak", opts);
  for (const std::string& v : r.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(r.ok());
}

// ------------------------------------------------------ the fabric soak --

void ExpectFabricSoakCountersSane(const ScenarioResult& r) {
  uint64_t shed = 0, deferred = 0, drained = 0, kills = 0, stalls = 0,
           deadlines = 0;
  for (const auto& [key, value] : r.counters) {
    const auto count = static_cast<uint64_t>(value);
    if (key == "fabric_soak_shed_wrecking") shed = count;
    if (key == "fabric_soak_deferred") deferred = count;
    if (key == "fabric_soak_defer_drained_midrun" ||
        key == "fabric_soak_defer_drained_shutdown") {
      drained += count;
    }
    if (key == "fabric_soak_replica_kills") kills = count;
    if (key == "fabric_soak_replica_stalls") stalls = count;
    if (key == "fabric_soak_deadline_fallbacks") deadlines = count;
  }
  // The soak is only a soak if its machinery actually engaged: admission
  // shed and deferred traffic, every parked request was eventually
  // dispatched, the counted kill fired once, and every injected stall
  // surfaced as exactly one labeled deadline fallback.
  EXPECT_GT(shed, 0u);
  EXPECT_GT(deferred, 0u);
  EXPECT_EQ(drained, deferred);
  EXPECT_EQ(kills, 1u);
  EXPECT_GT(stalls, 0u);
  EXPECT_EQ(stalls, deadlines);
}

TEST(FabricSoakSmokeTest, TenThousandRequestsReplayByteForByte) {
  // Small enough for the default suite: the full admission + replica-kill
  // + rolling-drain schedule at 10k requests, run twice.
  ChaosOptions opts;
  opts.seed = 20260808;
  opts.requests = 10000;
  const ScenarioResult first = RunChaosScenario("fabric-soak", opts);
  for (const std::string& v : first.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(first.ok());
  EXPECT_FALSE(first.report.empty());
  ExpectFabricSoakCountersSane(first);

  // Same seed, fresh fabric: report and counters must not move by a byte.
  const ScenarioResult replay = RunChaosScenario("fabric-soak", opts);
  EXPECT_EQ(first.report, replay.report);
  EXPECT_EQ(first.counters, replay.counters);

  // A different seed is a different schedule with the same invariants.
  ChaosOptions other = opts;
  other.seed = 7;
  const ScenarioResult shifted = RunChaosScenario("fabric-soak", other);
  for (const std::string& v : shifted.violations) ADD_FAILURE() << v;
  EXPECT_NE(first.report, shifted.report);
}

TEST(FabricSoakSmokeTest, RunsBelowTenThousandAreRefused) {
  // The fault schedule (counted kill, 1% stalls) needs room to land; a
  // tiny run would pass vacuously, so it is a violation instead.
  ChaosOptions opts;
  opts.requests = 500;
  EXPECT_FALSE(RunChaosScenario("fabric-soak", opts).ok());
}

TEST(FabricSoakTest, OneMillionRequestsUnderChaosStayInsideTheSlo) {
  const char* gate = std::getenv("QPP_SOAK");
  if (gate == nullptr || std::string(gate) != "1") {
    GTEST_SKIP() << "soak mode is opt-in: set QPP_SOAK=1 (ctest -L soak)";
  }
  ChaosOptions opts;
  opts.seed = 20260808;
  opts.requests = 1000000;
  const ScenarioResult r = RunChaosScenario("fabric-soak", opts);
  for (const std::string& v : r.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(r.ok());
  ExpectFabricSoakCountersSane(r);
}

}  // namespace
}  // namespace qpp::fault
