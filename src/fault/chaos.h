// The seeded chaos harness: named fault scenarios with asserted
// invariants, runnable from tests (tests/chaos_test.cpp) and from the CLI
// (`qpp_tool chaos`).
//
// Each scenario builds a real slice of the system — the execution
// simulator over a generated workload, or a live PredictionService with a
// trained model — attaches a FaultInjector with a scenario-specific
// FaultPlan, drives traffic, and checks the resilience contracts:
//
//   node-death      engine: node failures + stragglers; metrics stay
//                   deterministic per seed, faulted runs are never faster
//                   than clean ones, a disabled injector is bit-identical
//                   to no injector at all.
//   fallback-storm  serve: worker stalls blow request deadlines; every
//                   late request gets the labeled deadline fallback, the
//                   circuit breaker trips and recovers via half-open
//                   probes, and the drift monitor notices the degradation.
//   hot-swap        serve: the registry is swapped right after workers
//                   snapshot their model; every response still bit-matches
//                   the generation it reports and the cache never serves a
//                   retired generation.
//   backpressure    serve: submit-reject storms; SubmitWithRetry never
//                   yields a broken future and the stats accounting
//                   identity (requests == cache + model + fallbacks)
//                   holds exactly.
//   rolling-drain   fabric: one replica of the feather group is stalled
//                   and then killed while the golf group is drain-swapped
//                   replica by replica; the surviving peers absorb the
//                   load inside the group (exactly one request escalates —
//                   the killing pick itself), every healthy answer stays
//                   bit-identical to its expert, zero requests lost.
//   model-lifecycle lifecycle: candidates (some poisoned by the
//                   model_poison fault) shadow a weak champion behind a
//                   live PredictionService; poisoned candidates are never
//                   promoted (zero poisoned predictions reach clients), a
//                   clean challenger is promoted, a mid-probation actuals
//                   shift trips the SloEngine watchdog into rollback, and
//                   a second clean challenger is promoted and confirmed.
//                   Every response bit-matches the generation's model and
//                   the decision log replays byte-for-byte per seed.
//
// Scenario traffic is driven sequentially (one request in flight), so the
// injected fault schedule AND the resulting report are bit-replayable:
// running the same scenario twice with the same options yields the same
// report string. Reports therefore contain only deterministic data —
// counters, fault digests, metric sums — never wall-clock latencies.
//
// RunChaosSoak is the exception: it drives concurrent clients under a
// randomized FaultPlan for volume, so only the invariants (not the report
// bytes) are stable. It is gated behind QPP_SOAK=1 in the test suite.
//
// RunFabricSoak is the capacity-scale variant for qpp::fabric: a
// sequentially driven, fully deterministic soak sized for >= 1M requests.
// It combines admission-control load waves (virtual LoadSignal keyed by
// request index), a counted replica kill, probabilistic replica stalls,
// and rolling drain-swap-revive operations, and checks the whole fabric
// contract — bit-identity, labeled degradations, counter accounting, and
// a wall-clock p99 SLO under chaos. Its report and counters are
// byte-replayable per seed (CI diffs two same-seed runs), while the p99
// check is an invariant only and never enters the report.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "ml/feature_vector.h"

namespace qpp::fault {

/// The synthetic Fig. 2 pool fixture every two-step test, bench, and
/// scenario trains on: `pools` (1..4) bands of `per_pool` rows each —
/// feathers, golf balls, bowling balls, wrecking balls, in that order —
/// with well-separated features AND elapsed times, so the step-1
/// classifier's neighbor vote lands in the right pool and every pool
/// trains an expert. Rows draw from one seeded stream in pool-major order,
/// so a smaller `pools` yields exactly a prefix of a larger one.
std::vector<ml::TrainingExample> PoolExamples(size_t pools, size_t per_pool,
                                              uint64_t seed);

struct ChaosOptions {
  uint64_t seed = 42;
  /// Requests driven through the service in serve scenarios (and the soak).
  size_t requests = 400;
  /// Queries simulated in engine scenarios.
  size_t queries = 24;
  /// When set, replaces the scenario's built-in FaultPlan (replay support:
  /// `qpp_tool chaos --plan file`). The plan's own seed is used as-is.
  bool has_plan_override = false;
  FaultPlan plan_override;
};

struct ScenarioResult {
  std::string name;
  /// Deterministic multi-line report (counters, fault digest, metric sums).
  std::string report;
  /// Human-readable invariant violations; empty on success.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

/// The scenario names, in canonical order.
const std::vector<std::string>& ChaosScenarioNames();

/// The FaultPlan a scenario runs under (before any override); exposed so
/// `qpp_tool chaos --save-plan` can ship a schedule for replay.
FaultPlan ChaosScenarioPlan(const std::string& name, uint64_t seed);

/// A moderate-everything randomized plan, derived from `seed` (soak mode).
FaultPlan RandomFaultPlan(uint64_t seed);

/// Runs one named scenario. Unknown names yield a result with a violation
/// (never a crash), so the CLI can report them uniformly.
ScenarioResult RunChaosScenario(const std::string& name,
                                const ChaosOptions& options);

/// High-volume concurrent soak under RandomFaultPlan(seed): checks the
/// accounting identities and the no-broken-future contract, not report
/// determinism.
ScenarioResult RunChaosSoak(const ChaosOptions& options);

/// The fabric soak's outcome: the usual deterministic scenario report plus
/// the headline counters as a flat name -> value list, in a fixed order,
/// so the CLI can emit a byte-replayable JSON artifact for CI.
struct FabricSoakResult {
  ScenarioResult scenario;
  std::vector<std::pair<std::string, double>> counters;
};

/// Deterministic capacity soak over qpp::fabric (see the file comment).
/// Sized for options.requests >= 1M on manual CI dispatch; needs at least
/// a few thousand requests for the counted replica kill to fire.
FabricSoakResult RunFabricSoak(const ChaosOptions& options);

/// The model-lifecycle scenario's outcome: the deterministic report (which
/// embeds the full promotion/rollback decision log — CI byte-diffs it)
/// plus the headline lifecycle counters as a flat name -> value list for
/// the golden-metrics JSON artifact (tests/golden/lifecycle.json).
struct LifecycleChaosResult {
  ScenarioResult scenario;
  std::vector<std::pair<std::string, double>> counters;
};

/// Runs the closed-loop lifecycle scenario (see the file comment). Mostly
/// self-sizing: candidate registrations adapt to the seed's poison draws,
/// so any seed exercises reject + promote + rollback + confirm.
LifecycleChaosResult RunLifecycleChaos(const ChaosOptions& options);

/// The observability flight demo's outcome: the usual deterministic
/// scenario report plus the three black-box artifacts the run produced.
/// `flight_dump` and `prometheus_text` are byte-identical across same-seed
/// runs (CI diffs them); `trace_json` carries wall-clock timestamps, but
/// which spans exist and which trace ids tag them replays exactly.
struct ObsFlightDemoResult {
  ScenarioResult scenario;
  /// Flight-recorder DumpJson captured the moment the first SLO window
  /// closed breaching — the black box as of the failure.
  std::string flight_dump;
  /// Chrome trace of the whole run (load in ui.perfetto.dev; search for
  /// the breach trace id to see the request's span chain).
  std::string trace_json;
  /// Prometheus exposition of the fabric registry: qpp_fabric_*, the
  /// demo latency histogram with trace-id exemplars, and the SLO engine's
  /// qpp_slo_* self-metrics.
  std::string prometheus_text;
  /// The request whose tick closed the first breaching window.
  uint64_t breach_trace_id = 0;
};

/// Drives a small traced fabric through deterministic overload waves with
/// an SloEngine judging seed-derived synthetic latencies, so an SLO breach
/// is *guaranteed* and everything observability promises can be asserted:
/// trace-id propagation front door to span chain, the flight dump at the
/// breach, alert accounting, and the Prometheus exposition. Needs
/// options.requests >= 512 (the default 400 is rounded up by callers).
ObsFlightDemoResult RunObsFlightDemo(const ChaosOptions& options);

}  // namespace qpp::fault
