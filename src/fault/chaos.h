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
// Every run is one row of a table: its name, the FaultPlan it runs under
// (built from ChaosOptions, so a plan can depend on the run's size), and
// its run function. The table holds the six scenarios above and two
// soaks:
//
//   soak            serve: concurrent clients under RandomFaultPlan(seed),
//                   for volume. Only its invariants are stable, not its
//                   report bytes; the test suite gates it behind
//                   QPP_SOAK=1.
//   fabric-soak     fabric: the capacity-scale run, sized for >= 1M
//                   requests and driven sequentially. It combines
//                   admission load waves (a virtual LoadSignal keyed by
//                   request index), a counted replica kill, probabilistic
//                   replica stalls and rolling drain-swap-revives, and
//                   checks the whole fabric contract plus a wall-clock p99
//                   SLO that never enters the report.
//
// All rows but `soak` drive traffic sequentially (one request in flight),
// so the injected fault schedule AND the report are bit-replayable: the
// same row with the same options yields the same report and counters, and
// so does a replay under the row's own plan (`qpp_tool chaos --save-plan`
// then `--plan`). Reports hold only deterministic data — counters, fault
// digests, metric sums — never wall-clock latencies.
#pragma once

#include <cstdint>
#include <optional>
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

/// The small serve fixture the serve scenarios and serve tests train on:
/// `n` rows of five features with nonlinear metric structure, from one
/// seeded stream. A model trains on it in milliseconds.
std::vector<ml::TrainingExample> ServeExamples(size_t n, uint64_t seed);

struct ChaosOptions {
  uint64_t seed = 42;
  /// Requests driven through the service or fabric in serve and fabric
  /// rows.
  size_t requests = 400;
  /// Queries simulated in engine scenarios.
  size_t queries = 24;
  /// When set, replaces the row's own FaultPlan (replay support:
  /// `qpp_tool chaos --plan file`). The plan's own seed is used as-is.
  std::optional<FaultPlan> plan;
};

struct ScenarioResult {
  std::string name;
  /// Deterministic multi-line report (counters, fault digest, metric sums).
  std::string report;
  /// Headline counters as a flat name -> value list in a fixed order, for
  /// the byte-replayable `--json-out` artifact and the golden suite
  /// (tests/golden/fabric.json, tests/golden/lifecycle.json); empty for
  /// rows that publish none.
  std::vector<std::pair<std::string, double>> counters;
  /// Human-readable invariant violations; empty on success.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

/// The six scenarios, in the order `qpp_tool chaos` runs them when no run
/// is named. The soaks are rows too, run by name: "soak", "fabric-soak".
const std::vector<std::string>& ChaosScenarioNames();

/// The FaultPlan row `name` runs under when options.plan is unset, so
/// `qpp_tool chaos --save-plan` ships exactly the schedule a run injects;
/// nullopt when no row has that name.
std::optional<FaultPlan> ChaosScenarioPlan(const std::string& name,
                                           const ChaosOptions& options);

/// A moderate-everything randomized plan, derived from `seed` (the soak
/// row's plan).
FaultPlan RandomFaultPlan(uint64_t seed);

/// The fabric soak's request floor: with fewer requests its counted replica
/// kill never fires, so a shorter run can only fail.
inline constexpr size_t kFabricSoakMinRequests = 10000;

/// Runs one row — a scenario, "soak" or "fabric-soak" — under
/// options.plan, or the row's own plan when that is unset. An unknown name
/// yields a result with a violation (never a crash), so the CLI can report
/// it uniformly. A fabric soak below kFabricSoakMinRequests is a violation.
ScenarioResult RunChaosScenario(const std::string& name,
                                const ChaosOptions& options);

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

/// Drives a small traced fabric — the fabric rig the fabric rows run on,
/// two replicas per group — through deterministic overload waves with
/// an SloEngine judging seed-derived synthetic latencies, so an SLO breach
/// is *guaranteed* and everything observability promises can be asserted:
/// trace-id propagation front door to span chain, the flight dump at the
/// breach, alert accounting, and the Prometheus exposition. Needs
/// options.requests >= 512 (the default 400 is rounded up by callers).
ObsFlightDemoResult RunObsFlightDemo(const ChaosOptions& options);

}  // namespace qpp::fault
