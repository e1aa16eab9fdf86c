// Shared headline computations for the golden-results regression suite.
//
// Each Compute* function performs exactly the computation its bench
// (bench_fig03, bench_fig10/11/12, bench_tab2, bench_fig13, bench_fig16,
// bench_fig17) reports, and returns both the rich intermediate data (for
// the bench's human-readable output) and a flat GoldenMap of headline
// values. The same maps are pinned in tests/golden/*.json and re-checked
// by tests/golden_results_test.cpp, so a drift in any EXPERIMENTS.md
// headline number fails `ctest -L golden` instead of silently rotting in
// the prose.
//
// Null risks (ml::PredictiveRisk returning NaN, e.g. disk I/O on the
// 8/16/32-node Fig. 16 configurations where no query does any I/O) are
// never stored as NaN: the map carries a `<key>_null` 0/1 indicator and
// the numeric `<key>` only when it exists, so a metric flipping between
// Null and a number changes the key set and fails the key-coverage check.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"

namespace qpp::bench {

/// Flat headline key -> value map; the unit pinned by a golden file.
using GoldenMap = std::map<std::string, double>;

/// Fig. 3: OLS regression predicting elapsed time on the TRAINING set —
/// the paper's negative result (negative times, orders-of-magnitude off).
struct Fig03Golden {
  linalg::Vector predicted;
  linalg::Vector actual;
  size_t negatives = 0;   ///< predictions below zero seconds
  size_t order_off = 0;   ///< >=10x away from actual
  double within20 = 0.0;  ///< fraction within 20% relative error
  double risk = 0.0;      ///< predictive risk on the training set
  GoldenMap values;
};
Fig03Golden ComputeFig03(const PaperExperiment& exp);

/// Experiment 1 (Figs. 10-12 share one trained model): default KCCA
/// predictor, 1027 train / 61 test, all six metrics evaluated.
struct Exp1Golden {
  std::vector<core::MetricEvaluation> evals;
  GoldenMap values;
};
Exp1Golden ComputeExp1(const PaperExperiment& exp);

/// Table II: elapsed/disk risk as the neighbor count k sweeps 3..7.
struct Tab2Golden {
  std::vector<size_t> ks;
  std::vector<std::vector<core::MetricEvaluation>> per_k;
  double elapsed_spread = 0.0;  ///< max - min elapsed risk across k
  GoldenMap values;
};
Tab2Golden ComputeTab2(const PaperExperiment& exp);

/// Fig. 13 (Experiment 2): balanced 30/30/30 training vs the full 1027.
/// Pass ComputeExp1's evals so the 1027-query model is not retrained.
struct Fig13Golden {
  std::vector<core::MetricEvaluation> evals90;
  std::vector<core::MetricEvaluation> evals1027;
  GoldenMap values;
};
Fig13Golden ComputeFig13(const PaperExperiment& exp,
                         const std::vector<core::MetricEvaluation>& evals1027);

/// Fig. 16: one entry per node count (4/8/16/32) on the production system.
struct Fig16Config {
  std::string name;
  int nodes = 0;
  size_t feathers = 0;
  size_t io_queries = 0;  ///< queries with any disk I/O
  double max_elapsed = 0.0;
  std::vector<core::MetricEvaluation> evals;
  std::string plan_signature;
};
struct Fig16Golden {
  std::vector<Fig16Config> configs;
  bool plans_differ = false;  ///< 4-node vs 32-node plan for one query
  GoldenMap values;
};
Fig16Golden ComputeFig16();

/// Fig. 17: optimizer cost vs actual elapsed in log-log space, with the
/// KCCA contrast computed from Experiment 1's evals.
struct Fig17Golden {
  std::vector<double> log_cost;
  std::vector<double> log_time;
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
  size_t off10 = 0;
  size_t off100 = 0;
  size_t over_minute = 0;
  size_t off10_over_minute = 0;
  size_t kcca_off10 = 0;
  GoldenMap values;
};
Fig17Golden ComputeFig17(const PaperExperiment& exp,
                         const std::vector<core::MetricEvaluation>& exp1_evals);

/// Fabric capacity soak (docs/FABRIC.md): runs the chaos table's
/// fabric-soak row at the pinned schedule — seed 42, 50k requests — and
/// returns its deterministic counter set (admission sheds/defers, the
/// counted replica kill, stall = deadline fallbacks, rolling drains).
/// Every value is an exact counter, so the golden tolerances are zero;
/// throughput/latency never appear here. Refresh with:
///   build/tools/qpp_tool chaos --fabric-soak --seed 42 --requests 50000
///       --json-out tests/golden/fabric.json   (one command line)
struct FabricSoakGolden {
  std::string report;       ///< byte-replayable human-readable summary
  bool ok = false;          ///< no invariant violations
  GoldenMap values;
};
FabricSoakGolden ComputeFabricSoak();

/// Model-lifecycle chaos scenario (docs/LIFECYCLE.md): runs the chaos
/// table's model-lifecycle row at the pinned seed 42 and returns its
/// counter set — candidates registered vs poisoned, promotions, the watchdog
/// rollback, the confirmed promotion, and the zero-tolerance keys
/// (lifecycle_poisoned_promoted / lifecycle_poisoned_served must pin at
/// exactly 0: a poisoned candidate never reaches user traffic). All exact
/// counters, so every tolerance is zero. Refresh with:
///   build/tools/qpp_tool chaos --scenario model-lifecycle --seed 42
///       --json-out tests/golden/lifecycle.json   (one command line)
struct LifecycleGolden {
  std::string report;       ///< embeds the full promotion decision log
  bool ok = false;          ///< no invariant violations
  GoldenMap values;
};
LifecycleGolden ComputeLifecycleChaos();

// --- flat golden JSON --------------------------------------------------
// The golden files are one-level JSON objects {"key": number, ...} with
// keys sorted; simple enough that qpp carries its own ~40-line parser
// rather than growing a JSON dependency.

/// Renders the map as a sorted flat JSON object (trailing newline).
std::string GoldenJson(const GoldenMap& values);

/// Writes GoldenJson(values) to `path`; throws CheckFailure on I/O error.
void WriteGoldenJson(const std::string& path, const GoldenMap& values);

/// Parses a flat {"key": number} object; throws CheckFailure on
/// malformed input or unreadable files.
GoldenMap ReadGoldenJson(const std::string& path);

/// Returns the PATH following a `--json-out` argument, or "" when absent.
std::string JsonOutPath(int argc, char** argv);

/// If `--json-out` was given, writes the map there and prints a note.
void MaybeWriteGolden(int argc, char** argv, const GoldenMap& values);

}  // namespace qpp::bench
