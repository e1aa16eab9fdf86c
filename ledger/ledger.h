// Shared pieces of the ledger benchmark: run options, the report every
// workload fills, exact-sample statistics, and the in-memory span store
// the traced runs record into. See README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/two_step.h"
#include "inputs.h"

namespace qpp::ledger {

struct Options {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< where a traced run writes its spans
};

/// The elapsed-time categories in enum order: the two-step model's
/// expert slots.
inline constexpr workload::QueryType kCategories[] = {
    workload::QueryType::kFeather, workload::QueryType::kGolfBall,
    workload::QueryType::kBowlingBall, workload::QueryType::kWreckingBall};

/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 5;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact quantile of the samples (linear interpolation between the two
/// nearest ranks, as numpy's default); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// What one run measured and checked.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Run-level checks (golden risks, cache shares, replay identity,
  /// reconciliation); any false entry makes the run incorrect.
  std::vector<std::pair<std::string, bool>> checks;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;

  void Check(const std::string& what, bool ok) { checks.emplace_back(what, ok); }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  bool correct() const;
};

/// Spans recorded by the benchmark around its calls into the program:
/// name, the operation they belong to (request or round), the enclosing
/// span, and steady-clock nanoseconds. Every span feeds the per-name
/// totals; the first kKept are also kept for the Chrome trace that
/// Write() emits when the run ends.
class SpanStore {
 public:
  SpanStore() { kept_.reserve(kKept); }

  /// Records [start_ns, end_ns) and returns its id (for children's parent).
  /// `weight` is the number of calls the span covers: a loop too short to
  /// time call by call is recorded as one span over all of them. `name`
  /// must be a string literal: totals are keyed by its address, which
  /// keeps Add to a few nanoseconds on the serving loop.
  uint32_t Add(const char* name, uint64_t op, uint32_t parent,
               int64_t start_ns, int64_t end_ns, uint64_t weight = 1);
  static constexpr uint32_t kNoParent = 0xffffffffu;

  /// Summed nanoseconds of the spans named `name`.
  double TotalNs(const std::string& name) const;
  /// Mean microseconds per call (0 when none were recorded).
  double MeanUs(const std::string& name) const;

  /// Chrome trace_event JSON of the kept spans; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    uint64_t op;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Total {
    const char* name = nullptr;
    double ns = 0.0;
    uint64_t count = 0;
  };
  const Total* Find(const std::string& name) const;

  static constexpr size_t kKept = 50000;
  uint32_t next_id_ = 0;
  std::vector<Rec> kept_;
  std::vector<Total> totals_;  ///< one per distinct name, first-use order
};

/// FNV-1a 64 of `bytes`, continuing from `h`.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 14695981039346656037ull);

/// Digest of what the outside training replay reproduces of a trained
/// two-step model: for the base model and then each category in enum
/// order, whether a model exists, its KCCA state (ml::KccaModel::Save) and
/// its self-distance thresholds.
uint64_t TrainDigest(const core::TwoStepPredictor& model);

/// Times the calls TwoStepPredictor::Train makes, by making them from here
/// through the public ml:: functions Predictor::Train calls, into spans
/// ml.preprocess, ml.kcca_train, ml.kdtree_build and ml.self_knn (one each
/// per model trained). Returns the digest of what it trained: equal to
/// TrainDigest of a model trained normally on `examples` (default config)
/// exactly when the replay is byte-faithful.
uint64_t ReplayTwoStepTrain(const std::vector<ml::TrainingExample>& examples,
                            SpanStore* spans, uint64_t op);

/// Median time of a fixed single-thread floating-point kernel, in
/// microseconds: a host-speed probe to tell a drifting host from a change.
double HostProbeUs();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

void RunServe(const Inputs& inputs, const Options& options, bool hot,
              Report* report);
void RunOffline(const Inputs& inputs, const Options& options, Report* report);

}  // namespace qpp::ledger
