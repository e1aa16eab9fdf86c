// The deterministic windowed SLO engine: tumbling windows over registry
// metrics, keyed on observation count (one Tick per unit of work — a
// response, a request, a virtual-time step), never on the wall clock.
//
// Rules are declarative:
//   * histogram-quantile — "p99 of this latency histogram over the last
//     window must stay under the SLO";
//   * counter-ratio — "fallback share of responses over the window must
//     stay under X" (burn-rate style: numerator delta / denominator delta);
//   * gauge-threshold — "the drift EWMA must stay under X" (instantaneous;
//     gauges are already windowed by their producer).
//
// Every window close evaluates every rule against the window's metric
// *delta* (baseline snapshots are advanced per window), publishes the
// value into qpp_slo_* metrics, and emits one counted alert + flight-
// recorder event + trace instant per breaching rule. Because windows are
// tick-counted and the evaluated values come from deterministic inputs in
// the seeded harnesses, two same-seed runs fire byte-identical alerts.
//
// The engine is the single source of SLO truth: fabric::AdmissionController
// consumes its windowed p99 instead of keeping a private latency ring, the
// flight recorder dumps on its breaches, and tests assert on its counters
// — one rule set, three consumers.
//
// Eager startup: a tumbling window says nothing until the first window
// closes. Consumers that steer live traffic (admission) can set
// `eager_refresh_every` to also evaluate over the partial first-ish window
// every N ticks, matching the "refresh eagerly while filling" behavior the
// admission controller always had. Eager evaluations update rule values
// and alerts but do not advance window baselines or the window index.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace qpp::obs {

struct SloRule {
  enum class Kind {
    kHistogramQuantile,  ///< value = window-delta Quantile(quantile)
    kCounterRatio,       ///< value = Δnumerator / Δdenominator
    kGaugeThreshold,     ///< value = gauge->value() at evaluation
  };

  std::string name;  ///< alert label ("admission_p99", "fallback_share")
  Kind kind = Kind::kHistogramQuantile;
  /// value > threshold ⇒ the rule breaches.
  double threshold = 0.0;
  /// Windows with fewer samples than this never breach (Δdenominator for
  /// ratio rules, window count for quantile rules; gauges ignore it).
  uint64_t min_samples = 1;

  // Exactly one of the following groups, per kind. The metrics must
  // outlive the engine.
  const Histogram* histogram = nullptr;
  double quantile = 0.99;
  const Counter* numerator = nullptr;
  const Counter* denominator = nullptr;
  const Gauge* gauge = nullptr;
};

/// One rule's verdict at one evaluation.
struct SloRuleOutcome {
  std::string rule;
  double value = 0.0;
  double threshold = 0.0;
  uint64_t samples = 0;
  bool breached = false;
};

struct SloEvaluation {
  uint64_t window_index = 0;  ///< windows closed so far (eager: next index)
  bool eager = false;         ///< partial-window refresh, not a close
  std::vector<SloRuleOutcome> rules;

  bool any_breached() const {
    for (const SloRuleOutcome& r : rules) {
      if (r.breached) return true;
    }
    return false;
  }
};

struct SloEngineOptions {
  /// Ticks per tumbling window.
  uint64_t window_ticks = 256;
  /// 0 = pure tumbling windows; N > 0 also evaluates every N ticks while
  /// the current window is still open (see file comment).
  uint64_t eager_refresh_every = 0;
  /// Optional sinks; must outlive the engine. `registry` receives the
  /// qpp_slo_* self-metrics, `flight` one event per window close and per
  /// alert, `trace` one instant per alert (category "slo").
  MetricsRegistry* registry = nullptr;
  FlightRecorder* flight = nullptr;
  TraceRecorder* trace = nullptr;
};

class SloEngine {
 public:
  explicit SloEngine(SloEngineOptions options = {});

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Registers a rule; its baseline is the metric's state at this call.
  /// Add rules before ticking starts (registration takes the same lock).
  void AddRule(SloRule rule);

  /// Advances virtual time by one observation. Returns the evaluation when
  /// this tick closed a window (or hit an eager refresh), nullopt
  /// otherwise. Thread-safe; under sequential driving fully deterministic.
  std::optional<SloEvaluation> Tick();

  /// True while the latest evaluation had at least one breaching rule.
  bool burning() const;
  /// Latest computed value of `rule` (0 before its first evaluation).
  double RuleValue(const std::string& rule) const;

  uint64_t ticks() const;
  uint64_t windows_closed() const;
  uint64_t alerts_total() const;

 private:
  struct RuleState {
    SloRule rule;
    // Window baselines, advanced at every window close.
    HistogramSnapshot histogram_base;
    uint64_t numerator_base = 0;
    uint64_t denominator_base = 0;
    double last_value = 0.0;
    Counter* alerts = nullptr;    ///< qpp_slo_alerts_total{rule=...}
    Gauge* value_gauge = nullptr; ///< qpp_slo_rule_value{rule=...}
  };

  SloRuleOutcome EvaluateRuleLocked(const RuleState& state) const;
  SloEvaluation EvaluateLocked(bool eager, uint64_t window_index) const;
  void PublishLocked(const SloEvaluation& eval);

  const SloEngineOptions options_;
  mutable std::mutex mu_;
  std::vector<RuleState> rules_;
  uint64_t ticks_ = 0;
  uint64_t ticks_in_window_ = 0;
  uint64_t windows_closed_ = 0;
  uint64_t alerts_total_ = 0;
  bool burning_ = false;
  Counter* windows_counter_ = nullptr;
  Counter* evaluations_counter_ = nullptr;
  Counter* alerts_counter_ = nullptr;
  Gauge* burning_gauge_ = nullptr;
};

}  // namespace qpp::obs
