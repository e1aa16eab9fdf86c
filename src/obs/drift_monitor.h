// Online prediction-drift monitoring.
//
// The paper trains once and predicts forever; production does not work
// that way — data grows, configurations change, OS upgrades shift operator
// costs (the paper's own Section VII anecdote), and the model quietly
// rots. The LinkedIn evaluation of learned QPP models (PAPERS.md) found
// that operational value hinges on tracking prediction error continuously;
// Kleerekoper et al.'s optimizer-cost study motivates watching the
// calibrated-cost fallback path with the same instrument rather than
// trusting either predictor blindly.
//
// DriftMonitor compares served predictions against observed metrics (from
// the execution simulator standing in for the real system) and maintains
// exponentially weighted moving averages of per-metric relative error —
// overall and per query pool (feather / golf ball / bowling ball), and
// separately for the model path vs the optimizer-cost fallback path (the
// fallback only predicts elapsed time, so only elapsed is compared there).
//
// Outputs:
//  * gauges in a MetricsRegistry (qpp_drift_relerr_ewma{metric=...,pool=...},
//    qpp_drift_fallback_share, ...) so the Prometheus text exposes drift;
//  * a drift signal (Observe's return value, qpp_drift_signals_total) when
//    any model-path metric EWMA crosses kDriftThreshold. Acting on it is
//    the lifecycle's job: lifecycle::LifecycleManager shadow-scores a
//    retrained candidate before anything is published (docs/LIFECYCLE.md).
//
// Thread safety: Observe() and all readers are safe from any thread (one
// mutex; observation rates are per-query, not per-instruction).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "engine/metrics.h"
#include "obs/registry.h"
#include "workload/pools.h"

namespace qpp::obs {

/// EWMA smoothing: weight of the newest observation.
inline constexpr double kDriftAlpha = 0.1;
/// Model-path observations before the first signal can fire (EWMA
/// warm-up).
inline constexpr uint64_t kDriftWarmupObservations = 32;
/// Any model-path metric EWMA above this (once warm) signals drift.
inline constexpr double kDriftThreshold = 0.5;
/// Model-path observations between consecutive drift signals, so a
/// sustained drift does not signal on every query.
inline constexpr size_t kDriftRefireInterval = 32;

class DriftMonitor {
 public:
  /// Which serving path produced the prediction being scored.
  enum class Source {
    kModel,     ///< KCCA model (or cache of it)
    kFallback,  ///< calibrated optimizer-cost estimate
  };

  /// `registry` (optional) receives drift gauges, updated on every
  /// Observe; it must outlive the monitor.
  explicit DriftMonitor(MetricsRegistry* registry = nullptr);

  /// Scores one served prediction against the observed metrics. The query
  /// pool is derived from the observed elapsed time (the paper's Fig. 2
  /// boundaries). Returns true when this observation raised a drift
  /// signal.
  bool Observe(Source source, const engine::QueryMetrics& predicted,
               const engine::QueryMetrics& actual);

  /// Model-path relative-error EWMA for metric index m (paper order,
  /// engine::QueryMetrics::MetricNames()); 0 before any observation.
  double MetricEwma(size_t m) const;
  double PoolMetricEwma(workload::QueryType pool, size_t m) const;
  /// Fallback-path elapsed-time relative-error EWMA.
  double FallbackElapsedEwma() const;

  uint64_t model_observations() const;
  uint64_t fallback_observations() const;
  /// Fraction of scored responses answered by the fallback path.
  double fallback_share() const;

  /// True when any model-path metric EWMA currently exceeds the threshold
  /// (and the monitor is warm).
  bool drifted() const;

  /// Multi-line report block: per-metric EWMAs with pool breakdown, plus
  /// the fallback-vs-model share and error comparison (printed by
  /// `qpp_tool serve` under the latency block).
  std::string ToString() const;

 private:
  struct Ewma {
    double value = 0.0;
    uint64_t n = 0;
    void Update(double x) {
      value = n == 0 ? x : kDriftAlpha * x + (1.0 - kDriftAlpha) * value;
      ++n;
    }
  };

  static constexpr size_t kNumMetrics = engine::QueryMetrics::kNumMetrics;

  void ExportLocked();

  MetricsRegistry* const registry_;

  mutable std::mutex mu_;
  Ewma overall_[kNumMetrics];
  Ewma per_pool_[workload::kNumQueryTypes][kNumMetrics];
  Ewma fallback_elapsed_;
  uint64_t model_obs_ = 0;
  uint64_t fallback_obs_ = 0;
  uint64_t since_signal_ = 0;

  // Gauge/counter pointers resolved once at construction (null without a
  // registry).
  Gauge* overall_gauges_[kNumMetrics] = {};
  Gauge* pool_gauges_[workload::kNumQueryTypes][kNumMetrics] = {};
  Gauge* fallback_share_gauge_ = nullptr;
  Gauge* fallback_elapsed_gauge_ = nullptr;
  Counter* model_obs_counter_ = nullptr;
  Counter* fallback_obs_counter_ = nullptr;
  Counter* signals_counter_ = nullptr;
};

}  // namespace qpp::obs
