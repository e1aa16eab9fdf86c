// Built-in service observability: request/fallback/cache counters and a
// wait-free log-bucketed latency histogram with p50/p95/p99 estimates.
//
// Since the qpp::obs subsystem landed, ServiceStats is a facade over an
// obs::MetricsRegistry: every counter and the latency histogram live in
// the registry under stable names (qpp_serve_*, see docs/OBSERVABILITY.md)
// so the same numbers are available through its Prometheus text, while
// this header keeps the original narrow Record*/Snapshot API the service
// and its tests were written against. The hot path is unchanged — the
// registry hands back stable metric pointers that are resolved once in the
// constructor, and recording through them is the same relaxed-atomic
// fetch_add it always was.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/registry.h"

namespace qpp::serve {

/// One consistent-enough read of the service counters.
struct ServiceStatsSnapshot {
  uint64_t requests = 0;           ///< responses delivered
  uint64_t cache_hits = 0;
  uint64_t model_predictions = 0;  ///< answered by the live model
  uint64_t fallback_no_model = 0;
  uint64_t fallback_anomalous = 0;
  uint64_t fallback_deadline = 0;
  uint64_t fallback_shutdown = 0;      ///< Submit lost the race with Shutdown
  uint64_t fallback_overload = 0;      ///< SubmitWithRetry exhausted attempts
  uint64_t fallback_circuit_open = 0;  ///< breaker short-circuited the model
  uint64_t rejected = 0;           ///< TrySubmit refused (queue full)
  uint64_t batches = 0;
  uint64_t batched_requests = 0;   ///< sum of batch sizes
  /// Model/cache responses handed to the shadow lane (the lifecycle
  /// observer); 0 when no ShadowObserver is configured.
  uint64_t shadow_observed = 0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  /// Exact extreme latencies observed (not bucket estimates); 0 when no
  /// responses were recorded.
  double latency_min_seconds = 0.0;
  double latency_max_seconds = 0.0;
  /// Samples outside the histogram range (sub-100ns / >100s); they count
  /// toward `requests` and the quantile ranks but carry no bucket.
  uint64_t latency_underflow = 0;
  uint64_t latency_overflow = 0;

  uint64_t fallbacks() const {
    return fallback_no_model + fallback_anomalous + fallback_deadline +
           fallback_shutdown + fallback_overload + fallback_circuit_open;
  }
  double cache_hit_rate() const {
    return requests > 0 ? static_cast<double>(cache_hits) /
                              static_cast<double>(requests)
                        : 0.0;
  }
  double mean_batch_size() const {
    return batches > 0 ? static_cast<double>(batched_requests) /
                             static_cast<double>(batches)
                       : 0.0;
  }

  /// Multi-line human-readable report (printed by `qpp_tool serve`).
  std::string ToString() const;
};

/// How many labeled fallback reasons ServiceStats counts (one
/// qpp_serve_fallbacks_total series and one fallback_* snapshot field each).
inline constexpr size_t kNumFallbackReasons = 6;

class ServiceStats {
 public:
  ServiceStats();

  /// `trace_id` (0 = none) becomes the latency bucket's exemplar, linking
  /// a Prometheus tail bucket to the request's Chrome trace.
  void RecordResponse(double latency_seconds, uint64_t trace_id = 0) {
    requests_->Inc();
    latency_->Record(latency_seconds, trace_id);
  }
  void RecordCacheHit() { cache_hits_->Inc(); }
  void RecordModelPrediction() { model_predictions_->Inc(); }
  /// Counts one labeled fallback under its `reason` (a ServeResponse
  /// degraded_reason: "no-model", "anomalous", "deadline", "shutdown",
  /// "overload" or "circuit-open").
  void RecordFallback(std::string_view reason);
  void RecordRejected() { rejected_->Inc(); }
  void RecordShadowObserved() { shadow_observed_->Inc(); }
  void RecordBatch(size_t batch_size) {
    batches_->Inc();
    batched_requests_->Inc(batch_size);
    batch_size_->Record(static_cast<double>(batch_size));
  }

  ServiceStatsSnapshot Snapshot() const;

  /// The backing registry — the Prometheus export surface, and where
  /// components sharing the service's observability (e.g. a DriftMonitor)
  /// register their own metrics.
  obs::MetricsRegistry* registry() { return &registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  obs::MetricsRegistry registry_;
  obs::Counter* requests_;
  obs::Counter* cache_hits_;
  obs::Counter* model_predictions_;
  /// One per labeled reason, in the order of service_stats.cpp's table.
  std::array<obs::Counter*, kNumFallbackReasons> fallbacks_;
  obs::Counter* rejected_;
  obs::Counter* batches_;
  obs::Counter* batched_requests_;
  obs::Counter* shadow_observed_;
  obs::Histogram* latency_;
  obs::Histogram* batch_size_;
};

}  // namespace qpp::serve
