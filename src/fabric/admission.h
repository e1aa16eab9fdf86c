// Prediction-aware admission control: the paper's "better decisions"
// thesis applied to the serving fabric's own front door.
//
// The step-1 classifier already tells the router which pool a query
// belongs to (feather / golf ball / bowling ball / wrecking ball — Fig. 2).
// Under overload that verdict is exactly the information an admission
// controller needs: a wrecking ball occupies a worker for orders of
// magnitude longer than a feather, so shedding or deferring the few
// heavies keeps the many lights inside the latency SLO. This mirrors the
// production pattern in the LinkedIn QPP study (PAPERS.md): predictions
// gate work *before* it consumes capacity, not after.
//
// The controller watches two load signals — total queued requests across
// the fabric and a windowed p99 of recent response latencies — and, while
// either breaches its configured SLO, applies per-pool policy:
//
//   feather / golf ball   always admitted (they keep flowing)
//   bowling ball          deferred: parked at the front door, dispatched
//                         when the breach clears (bounded buffer;
//                         overflow degrades to shed)
//   wrecking ball         shed: answered immediately with the calibrated
//                         optimizer-cost baseline, labeled "admission-shed"
//
// The windowed-p99 signal is not computed here: the controller owns a
// latency histogram and an obs::SloEngine with one histogram-quantile rule
// ("admission_p99", threshold = p99_slo_seconds), tick-advanced once per
// observed response. Signal() reads the engine's latest rule value, so the
// same number steers admission, fires qpp_slo_alerts_total, lands in the
// flight recorder, and shows up in the trace — one SLO truth, several
// consumers (see obs/slo.h).
//
// Determinism: decisions are a pure function of (pool, LoadSignal). The
// live signal is timing-dependent by nature (that is the point), so
// deterministic harnesses — the fabric soak, the golden pins — inject a
// virtual LoadSignal keyed by request index via SetVirtualLoad(); while
// the override is set, RecordLatency is a no-op (the live pipeline stays
// frozen), so replay is bit-for-bit, counters and flight dump included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "workload/pools.h"

namespace qpp::fabric {

struct AdmissionConfig {
  /// Master switch; disabled (the default) admits everything and costs
  /// one bool test per request.
  bool enabled = false;
  /// Windowed-p99 SLO: a breach marks the fabric overloaded.
  double p99_slo_seconds = 0.05;
  /// Queued-request SLO across all replica queues; 0 disables the
  /// depth trigger.
  size_t max_queue_depth = 256;
  /// Bowling balls are deferred under overload (see file comment); off
  /// admits them unconditionally. Wrecking balls are always shed.
  bool defer_bowling = true;
  /// Bound on front-door-parked deferred requests; overflow sheds.
  size_t max_deferred = 256;
};

/// Deferred requests dispatched per admitted request once the breach
/// clears (piggyback draining keeps the front door thread-free).
inline constexpr size_t kDeferDrainPerSubmit = 4;

/// The load evidence one admission decision is based on.
struct LoadSignal {
  size_t queue_depth = 0;
  double windowed_p99_seconds = 0.0;
};

enum class AdmissionAction { kAdmit, kShed, kDefer };

class AdmissionController {
 public:
  /// All sinks optional (must outlive the controller): `registry` receives
  /// the engine's qpp_slo_* self-metrics, `flight`/`trace` its alerts.
  explicit AdmissionController(AdmissionConfig config,
                               obs::MetricsRegistry* registry = nullptr,
                               obs::FlightRecorder* flight = nullptr,
                               obs::TraceRecorder* trace = nullptr);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Feeds the windowed-p99 signal; called from whichever worker thread
  /// answers a request (the fabric wires this into every replica's
  /// on_response hook). Records into the latency histogram and advances
  /// the SLO engine by one tick. No-op while a virtual load is set — the
  /// deterministic harnesses own the signal then. Thread-safe; the hot
  /// path is a histogram store plus a tick counter.
  void RecordLatency(double seconds);

  /// The signal the next decision will see: the virtual override when one
  /// is set (deterministic harnesses), else `live_queue_depth` plus the
  /// current windowed p99.
  LoadSignal Signal(size_t live_queue_depth) const;

  /// True when `s` breaches either configured SLO.
  bool Breached(const LoadSignal& s) const;

  /// Policy table: what to do with a `pool` query given signal `s`.
  /// Pure — counting happens at the fabric, where the final outcome
  /// (e.g. defer overflowing into shed) is known.
  AdmissionAction Decide(workload::QueryType pool, const LoadSignal& s) const;

  /// Deterministic-mode override: while set, Signal() returns exactly
  /// this regardless of live load (and RecordLatency is a no-op).
  /// nullopt restores live signals.
  void SetVirtualLoad(std::optional<LoadSignal> signal);

 private:
  const AdmissionConfig config_;
  mutable std::mutex mu_;
  std::optional<LoadSignal> virtual_load_;
  // The latency evidence and its judge. The histogram is private (the
  // fabric's registry still sees the signal via qpp_slo_rule_value); the
  // engine tumbles a window every 512 responses (kLatencyWindow) and eagerly
  // refreshes every 32 while a window is open, preserving the cadence of
  // the retired hand-rolled ring buffer.
  obs::Histogram latency_;
  obs::SloEngine slo_;
};

}  // namespace qpp::fabric
