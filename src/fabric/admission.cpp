#include "fabric/admission.h"

#include "common/check.h"
#include "obs/request_context.h"

namespace qpp::fabric {

namespace {
// Responses per tumbling window of the windowed p99 (observed via the
// services' on_response hook).
constexpr uint64_t kLatencyWindow = 512;
// The engine's eager-refresh cadence while a window is still open: the
// quantile pass over the bucket array is cheap, but not once-per-response
// cheap, and admission only needs a signal that tracks the window, not one
// that is exact on every sample. Same constant the retired hand-rolled
// ring used between nth_element refreshes.
constexpr uint64_t kEagerRefreshEvery = 32;

const std::string& P99RuleName() {
  static const std::string kName = "admission_p99";
  return kName;
}

obs::SloEngineOptions EngineOptions(obs::MetricsRegistry* registry,
                                    obs::FlightRecorder* flight,
                                    obs::TraceRecorder* trace) {
  obs::SloEngineOptions options;
  options.window_ticks = kLatencyWindow;
  options.eager_refresh_every = kEagerRefreshEvery;
  options.registry = registry;
  options.flight = flight;
  options.trace = trace;
  return options;
}
}  // namespace

AdmissionController::AdmissionController(AdmissionConfig config,
                                         obs::MetricsRegistry* registry,
                                         obs::FlightRecorder* flight,
                                         obs::TraceRecorder* trace)
    : config_(config),
      latency_([] {
        obs::HistogramOptions o;
        o.exemplars = true;  // a breaching window names the trace that did it
        return o;
      }()),
      slo_(EngineOptions(registry, flight, trace)) {
  QPP_CHECK(config_.p99_slo_seconds > 0.0);
  obs::SloRule rule;
  rule.name = P99RuleName();
  rule.kind = obs::SloRule::Kind::kHistogramQuantile;
  rule.threshold = config_.p99_slo_seconds;
  rule.histogram = &latency_;
  rule.quantile = 0.99;
  slo_.AddRule(std::move(rule));
}

void AdmissionController::RecordLatency(double seconds) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (virtual_load_.has_value()) {
      // Deterministic harness owns the signal: freeze the live pipeline so
      // replays stay bit-identical, alert counters and flight dump included.
      return;
    }
  }
  latency_.Record(seconds, obs::CurrentRequestContext().trace_id);
  slo_.Tick();
}

LoadSignal AdmissionController::Signal(size_t live_queue_depth) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (virtual_load_.has_value()) return *virtual_load_;
  }
  return {live_queue_depth, slo_.RuleValue(P99RuleName())};
}

bool AdmissionController::Breached(const LoadSignal& s) const {
  if (!config_.enabled) return false;
  if (config_.max_queue_depth > 0 && s.queue_depth > config_.max_queue_depth) {
    return true;
  }
  return s.windowed_p99_seconds > config_.p99_slo_seconds;
}

AdmissionAction AdmissionController::Decide(workload::QueryType pool,
                                            const LoadSignal& s) const {
  if (!Breached(s)) return AdmissionAction::kAdmit;
  switch (pool) {
    case workload::QueryType::kWreckingBall:
      return AdmissionAction::kShed;
    case workload::QueryType::kBowlingBall:
      return config_.defer_bowling ? AdmissionAction::kDefer
                                   : AdmissionAction::kAdmit;
    case workload::QueryType::kFeather:
    case workload::QueryType::kGolfBall:
      break;  // lights always flow — that is the point of shedding heavies
  }
  return AdmissionAction::kAdmit;
}

void AdmissionController::SetVirtualLoad(std::optional<LoadSignal> signal) {
  std::lock_guard<std::mutex> lock(mu_);
  virtual_load_ = signal;
}

}  // namespace qpp::fabric
