#include "serve/service_stats.h"

#include <cstdio>
#include <iterator>

#include "common/check.h"

namespace qpp::serve {

namespace {

// Each labeled fallback's reason (its qpp_serve_fallbacks_total label) and
// the snapshot field that reports it.
struct FallbackCounter {
  const char* reason;
  uint64_t ServiceStatsSnapshot::*field;
};
constexpr FallbackCounter kFallbacks[] = {
    {"no-model", &ServiceStatsSnapshot::fallback_no_model},
    {"anomalous", &ServiceStatsSnapshot::fallback_anomalous},
    {"deadline", &ServiceStatsSnapshot::fallback_deadline},
    {"shutdown", &ServiceStatsSnapshot::fallback_shutdown},
    {"overload", &ServiceStatsSnapshot::fallback_overload},
    {"circuit-open", &ServiceStatsSnapshot::fallback_circuit_open},
};
static_assert(std::size(kFallbacks) == kNumFallbackReasons);

}  // namespace

ServiceStats::ServiceStats()
    : requests_(registry_.GetCounter("qpp_serve_requests_total")),
      cache_hits_(registry_.GetCounter("qpp_serve_cache_hits_total")),
      model_predictions_(
          registry_.GetCounter("qpp_serve_model_predictions_total")),
      rejected_(registry_.GetCounter("qpp_serve_rejected_total")),
      batches_(registry_.GetCounter("qpp_serve_batches_total")),
      batched_requests_(
          registry_.GetCounter("qpp_serve_batched_requests_total")),
      shadow_observed_(
          registry_.GetCounter("qpp_lifecycle_shadow_observed_total")),
      latency_(registry_.GetHistogram(
          "qpp_serve_latency_seconds", {},
          // Default layout plus per-bucket exemplars: a tail bucket in the
          // exposition names a trace id that landed there.
          [] {
            obs::HistogramOptions o;
            o.exemplars = true;
            return o;
          }())),
      batch_size_(registry_.GetHistogram(
          "qpp_serve_batch_size", {},
          // Count-scaled layout (1..1e4 requests per micro-batch): shows
          // whether workers actually drain in batches — the blocked
          // predict path's speedup is a function of this distribution.
          [] {
            obs::HistogramOptions o;
            o.min_exponent = 0;
            o.max_exponent = 4;
            return o;
          }())) {
  for (size_t i = 0; i < fallbacks_.size(); ++i) {
    fallbacks_[i] = registry_.GetCounter("qpp_serve_fallbacks_total",
                                         {{"reason", kFallbacks[i].reason}});
  }
  registry_.SetHelp("qpp_serve_latency_seconds",
                    "submit-to-response latency of served requests");
  registry_.SetHelp("qpp_serve_requests_total", "responses delivered");
  registry_.SetHelp("qpp_serve_fallbacks_total",
                    "degraded responses by labeled reason");
  registry_.SetHelp("qpp_serve_batch_size",
                    "requests drained per worker micro-batch");
  registry_.SetHelp("qpp_lifecycle_shadow_observed_total",
                    "model/cache responses handed to the shadow lane");
}

void ServiceStats::RecordFallback(std::string_view reason) {
  for (size_t i = 0; i < fallbacks_.size(); ++i) {
    if (reason == kFallbacks[i].reason) {
      fallbacks_[i]->Inc();
      return;
    }
  }
  QPP_CHECK_MSG(false, "unknown fallback reason: " << reason);
}

ServiceStatsSnapshot ServiceStats::Snapshot() const {
  ServiceStatsSnapshot s;
  s.requests = requests_->value();
  s.cache_hits = cache_hits_->value();
  s.model_predictions = model_predictions_->value();
  for (size_t i = 0; i < fallbacks_.size(); ++i) {
    s.*kFallbacks[i].field = fallbacks_[i]->value();
  }
  s.rejected = rejected_->value();
  s.batches = batches_->value();
  s.batched_requests = batched_requests_->value();
  s.shadow_observed = shadow_observed_->value();
  const obs::HistogramSnapshot latency = latency_->Snapshot();
  s.p50_seconds = latency.Quantile(0.50);
  s.p95_seconds = latency.Quantile(0.95);
  s.p99_seconds = latency.Quantile(0.99);
  s.latency_min_seconds = latency.min;
  s.latency_max_seconds = latency.max;
  s.latency_underflow = latency.underflow;
  s.latency_overflow = latency.overflow;
  return s;
}

namespace {
std::string FormatLatency(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}
}  // namespace

std::string ServiceStatsSnapshot::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "requests:          %llu (rejected: %llu)\n"
      "cache hits:        %llu (%.1f%%)\n"
      "model predictions: %llu\n"
      "fallbacks:         %llu (no-model %llu, anomalous %llu, deadline "
      "%llu, shutdown %llu, overload %llu, circuit-open %llu)\n"
      "batches:           %llu (mean size %.2f)\n"
      "latency:           p50 %s, p95 %s, p99 %s\n"
      "latency range:     min %s, max %s\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(cache_hits), 100.0 * cache_hit_rate(),
      static_cast<unsigned long long>(model_predictions),
      static_cast<unsigned long long>(fallbacks()),
      static_cast<unsigned long long>(fallback_no_model),
      static_cast<unsigned long long>(fallback_anomalous),
      static_cast<unsigned long long>(fallback_deadline),
      static_cast<unsigned long long>(fallback_shutdown),
      static_cast<unsigned long long>(fallback_overload),
      static_cast<unsigned long long>(fallback_circuit_open),
      static_cast<unsigned long long>(batches), mean_batch_size(),
      FormatLatency(p50_seconds).c_str(), FormatLatency(p95_seconds).c_str(),
      FormatLatency(p99_seconds).c_str(),
      FormatLatency(latency_min_seconds).c_str(),
      FormatLatency(latency_max_seconds).c_str());
  return buf;
}

}  // namespace qpp::serve
