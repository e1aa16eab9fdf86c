// The unified metrics registry: named + labeled counters, gauges, and
// histograms with a snapshot/export API.
//
// Registration (GetCounter/GetGauge/GetHistogram) takes a mutex and
// returns a stable pointer — resolve once, then record through the pointer
// with zero registry involvement (the metric primitives themselves are
// lock-free, see metrics.h). Re-requesting the same (name, labels) returns
// the same instance, so independent components can share a metric.
//
// Export: PrometheusText(), the Prometheus/OpenMetrics text exposition
// with `# HELP`/`# TYPE` headers, cumulative `_bucket{le="..."}` series per
// histogram, and OpenMetrics exemplar comments linking tail buckets to
// request trace ids.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace qpp::obs {

/// Metric labels as key/value pairs; sorted by key at registration time so
/// label order never distinguishes metrics.
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; the pointer stays valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name, Labels labels = {});
  Gauge* GetGauge(const std::string& name, Labels labels = {});
  /// The histogram's layout is fixed at first registration; re-requesting
  /// with different options is a programming error (QPP_CHECK).
  Histogram* GetHistogram(const std::string& name, Labels labels = {},
                          HistogramOptions options = {});

  /// Registers the `# HELP` text PrometheusText() emits for `name` (all
  /// label variants of a metric share one help string). Optional; metrics
  /// without one get a generic line.
  void SetHelp(const std::string& name, const std::string& help);

  /// Prometheus text exposition. Counters/gauges render as one sample per
  /// label set under a shared `# HELP`/`# TYPE` header; histograms render
  /// as cumulative `_bucket{le="..."}` series (underflow counts into every
  /// bucket, `le="+Inf"` adds overflow) plus `_sum`/`_count`, with
  /// OpenMetrics `# {trace_id="..."} value` exemplar suffixes on buckets
  /// that carry one. Deterministic order; ends with `# EOF`.
  std::string PrometheusText() const;

  size_t num_metrics() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> metric;
  };

  static std::string Key(const std::string& name, const Labels& labels);

  mutable std::mutex mu_;
  // std::map keeps export order deterministic (sorted by name + labels).
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
  std::map<std::string, std::string> help_;  // metric name -> # HELP text
};

}  // namespace qpp::obs
