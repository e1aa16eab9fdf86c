#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "obs/json_util.h"

namespace qpp::obs {

namespace {

void SortLabels(Labels* labels) {
  std::sort(labels->begin(), labels->end());
}

/// `{k="v",k2="v2"}`, or "" when unlabeled; `extra` appends one more pair
/// (the `le` label of a histogram's bucket lines).
std::string RenderLabels(const Labels& labels,
                         const std::pair<std::string, std::string>* extra =
                             nullptr) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + v + "\"";
  }
  if (extra != nullptr) {
    if (!first) out += ',';
    out += extra->first + "=\"" + extra->second + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

std::string MetricsRegistry::Key(const std::string& name,
                                 const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x01';
    key += k;
    key += '\x02';
    key += v;
  }
  return key;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, Labels labels) {
  SortLabels(&labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = counters_[Key(name, labels)];
  if (entry.metric == nullptr) {
    entry.name = name;
    entry.labels = std::move(labels);
    entry.metric = std::make_unique<Counter>();
  }
  return entry.metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, Labels labels) {
  SortLabels(&labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = gauges_[Key(name, labels)];
  if (entry.metric == nullptr) {
    entry.name = name;
    entry.labels = std::move(labels);
    entry.metric = std::make_unique<Gauge>();
  }
  return entry.metric.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         Labels labels,
                                         HistogramOptions options) {
  SortLabels(&labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = histograms_[Key(name, labels)];
  if (entry.metric == nullptr) {
    entry.name = name;
    entry.labels = std::move(labels);
    entry.metric = std::make_unique<Histogram>(options);
  } else {
    QPP_CHECK_MSG(entry.metric->options() == options,
                  "histogram '" << name
                                << "' re-registered with a different layout");
  }
  return entry.metric.get();
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[name] = help;
}

namespace {

/// Upper bucket boundary (`le`) of bucket `i` under `options`.
double BucketUpperBound(const HistogramOptions& options, size_t i) {
  return std::pow(10.0, options.min_exponent +
                            (static_cast<double>(i) + 1.0) /
                                static_cast<double>(
                                    options.buckets_per_decade));
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string current_family;
  const auto header = [&](const std::string& name, const char* type) {
    if (name == current_family) return;  // label variants share one header
    current_family = name;
    const auto it = help_.find(name);
    out += "# HELP " + name + " " +
           (it != help_.end() ? it->second
                              : std::string("qpp metric (see "
                                            "docs/OBSERVABILITY.md)")) +
           "\n";
    out += "# TYPE " + name + " " + type + "\n";
  };
  for (const auto& [key, e] : counters_) {
    (void)key;
    header(e.name, "counter");
    out += e.name + RenderLabels(e.labels) + " " +
           JsonNumber(e.metric->value()) + "\n";
  }
  current_family.clear();
  for (const auto& [key, e] : gauges_) {
    (void)key;
    header(e.name, "gauge");
    out += e.name + RenderLabels(e.labels) + " " +
           JsonNumber(e.metric->value()) + "\n";
  }
  current_family.clear();
  for (const auto& [key, e] : histograms_) {
    (void)key;
    header(e.name, "histogram");
    const HistogramSnapshot s = e.metric->Snapshot();
    // Exemplars indexed by bucket for the cumulative walk below.
    size_t next_exemplar = 0;
    uint64_t cumulative = s.underflow;  // below every boundary => in-range
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      cumulative += s.buckets[i];
      const std::pair<std::string, std::string> le = {
          "le", JsonNumber(BucketUpperBound(s.options, i))};
      out += e.name + "_bucket" + RenderLabels(e.labels, &le) + " " +
             JsonNumber(cumulative);
      while (next_exemplar < s.exemplars.size() &&
             s.exemplars[next_exemplar].bucket < i) {
        ++next_exemplar;
      }
      if (next_exemplar < s.exemplars.size() &&
          s.exemplars[next_exemplar].bucket == i) {
        const HistogramExemplar& ex = s.exemplars[next_exemplar];
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(ex.trace_id));
        out += std::string(" # {trace_id=\"") + hex + "\"} " +
               JsonNumber(ex.value);
      }
      out += "\n";
    }
    const std::pair<std::string, std::string> inf = {"le", "+Inf"};
    out += e.name + "_bucket" + RenderLabels(e.labels, &inf) + " " +
           JsonNumber(s.count()) + "\n";
    out += e.name + "_sum" + RenderLabels(e.labels) + " " +
           JsonNumber(s.sum) + "\n";
    out += e.name + "_count" + RenderLabels(e.labels) + " " +
           JsonNumber(s.count()) + "\n";
  }
  out += "# EOF\n";
  return out;
}

size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace qpp::obs
