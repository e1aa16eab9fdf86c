#include "obs/drift_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace qpp::obs {

namespace {

/// |predicted - actual| relative to the observed magnitude, clamped so one
/// absurd pair cannot poison the EWMA forever. Zero-actual/zero-predicted
/// pairs (a metric genuinely absent, e.g. no disk I/O) score 0.
double RelativeError(double predicted, double actual) {
  const double denom = std::max(std::abs(actual), 1e-9);
  const double err = std::abs(predicted - actual) / denom;
  return std::min(err, 1e6);
}

/// "golf ball" -> "golf_ball" for label values.
std::string PoolLabel(workload::QueryType t) {
  std::string s = workload::QueryTypeName(t);
  std::replace(s.begin(), s.end(), ' ', '_');
  return s;
}

}  // namespace

DriftMonitor::DriftMonitor(MetricsRegistry* registry) : registry_(registry) {
  if (registry_ == nullptr) return;
  const auto names = engine::QueryMetrics::MetricNames();
  for (size_t m = 0; m < kNumMetrics; ++m) {
    overall_gauges_[m] =
        registry_->GetGauge("qpp_drift_relerr_ewma", {{"metric", names[m]}});
    for (size_t p = 0; p < workload::kNumQueryTypes; ++p) {
      pool_gauges_[p][m] = registry_->GetGauge(
          "qpp_drift_relerr_ewma",
          {{"metric", names[m]},
           {"pool", PoolLabel(workload::kQueryTypes[p])}});
    }
  }
  fallback_share_gauge_ = registry_->GetGauge("qpp_drift_fallback_share");
  fallback_elapsed_gauge_ =
      registry_->GetGauge("qpp_drift_fallback_elapsed_relerr_ewma");
  model_obs_counter_ = registry_->GetCounter("qpp_drift_observations_total",
                                             {{"source", "model"}});
  fallback_obs_counter_ = registry_->GetCounter(
      "qpp_drift_observations_total", {{"source", "fallback"}});
  signals_counter_ = registry_->GetCounter("qpp_drift_signals_total");
}

bool DriftMonitor::Observe(Source source,
                           const engine::QueryMetrics& predicted,
                           const engine::QueryMetrics& actual) {
  std::lock_guard<std::mutex> lock(mu_);
  if (source == Source::kFallback) {
    // The fallback only estimates elapsed time (the other five metrics are
    // "unknown", reported as zero); score what it actually claims.
    fallback_elapsed_.Update(
        RelativeError(predicted.elapsed_seconds, actual.elapsed_seconds));
    ++fallback_obs_;
    if (fallback_obs_counter_ != nullptr) fallback_obs_counter_->Inc();
    ExportLocked();
    return false;
  }

  const size_t pool = workload::QueryTypeIndex(
      workload::ClassifyElapsed(actual.elapsed_seconds));
  const linalg::Vector pv = predicted.ToVector();
  const linalg::Vector av = actual.ToVector();
  for (size_t m = 0; m < kNumMetrics; ++m) {
    const double err = RelativeError(pv[m], av[m]);
    overall_[m].Update(err);
    per_pool_[pool][m].Update(err);
  }
  ++model_obs_;
  ++since_signal_;
  if (model_obs_counter_ != nullptr) model_obs_counter_->Inc();
  ExportLocked();

  const bool warm = model_obs_ >= kDriftWarmupObservations;
  const bool rearmed = since_signal_ >= kDriftRefireInterval;
  bool over = false;
  for (size_t m = 0; m < kNumMetrics; ++m) {
    over = over || overall_[m].value > kDriftThreshold;
  }
  if (!(warm && rearmed && over)) return false;
  since_signal_ = 0;
  if (signals_counter_ != nullptr) signals_counter_->Inc();
  return true;
}

double DriftMonitor::MetricEwma(size_t m) const {
  std::lock_guard<std::mutex> lock(mu_);
  return overall_[m].value;
}

double DriftMonitor::PoolMetricEwma(workload::QueryType pool,
                                    size_t m) const {
  std::lock_guard<std::mutex> lock(mu_);
  return per_pool_[workload::QueryTypeIndex(pool)][m].value;
}

double DriftMonitor::FallbackElapsedEwma() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fallback_elapsed_.value;
}

uint64_t DriftMonitor::model_observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_obs_;
}

uint64_t DriftMonitor::fallback_observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fallback_obs_;
}

double DriftMonitor::fallback_share() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t total = model_obs_ + fallback_obs_;
  return total > 0 ? static_cast<double>(fallback_obs_) /
                         static_cast<double>(total)
                   : 0.0;
}

bool DriftMonitor::drifted() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (model_obs_ < kDriftWarmupObservations) return false;
  for (size_t m = 0; m < kNumMetrics; ++m) {
    if (overall_[m].value > kDriftThreshold) return true;
  }
  return false;
}

void DriftMonitor::ExportLocked() {
  if (registry_ == nullptr) return;
  for (size_t m = 0; m < kNumMetrics; ++m) {
    overall_gauges_[m]->Set(overall_[m].value);
    for (size_t p = 0; p < workload::kNumQueryTypes; ++p) {
      pool_gauges_[p][m]->Set(per_pool_[p][m].value);
    }
  }
  const uint64_t total = model_obs_ + fallback_obs_;
  fallback_share_gauge_->Set(
      total > 0
          ? static_cast<double>(fallback_obs_) / static_cast<double>(total)
          : 0.0);
  fallback_elapsed_gauge_->Set(fallback_elapsed_.value);
}

std::string DriftMonitor::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto names = engine::QueryMetrics::MetricNames();
  std::string out =
      "drift (relative-error EWMA over model-served responses):\n";
  if (model_obs_ == 0) {
    out += "  (no scored model responses)\n";
  }
  for (size_t m = 0; m < kNumMetrics && model_obs_ > 0; ++m) {
    out += StrFormat("  %-18s %.3f", names[m].c_str(), overall_[m].value);
    std::string pools;
    for (size_t p = 0; p < workload::kNumQueryTypes; ++p) {
      if (per_pool_[p][m].n == 0) continue;
      if (!pools.empty()) pools += ", ";
      pools += StrFormat("%s %.3f",
                         workload::QueryTypeName(workload::kQueryTypes[p]),
                         per_pool_[p][m].value);
    }
    if (!pools.empty()) out += "  [" + pools + "]";
    out += '\n';
  }
  const uint64_t total = model_obs_ + fallback_obs_;
  const double share =
      total > 0
          ? static_cast<double>(fallback_obs_) / static_cast<double>(total)
          : 0.0;
  out += StrFormat(
      "fallback vs KCCA:    model %.1f%% (n=%llu), fallback %.1f%% "
      "(n=%llu)\n",
      100.0 * (1.0 - share), static_cast<unsigned long long>(model_obs_),
      100.0 * share, static_cast<unsigned long long>(fallback_obs_));
  if (fallback_obs_ > 0 && model_obs_ > 0) {
    out += StrFormat(
        "  elapsed rel-err:   model EWMA %.3f vs fallback EWMA %.3f\n",
        overall_[0].value, fallback_elapsed_.value);
  }
  return out;
}

}  // namespace qpp::obs
