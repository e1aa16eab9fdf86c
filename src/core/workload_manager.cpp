#include "core/workload_manager.h"

#include <algorithm>

#include "common/check.h"

namespace qpp::core {

const char* AdmissionDecisionName(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kRunImmediately: return "run";
    case AdmissionDecision::kScheduleOffPeak: return "off-peak";
    case AdmissionDecision::kReject: return "reject";
    case AdmissionDecision::kNeedsReview: return "review";
  }
  return "?";
}

WorkloadManager::WorkloadManager(const Predictor* predictor)
    : predictor_(predictor) {
  QPP_CHECK(predictor == nullptr || predictor->trained());
}

WorkloadManager::Outcome WorkloadManager::Admit(
    const linalg::Vector& query_features) const {
  QPP_CHECK_MSG(predictor_ != nullptr,
                "Admit on a decide-only WorkloadManager; predictions come "
                "from the service in this mode");
  Outcome out;
  out.prediction = predictor_->Predict(query_features);
  out.decision = Decide(out.prediction);
  out.kill_deadline_seconds = KillDeadlineSeconds(out.prediction);
  return out;
}

AdmissionDecision WorkloadManager::Decide(const Prediction& p) const {
  if (p.anomalous) {
    return AdmissionDecision::kNeedsReview;
  }
  const double elapsed = p.metrics.elapsed_seconds;
  if (elapsed > kRejectThresholdSeconds) {
    return AdmissionDecision::kReject;
  }
  if (elapsed > kOffPeakThresholdSeconds) {
    return AdmissionDecision::kScheduleOffPeak;
  }
  return AdmissionDecision::kRunImmediately;
}

double WorkloadManager::KillDeadlineSeconds(const Prediction& p) const {
  return std::max(kKillFloorSeconds,
                  p.metrics.elapsed_seconds * kKillMultiplier);
}

}  // namespace qpp::core
