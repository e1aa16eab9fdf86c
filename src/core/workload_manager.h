// Workload management decisions driven by predictions (paper Section I:
// "Should we run this query? If so, when? How long do we wait before
// deciding something went wrong?").
#pragma once

#include <string>

#include "core/predictor.h"

namespace qpp::core {

enum class AdmissionDecision {
  kRunImmediately,   ///< predicted cheap: run now
  kScheduleOffPeak,  ///< predicted heavy: defer to a low-contention window
  kReject,           ///< predicted beyond the acceptable ceiling: do not run
  kNeedsReview,      ///< anomalous (far from all training neighbors)
};

const char* AdmissionDecisionName(AdmissionDecision d);

/// Queries predicted longer than this run off-peak (> 5 min).
inline constexpr double kOffPeakThresholdSeconds = 300.0;
/// Queries predicted longer than this are rejected outright (> 2 h).
inline constexpr double kRejectThresholdSeconds = 7200.0;
/// Kill multiplier: a running query is presumed stuck once it exceeds
/// predicted elapsed by this factor (the paper's "how long do we wait
/// before killing it" question).
inline constexpr double kKillMultiplier = 3.0;
/// Floor so that millisecond predictions do not produce hair-trigger kill
/// deadlines.
inline constexpr double kKillFloorSeconds = 60.0;

/// Admission decisions from predictions. Anomalous predictions always go
/// to human review instead of being auto-decided.
class WorkloadManager {
 public:
  /// With a trained `predictor`, Admit predicts and decides in one step.
  /// Without one (the serving path) the manager is decide-only: admission
  /// decisions ride on serve::PredictionService responses (which carry
  /// their own Prediction, possibly a labeled optimizer-cost fallback), so
  /// Admit() is unavailable; use Decide()/KillDeadlineSeconds or
  /// serve::AdmitServed.
  explicit WorkloadManager(const Predictor* predictor = nullptr);

  /// Predicts and decides in one step.
  struct Outcome {
    Prediction prediction;
    AdmissionDecision decision = AdmissionDecision::kRunImmediately;
    double kill_deadline_seconds = 0.0;
  };
  Outcome Admit(const linalg::Vector& query_features) const;

  /// Decision for an existing prediction.
  AdmissionDecision Decide(const Prediction& prediction) const;

  /// The kill deadline for a query with this prediction.
  double KillDeadlineSeconds(const Prediction& prediction) const;

 private:
  const Predictor* predictor_;
};

}  // namespace qpp::core
