// Workload management scenario (paper Section I): an admission controller
// that predicts each incoming query BEFORE execution and decides whether to
// run it now, defer it off-peak, reject it, or route it to a human — then
// compares its decisions against an oracle that actually ran everything.
//
// Run: ./build/examples/example_workload_management
#include <cstdio>
#include <map>

#include "common/str_util.h"
#include "core/experiment.h"
#include "core/workload_manager.h"

using namespace qpp;

int main() {
  // Train on yesterday's workload...
  core::ExperimentOptions options;
  options.num_candidates = 6000;
  options.seed = 11;
  const core::ExperimentData history = core::BuildTpcdsExperiment(options);
  core::Predictor predictor;
  predictor.Train(core::MakeAllExamples(history.pools));

  // ...and manage today's (fresh constants, same templates).
  options.num_candidates = 400;
  options.seed = 12;
  const core::ExperimentData today = core::BuildTpcdsExperiment(options);

  // > 5 min runs off-peak, > 2 h is rejected outright
  // (core::kOffPeakThresholdSeconds, core::kRejectThresholdSeconds).
  const core::WorkloadManager manager(&predictor);

  std::map<core::AdmissionDecision, size_t> decisions;
  size_t good_rejects = 0, bad_rejects = 0;
  size_t missed_wrecking = 0, deferred_correctly = 0, deferred_total = 0;
  double admitted_seconds = 0.0, avoided_seconds = 0.0;

  for (const auto& q : today.pools.queries) {
    const auto outcome =
        manager.Admit(ml::PlanFeatureVector(q.plan));
    decisions[outcome.decision] += 1;
    const double actual = q.metrics.elapsed_seconds;
    switch (outcome.decision) {
      case core::AdmissionDecision::kReject:
        if (actual > core::kRejectThresholdSeconds * 0.5) {
          ++good_rejects;
          avoided_seconds += actual;
        } else {
          ++bad_rejects;
        }
        break;
      case core::AdmissionDecision::kScheduleOffPeak:
        ++deferred_total;
        if (actual > 60.0) ++deferred_correctly;
        break;
      case core::AdmissionDecision::kRunImmediately:
        admitted_seconds += actual;
        if (actual > core::kRejectThresholdSeconds) ++missed_wrecking;
        break;
      case core::AdmissionDecision::kNeedsReview:
        break;
    }
  }

  std::printf("managed %zu incoming queries:\n", today.pools.queries.size());
  for (const auto& [decision, count] : decisions) {
    std::printf("  %-10s %zu\n", core::AdmissionDecisionName(decision),
                count);
  }
  std::printf("\nrejections that would really have run >1h:  %zu\n",
              good_rejects);
  std::printf("rejections of actually-fine queries:        %zu\n",
              bad_rejects);
  std::printf("wrecking balls admitted by mistake:         %zu\n",
              missed_wrecking);
  std::printf("off-peak deferrals that were really heavy:  %zu / %zu\n",
              deferred_correctly, deferred_total);
  std::printf("cluster time admitted immediately:          %s\n",
              FormatDuration(admitted_seconds).c_str());
  std::printf("cluster time avoided by rejecting:          %s\n",
              FormatDuration(avoided_seconds).c_str());

  // The paper's other management question: how long to wait before killing
  // a query that should have finished.
  std::printf("\nkill deadlines for three sample admissions:\n");
  size_t shown = 0;
  for (const auto& q : today.pools.queries) {
    const auto outcome = manager.Admit(ml::PlanFeatureVector(q.plan));
    if (outcome.decision != core::AdmissionDecision::kRunImmediately) {
      continue;
    }
    std::printf("  predicted %10s -> kill after %10s (actually ran %10s)\n",
                FormatDuration(outcome.prediction.metrics.elapsed_seconds).c_str(),
                FormatDuration(outcome.kill_deadline_seconds).c_str(),
                FormatDuration(q.metrics.elapsed_seconds).c_str());
    if (++shown == 3) break;
  }
  return 0;
}
