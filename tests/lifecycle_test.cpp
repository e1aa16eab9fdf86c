// State-machine tests for qpp::lifecycle: shadow -> promote -> confirm,
// shadow -> reject, promote -> watchdog rollback, the never-promote
// invariant for model_poison-faulted candidates, and byte-identical
// decision-log replay. The manager is driven directly (no service): the
// driver fabricates served predictions and actuals with exact relative
// errors, so every gate and watchdog decision is forced, not sampled.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "fault/chaos.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "lifecycle/lifecycle.h"
#include "obs/registry.h"
#include "serve/model_registry.h"
#include "fixtures.h"

namespace qpp::lifecycle {
namespace {

using fixtures::TinyModel;

linalg::Vector Feat(uint64_t i) {
  const double x = 1.0 + static_cast<double>(i % 97) * 0.1;
  return {x, x * x, 0.5};
}

engine::QueryMetrics Scaled(const engine::QueryMetrics& m, double factor) {
  linalg::Vector v = m.ToVector();
  for (double& x : v) x *= factor;
  return engine::QueryMetrics::FromVector(v);
}

/// A small config with fast windows so every transition fits in a test.
LifecycleConfig FastConfig() {
  LifecycleConfig cfg;
  cfg.window_observations = 8;
  cfg.gate.min_observations = 8;
  cfg.gate.margin = 0.1;
  cfg.gate.tolerance = 0.5;
  cfg.max_shadow_windows = 2;
  cfg.probation_windows = 2;
  cfg.rollback_margin = 0.5;
  cfg.rollback_min_risk = 0.5;
  return cfg;
}

/// Scores `n` observations while a candidate shadows. The actual is the
/// candidate's own clean prediction scaled so its shadow errs by exactly
/// `chal_err` (a poisoned candidate errs by ~its multiplier instead); the
/// served champion prediction errs by exactly `champ_err`.
void DriveShadow(LifecycleManager& mgr, serve::ModelRegistry& reg,
                 const core::Predictor& cand, size_t n, double champ_err,
                 double chal_err, uint64_t& seq) {
  for (size_t i = 0; i < n; ++i) {
    const linalg::Vector f = Feat(seq++);
    const engine::QueryMetrics clean = cand.Predict(f).metrics;
    const engine::QueryMetrics actual = Scaled(clean, 1.0 / (1.0 + chal_err));
    core::Prediction served;
    served.metrics = Scaled(actual, 1.0 + champ_err);
    mgr.OnServedPrediction(f, served, reg.generation(), /*trace_id=*/0);
    ASSERT_TRUE(mgr.ScoreActual(f, actual));
  }
}

/// Scores `n` observations with no shadow lane needed (probation): the
/// served prediction errs by exactly `champ_err` against a fixed actual.
void DriveProbation(LifecycleManager& mgr, serve::ModelRegistry& reg,
                    size_t n, double champ_err, uint64_t& seq) {
  engine::QueryMetrics actual;
  actual.elapsed_seconds = 10.0;
  actual.records_accessed = 1000.0;
  actual.records_used = 100.0;
  actual.message_count = 10.0;
  actual.message_bytes = 500.0;
  for (size_t i = 0; i < n; ++i) {
    const linalg::Vector f = Feat(seq++);
    core::Prediction served;
    served.metrics = Scaled(actual, 1.0 + champ_err);
    mgr.OnServedPrediction(f, served, reg.generation(), /*trace_id=*/0);
    ASSERT_TRUE(mgr.ScoreActual(f, actual));
  }
}

// ---------------------------------------------------------------- gate --

TEST(PromotionGateTest, WarmupThenToleranceThenMarginThenPromote) {
  PromotionGateConfig cfg;
  cfg.min_observations = 8;
  cfg.margin = 0.1;
  cfg.tolerance = 0.5;
  const PromotionGate gate(cfg);

  RiskWindow champion, challenger;
  champion.observations = 8;
  champion.metric_ewma[0] = 0.4;
  challenger.observations = 7;  // one short
  challenger.metric_ewma[0] = 0.1;
  EXPECT_EQ(gate.Evaluate(champion, challenger).reason, "warmup");

  challenger.observations = 8;
  challenger.metric_ewma[1] = 0.6;  // over the tolerance
  const GateDecision tol = gate.Evaluate(champion, challenger);
  EXPECT_FALSE(tol.promote);
  EXPECT_EQ(tol.reason,
            "tolerance:" + engine::QueryMetrics::MetricNames()[1]);

  challenger.metric_ewma[1] = 0.0;
  challenger.metric_ewma[0] = 0.38;  // inside tolerance, outside margin
  EXPECT_EQ(gate.Evaluate(champion, challenger).reason, "margin");

  challenger.metric_ewma[0] = 0.1;
  const GateDecision ok = gate.Evaluate(champion, challenger);
  EXPECT_TRUE(ok.promote);
  EXPECT_EQ(ok.reason, "promote");
  EXPECT_DOUBLE_EQ(ok.champion_risk, 0.4);
  EXPECT_DOUBLE_EQ(ok.challenger_risk, 0.1);
}

TEST(PromotionGateTest, PoolEwmaCountsTowardTheMargin) {
  // A challenger clean overall but terrible inside one pool must not pass
  // the margin: risk() is the max over overall AND per-pool EWMAs.
  PromotionGateConfig cfg;
  cfg.min_observations = 1;
  const PromotionGate gate(cfg);
  RiskWindow champion, challenger;
  champion.observations = challenger.observations = 4;
  champion.metric_ewma[0] = 0.4;
  challenger.metric_ewma[0] = 0.1;
  challenger.pool_ewma[2][0] = 0.45;
  const GateDecision d = gate.Evaluate(champion, challenger);
  EXPECT_FALSE(d.promote);
  EXPECT_DOUBLE_EQ(d.challenger_risk, 0.45);
}

// -------------------------------------------------------- state machine --

TEST(LifecycleManagerTest, ShadowPromoteConfirmChain) {
  serve::ModelRegistry registry;
  const auto champion = TinyModel(1);
  registry.Publish(champion);
  LifecycleManager mgr(&registry, FastConfig());
  EXPECT_EQ(mgr.champion_generation(), 1u);

  const auto cand = TinyModel(2);
  const size_t idx = mgr.RegisterCandidate(cand, "clean");
  EXPECT_EQ(mgr.candidate_state(idx), CandidateState::kShadowing);
  EXPECT_FALSE(mgr.candidate_poisoned(idx));

  uint64_t seq = 0;
  // Champion errs 40%, challenger 5%: the gate promotes at window close.
  DriveShadow(mgr, registry, *cand, 8, 0.4, 0.05, seq);
  EXPECT_EQ(mgr.candidate_state(idx), CandidateState::kPromoted);
  EXPECT_TRUE(mgr.in_probation());
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(registry.Acquire().model, cand);
  EXPECT_EQ(mgr.champion_model(), cand);

  // Two clean probation windows (10% error, threshold 0.5) confirm it.
  DriveProbation(mgr, registry, 16, 0.1, seq);
  EXPECT_EQ(mgr.candidate_state(idx), CandidateState::kConfirmed);
  EXPECT_FALSE(mgr.in_probation());
  EXPECT_EQ(registry.generation(), 2u);

  const LifecycleStats stats = mgr.stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.confirmations, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.scored, 24u);
  EXPECT_EQ(stats.shadow_predictions, 8u);
  const std::vector<CandidateInfo> infos = mgr.Candidates();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].promoted_generation, 2u);
  EXPECT_EQ(mgr.log().CountEvent("promote"), 1u);
  EXPECT_EQ(mgr.log().CountEvent("confirm"), 1u);
}

TEST(LifecycleManagerTest, RejectsAfterMaxShadowWindows) {
  serve::ModelRegistry registry;
  registry.Publish(TinyModel(1));
  LifecycleManager mgr(&registry, FastConfig());
  const auto cand = TinyModel(2);
  const size_t idx = mgr.RegisterCandidate(cand, "worse");

  uint64_t seq = 0;
  // Champion errs 5%, challenger 40%: margin holds, then rejects at the
  // max_shadow_windows=2 boundary. The registry never moves.
  DriveShadow(mgr, registry, *cand, 8, 0.05, 0.4, seq);
  EXPECT_EQ(mgr.candidate_state(idx), CandidateState::kShadowing);
  DriveShadow(mgr, registry, *cand, 8, 0.05, 0.4, seq);
  EXPECT_EQ(mgr.candidate_state(idx), CandidateState::kRejected);
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(mgr.stats().promotions, 0u);
  EXPECT_EQ(mgr.stats().rejections, 1u);
  EXPECT_EQ(mgr.log().CountEvent("hold"), 1u);
  EXPECT_EQ(mgr.log().CountEvent("reject"), 1u);
}

TEST(LifecycleManagerTest, WatchdogRollsBackToThePreviousChampion) {
  serve::ModelRegistry registry;
  const auto old_champion = TinyModel(1);
  registry.Publish(old_champion);
  LifecycleManager mgr(&registry, FastConfig());
  const auto cand = TinyModel(2);
  const size_t idx = mgr.RegisterCandidate(cand, "regresses");

  uint64_t seq = 0;
  DriveShadow(mgr, registry, *cand, 8, 0.4, 0.05, seq);
  ASSERT_EQ(mgr.candidate_state(idx), CandidateState::kPromoted);
  ASSERT_EQ(registry.generation(), 2u);

  // The promoted champion regresses to 200% error — over the watchdog
  // threshold max(0.5, 0.05 * 1.5) — and is demoted within ONE window.
  DriveProbation(mgr, registry, 8, 2.0, seq);
  EXPECT_EQ(mgr.candidate_state(idx), CandidateState::kRolledBack);
  EXPECT_FALSE(mgr.in_probation());
  // Rollback re-publishes the previous champion: same bits, new generation.
  EXPECT_EQ(registry.generation(), 3u);
  EXPECT_EQ(registry.Acquire().model, old_champion);
  EXPECT_EQ(mgr.champion_model(), old_champion);
  EXPECT_EQ(mgr.stats().rollbacks, 1u);
  EXPECT_EQ(mgr.log().CountEvent("rollback"), 1u);
}

TEST(LifecycleManagerTest, QueuedCandidateActivatesAfterTheFirstResolves) {
  serve::ModelRegistry registry;
  registry.Publish(TinyModel(1));
  LifecycleManager mgr(&registry, FastConfig());
  const auto first = TinyModel(2);
  const auto second = TinyModel(3);
  const size_t i0 = mgr.RegisterCandidate(first, "first");
  const size_t i1 = mgr.RegisterCandidate(second, "second");

  uint64_t seq = 0;
  // The first candidate burns its two windows and is rejected; the second
  // must take over the shadow lane and promote on its own window.
  DriveShadow(mgr, registry, *first, 16, 0.05, 0.4, seq);
  ASSERT_EQ(mgr.candidate_state(i0), CandidateState::kRejected);
  EXPECT_EQ(mgr.candidate_state(i1), CandidateState::kShadowing);
  DriveShadow(mgr, registry, *second, 8, 0.4, 0.02, seq);
  EXPECT_EQ(mgr.candidate_state(i1), CandidateState::kPromoted);
  EXPECT_EQ(registry.Acquire().model, second);
}

TEST(LifecycleManagerTest, StaleAndUnknownPairsAreNotScored) {
  serve::ModelRegistry registry;
  registry.Publish(TinyModel(1));
  LifecycleManager mgr(&registry, FastConfig());

  // Nothing pending for these features: a fallback-answered request.
  EXPECT_FALSE(mgr.ScoreActual(Feat(0), engine::QueryMetrics{}));

  // A pair recorded under a stale generation is invalidated, not scored.
  core::Prediction served;
  served.metrics.elapsed_seconds = 1.0;
  mgr.OnServedPrediction(Feat(1), served, /*generation=*/999, 0);
  EXPECT_FALSE(mgr.ScoreActual(Feat(1), engine::QueryMetrics{}));
  EXPECT_EQ(mgr.stats().pending_invalidated, 1u);
  EXPECT_EQ(mgr.stats().scored, 0u);
}

TEST(LifecycleManagerTest, PendingIsBoundedByMaxPending) {
  serve::ModelRegistry registry;
  registry.Publish(TinyModel(1));
  LifecycleManager mgr(&registry, FastConfig());
  core::Prediction served;
  served.metrics.elapsed_seconds = 1.0;
  // Distinct features per pair (Feat repeats after 97): pending is keyed
  // by features, so a repeat would replace its pair instead of adding one.
  for (uint64_t i = 0; i < kMaxPendingPairs + 6; ++i) {
    const linalg::Vector features = {static_cast<double>(i), 0.5};
    mgr.OnServedPrediction(features, served, registry.generation(), 0);
  }
  EXPECT_EQ(mgr.stats().pending_dropped, 6u);
}

// ------------------------------------------------------- never-promote --

TEST(LifecycleManagerTest, PoisonedCandidateIsNeverPromoted) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.serve.model_poison_probability = 1.0;  // every draw poisons
  plan.serve.model_poison_multiplier = 100.0;
  fault::FaultInjector injector(plan);

  serve::ModelRegistry registry;
  const auto champion = TinyModel(1);
  registry.Publish(champion);
  LifecycleConfig cfg = FastConfig();
  cfg.faults = &injector;
  LifecycleManager mgr(&registry, cfg);

  const auto cand = TinyModel(2);
  const size_t idx = mgr.RegisterCandidate(cand, "poisoned");
  ASSERT_TRUE(mgr.candidate_poisoned(idx));
  EXPECT_EQ(mgr.stats().poisoned_candidates, 1u);
  EXPECT_EQ(injector.injected("model_poison"), 1u);

  uint64_t seq = 0;
  // These are exactly the would-promote conditions of the clean chain
  // (champion 40% err, candidate bits 5% err) — but the x100 poison on the
  // shadow lane makes the gate see ~99x relative error and reject.
  DriveShadow(mgr, registry, *cand, 16, 0.4, 0.05, seq);
  EXPECT_EQ(mgr.candidate_state(idx), CandidateState::kRejected);
  EXPECT_EQ(mgr.stats().promotions, 0u);
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(registry.Acquire().model, champion);
  const std::vector<CandidateInfo> infos = mgr.Candidates();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].poisoned);
  EXPECT_EQ(infos[0].promoted_generation, 0u);
}

TEST(ShadowScorerTest, PoisonMultiplierScalesEveryMetric) {
  const auto model = TinyModel(5);
  ShadowScorer clean(model);
  ShadowScorer poisoned(model, 100.0);
  EXPECT_FALSE(clean.poisoned());
  EXPECT_TRUE(poisoned.poisoned());
  const linalg::Vector f = Feat(3);
  const linalg::Vector a = clean.Predict(f).ToVector();
  const linalg::Vector b = poisoned.Predict(f).ToVector();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(b[i], 100.0 * a[i]);
  }
}

// --------------------------------------------------------- determinism --

TEST(LifecycleManagerTest, DecisionLogReplaysByteIdentical) {
  const auto run = [] {
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.serve.model_poison_probability = 0.5;
    plan.serve.model_poison_multiplier = 50.0;
    fault::FaultInjector injector(plan);
    serve::ModelRegistry registry;
    registry.Publish(TinyModel(1));
    LifecycleConfig cfg = FastConfig();
    cfg.faults = &injector;
    LifecycleManager mgr(&registry, cfg);
    uint64_t seq = 0;
    for (uint64_t c = 0; c < 4; ++c) {
      const auto cand = TinyModel(10 + c);
      const size_t idx =
          mgr.RegisterCandidate(cand, "cand-" + std::to_string(c));
      // Promote-worthy traffic; poison draws decide who actually passes.
      DriveShadow(mgr, registry, *cand, 16, 0.4, 0.05, seq);
      if (mgr.candidate_state(idx) == CandidateState::kPromoted) {
        // Alternate clean and breaching probations.
        DriveProbation(mgr, registry, 16, c % 2 == 0 ? 0.1 : 2.0, seq);
      }
    }
    return mgr.log().ToString();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same-seed lifecycle decision logs must be bytewise "
                     "identical";
}

TEST(LifecycleChaosTest, ScenarioPassesAndEmbedsTheDecisionLog) {
  fault::ChaosOptions opts;
  opts.seed = 42;
  const fault::ScenarioResult run =
      fault::RunChaosScenario("model-lifecycle", opts);
  EXPECT_TRUE(run.ok()) << run.report;
  // The report embeds the decision log (CI byte-diffs two runs of it).
  EXPECT_NE(run.report.find("lifecycle decision log:"),
            std::string::npos);
  // The zero-tolerance counters: no poisoned candidate promoted or served.
  for (const auto& [key, value] : run.counters) {
    if (key == "lifecycle_poisoned_promoted" ||
        key == "lifecycle_poisoned_served") {
      EXPECT_EQ(value, 0.0) << key;
    }
  }
}

}  // namespace
}  // namespace qpp::lifecycle
