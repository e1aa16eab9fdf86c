// qpp::lifecycle — the closed-loop model lifecycle: shadow scoring,
// champion/challenger promotion, and auto-rollback.
//
// DriftMonitor can signal drift and ModelRegistry can hot-swap, but
// nothing validated a candidate before it took traffic (the dominant
// failure mode of learned QPP in production per the LinkedIn deployment
// study, PAPERS.md). This layer closes the loop:
//
//   RegisterCandidate ──▶ kShadowing ──gate──▶ kPromoted ──watchdog──▶ kConfirmed
//                             │                    │
//                             ▼                    ▼
//                         kRejected            kRolledBack
//
//  * ShadowScorer — computes the candidate's prediction for every
//    model-answered request (via the serve::ShadowObserver hook) and
//    scores it against the observed actuals with the same per-pool
//    relative-error EWMAs DriftMonitor keeps. Shadow predictions are
//    computed, scored, and discarded — they can never reach a client by
//    construction.
//  * PromotionGate — promotes a challenger only when both windows are
//    warm, every challenger metric EWMA stays within one
//    golden-metrics-style tolerance, AND the challenger's risk beats the
//    champion's by a configured margin. The gate is monotone: worsening a
//    challenger's scored errors can only raise its EWMAs, so it can never
//    flip a reject into a promote (pinned by tests/property_test.cpp).
//  * AutoRollback — at promotion the previous champion (bits +
//    generation) is retained and a fresh obs::SloEngine watchdog watches
//    the new champion's risk gauge; a gauge-threshold breach within the
//    probation windows republishes the previous champion — rollback
//    within one window of the regression.
//
// Determinism: decisions depend only on scored-observation counts and
// EWMAs of bit-identical predictions, so two same-seed runs produce a
// byte-identical DecisionLog (CI diffs them). The model_poison fault kind
// (fault/fault_plan.h) poisons a candidate's shadow predictions at
// registration; the gate then never promotes it — the chaos scenario
// "model-lifecycle" pins that a poisoned candidate never reaches user
// traffic, as a zero-tolerance golden key (tests/golden/lifecycle.json).
//
// Thread safety: all entry points share one mutex; rates are per-response.
// See docs/LIFECYCLE.md for the knobs and the full determinism contract.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/predictor.h"
#include "engine/metrics.h"
#include "fault/fault_injector.h"
#include "lifecycle/decision_log.h"
#include "obs/drift_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/shadow_observer.h"
#include "workload/pools.h"

namespace qpp::lifecycle {

/// One side's windowed risk: per-metric relative-error EWMAs, overall and
/// per query pool (the DriftMonitor internals the gate reuses).
struct RiskWindow {
  static constexpr size_t kNumMetrics = engine::QueryMetrics::kNumMetrics;

  uint64_t observations = 0;
  double metric_ewma[kNumMetrics] = {};
  double pool_ewma[workload::kNumQueryTypes][kNumMetrics] = {};

  /// Scalar risk: the worst relative-error EWMA across all metrics,
  /// overall and per pool. Monotone in every entry.
  double risk() const;
};

/// Scores one model's predictions against observed actuals. The challenger
/// side also computes the predictions (shadow lane); the champion side is
/// score-only — the served bits come from the service.
class ShadowScorer {
 public:
  /// `model` may be null for score-only use. `poison_multiplier` != 1
  /// scales every shadow prediction (the model_poison fault); 1 = clean.
  /// The window EWMAs smooth with obs::kDriftAlpha.
  explicit ShadowScorer(std::shared_ptr<const core::Predictor> model,
                        double poison_multiplier = 1.0);

  ShadowScorer(const ShadowScorer&) = delete;
  ShadowScorer& operator=(const ShadowScorer&) = delete;

  const std::shared_ptr<const core::Predictor>& model() const {
    return model_;
  }
  bool poisoned() const { return poison_multiplier_ != 1.0; }

  /// The shadow prediction for `features`, with any poison multiplier
  /// applied. Computed and scored, never served.
  engine::QueryMetrics Predict(const linalg::Vector& features) const;

  /// Folds one (predicted, observed) pair into the window EWMAs; the pool
  /// is derived from the observed elapsed time, exactly as DriftMonitor
  /// does (it IS a DriftMonitor underneath).
  void Score(const engine::QueryMetrics& predicted,
             const engine::QueryMetrics& actual);

  RiskWindow Window() const;

 private:
  std::shared_ptr<const core::Predictor> model_;
  const double poison_multiplier_;
  obs::DriftMonitor monitor_;
};

struct PromotionGateConfig {
  /// Both windows need at least this many scored observations.
  uint64_t min_observations = 32;
  /// Promote only when challenger risk <= champion risk * (1 - margin).
  double margin = 0.1;
  /// Golden-metrics-style ceiling: every challenger metric EWMA must stay
  /// at or under it, whatever the champion does.
  double tolerance = 0.5;
};

struct GateDecision {
  bool promote = false;
  /// "promote", "warmup", "tolerance:<metric>", or "margin".
  std::string reason;
  double champion_risk = 0.0;
  double challenger_risk = 0.0;
};

/// The champion/challenger gate. Pure function of the two windows, and
/// monotone in the challenger's errors: every condition is of the form
/// "challenger EWMA <= bound", so raising any challenger EWMA can only
/// turn a promote into a non-promote, never the reverse.
class PromotionGate {
 public:
  explicit PromotionGate(PromotionGateConfig config = {});

  GateDecision Evaluate(const RiskWindow& champion,
                        const RiskWindow& challenger) const;

 private:
  const PromotionGateConfig config_;
};

enum class CandidateState {
  kShadowing,   ///< scored against live traffic, never served
  kPromoted,    ///< serving, under the rollback watchdog (probation)
  kConfirmed,   ///< survived probation; it is the champion now
  kRejected,    ///< gate never passed within max_shadow_windows
  kRolledBack,  ///< promotion regressed; previous champion republished
};

const char* CandidateStateName(CandidateState s);

/// Bound on unscored (served, shadow) pairs held for ScoreActual; excess
/// pairs are dropped (counted), never blocked on.
inline constexpr size_t kMaxPendingPairs = 4096;

/// The lifecycle's settings. Fixed, not settable: both scorers smooth
/// their window EWMAs with obs::kDriftAlpha, and at most kMaxPendingPairs
/// unscored pairs wait for ScoreActual.
struct LifecycleConfig {
  /// Scored observations per decision window: the gate evaluates (and the
  /// probation watchdog's SLO window closes) every this-many scores.
  uint64_t window_observations = 32;
  PromotionGateConfig gate;
  /// A candidate still shadowing after this many windows is rejected.
  uint64_t max_shadow_windows = 4;
  /// Probation length after a promotion, in windows; surviving all of
  /// them clean confirms the promotion.
  uint64_t probation_windows = 2;
  /// Rollback when the promoted champion's risk exceeds
  /// max(rollback_min_risk, promotion_risk * (1 + rollback_margin)).
  double rollback_margin = 0.5;
  double rollback_min_risk = 0.05;
  /// Optional sinks; all must outlive the manager. `registry` receives
  /// the qpp_lifecycle_* metrics, `flight` one event per decision,
  /// `trace` one "lifecycle"-category instant per decision.
  obs::MetricsRegistry* registry = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Fault session: RegisterCandidate draws one model_poison decision per
  /// candidate from it (fault/fault_plan.h). Null = no faults.
  fault::FaultInjector* faults = nullptr;
};

struct CandidateInfo {
  std::string label;
  CandidateState state = CandidateState::kShadowing;
  bool poisoned = false;
  uint64_t shadow_windows = 0;
  uint64_t promoted_generation = 0;  ///< 0 = never promoted
  double risk = 0.0;                 ///< latest challenger window risk
};

struct LifecycleStats {
  uint64_t shadow_predictions = 0;  ///< challenger predictions computed
  uint64_t scored = 0;              ///< (served, actual) pairs scored
  uint64_t windows = 0;             ///< decision windows closed
  uint64_t candidates = 0;
  uint64_t poisoned_candidates = 0;
  uint64_t promotions = 0;
  uint64_t rejections = 0;
  uint64_t rollbacks = 0;
  uint64_t confirmations = 0;
  uint64_t pending_dropped = 0;      ///< kMaxPendingPairs overflow
  uint64_t pending_invalidated = 0;  ///< cleared by promote/rollback
};

/// The closed loop. Install as ServiceConfig::shadow (for a fabric, on
/// the fabric's one service config) so every model-answered response
/// flows through OnServedPrediction; feed observed actuals back through
/// ScoreActual.
/// One candidate is active at a time; further registrations queue behind
/// it in registration order.
class LifecycleManager : public serve::ShadowObserver {
 public:
  /// `registry` is the serving registry this loop governs (promotion
  /// publishes to it, rollback republishes the previous champion); it must
  /// outlive the manager. The current published model (if any) is adopted
  /// as the initial champion.
  LifecycleManager(serve::ModelRegistry* registry, LifecycleConfig config);

  LifecycleManager(const LifecycleManager&) = delete;
  LifecycleManager& operator=(const LifecycleManager&) = delete;

  /// Registers a challenger; returns its candidate index. Draws the
  /// model_poison fault decision (when a fault session is attached) —
  /// a poisoned candidate's shadow predictions are scaled by the plan's
  /// multiplier, so the gate sees its true (terrible) risk.
  size_t RegisterCandidate(std::shared_ptr<const core::Predictor> model,
                           std::string label);

  // serve::ShadowObserver — called by the service on the worker thread for
  // every model/cache-answered response.
  void OnServedPrediction(const linalg::Vector& features,
                          const core::Prediction& served, uint64_t generation,
                          uint64_t trace_id) override;

  /// Scores the pending pair recorded for `features` against the observed
  /// metrics, advancing the window/gate/watchdog machinery. Returns false
  /// when no pair is pending (fallback-answered request, or the pair was
  /// invalidated by a promotion/rollback swap).
  bool ScoreActual(const linalg::Vector& features,
                   const engine::QueryMetrics& actual);

  CandidateState candidate_state(size_t index) const;
  bool candidate_poisoned(size_t index) const;
  std::vector<CandidateInfo> Candidates() const;

  uint64_t champion_generation() const;
  std::shared_ptr<const core::Predictor> champion_model() const;
  bool in_probation() const;

  LifecycleStats stats() const;
  /// The append-only decision log (thread-safe; ToString is byte-stable).
  const DecisionLog& log() const { return log_; }

 private:
  struct Candidate {
    std::string label;
    CandidateState state = CandidateState::kShadowing;
    std::unique_ptr<ShadowScorer> scorer;
    uint64_t shadow_windows = 0;
    uint64_t promoted_generation = 0;
    double last_risk = 0.0;
  };

  struct PendingPair {
    engine::QueryMetrics served;
    engine::QueryMetrics shadow;
    bool has_shadow = false;
    size_t candidate = 0;
    uint64_t generation = 0;
  };

  static constexpr size_t kNoActive = static_cast<size_t>(-1);

  // All Locked helpers assume mu_ is held.
  RiskWindow ChampionWindowLocked() const;
  void AdvanceActiveLocked();
  void CloseShadowWindowLocked();
  void PromoteLocked(size_t index, const GateDecision& decision);
  void RollbackLocked(double breached_risk);
  void ConfirmLocked();
  void InvalidatePendingLocked();
  void LogLocked(Decision d);
  void Flight(obs::FlightEventKind kind, int32_t code, double value,
              const std::string& detail);
  void TraceInstant(const char* name, const std::string& detail);

  serve::ModelRegistry* const registry_;
  const LifecycleConfig config_;
  const PromotionGate gate_;
  DecisionLog log_;

  mutable std::mutex mu_;
  std::vector<Candidate> candidates_;
  size_t active_ = kNoActive;
  std::unordered_map<linalg::Vector, PendingPair,
                     serve::PredictionService::FeatureHash>
      pending_;

  // Champion side: the currently-serving bits, their scorer, and what to
  // restore on rollback.
  std::shared_ptr<const core::Predictor> champion_model_;
  uint64_t champion_generation_ = 0;
  std::unique_ptr<ShadowScorer> champion_scorer_;
  std::shared_ptr<const core::Predictor> previous_champion_;
  uint64_t previous_generation_ = 0;

  // Probation watchdog: one fresh SloEngine per promotion, a single
  // gauge-threshold rule over the internal champion-risk gauge.
  obs::Gauge probation_gauge_;
  std::unique_ptr<obs::SloEngine> probation_slo_;
  size_t promoted_candidate_ = kNoActive;
  double probation_threshold_ = 0.0;
  uint64_t probation_windows_done_ = 0;
  bool in_probation_ = false;

  uint64_t scored_ = 0;
  uint64_t window_tick_ = 0;
  uint64_t windows_closed_ = 0;
  LifecycleStats tallies_;

  // Registry metrics, resolved once (null without a registry).
  obs::Counter* shadow_predictions_counter_ = nullptr;
  obs::Counter* scored_counter_ = nullptr;
  obs::Counter* windows_counter_ = nullptr;
  obs::Counter* candidates_counter_ = nullptr;
  obs::Counter* poisoned_counter_ = nullptr;
  obs::Counter* promotions_counter_ = nullptr;
  obs::Counter* rejections_counter_ = nullptr;
  obs::Counter* rollbacks_counter_ = nullptr;
  obs::Counter* confirmations_counter_ = nullptr;
  obs::Counter* pending_dropped_counter_ = nullptr;
  obs::Gauge* champion_risk_gauge_ = nullptr;
  obs::Gauge* challenger_risk_gauge_ = nullptr;
};

}  // namespace qpp::lifecycle
