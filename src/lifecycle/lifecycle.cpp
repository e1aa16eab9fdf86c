#include "lifecycle/lifecycle.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"
#include "obs/json_util.h"
#include "workload/pools.h"

namespace qpp::lifecycle {

double RiskWindow::risk() const {
  double worst = 0.0;
  for (size_t m = 0; m < kNumMetrics; ++m) {
    worst = std::max(worst, metric_ewma[m]);
    for (size_t p = 0; p < workload::kNumQueryTypes; ++p) {
      worst = std::max(worst, pool_ewma[p][m]);
    }
  }
  return worst;
}

ShadowScorer::ShadowScorer(std::shared_ptr<const core::Predictor> model,
                           double poison_multiplier)
    : model_(std::move(model)), poison_multiplier_(poison_multiplier) {}

engine::QueryMetrics ShadowScorer::Predict(
    const linalg::Vector& features) const {
  QPP_CHECK_MSG(model_ != nullptr, "score-only scorer cannot predict");
  engine::QueryMetrics m = model_->Predict(features).metrics;
  if (poison_multiplier_ != 1.0) {
    linalg::Vector v = m.ToVector();
    for (double& x : v) x *= poison_multiplier_;
    m = engine::QueryMetrics::FromVector(v);
  }
  return m;
}

void ShadowScorer::Score(const engine::QueryMetrics& predicted,
                         const engine::QueryMetrics& actual) {
  monitor_.Observe(obs::DriftMonitor::Source::kModel, predicted, actual);
}

RiskWindow ShadowScorer::Window() const {
  RiskWindow w;
  w.observations = monitor_.model_observations();
  for (size_t m = 0; m < RiskWindow::kNumMetrics; ++m) {
    w.metric_ewma[m] = monitor_.MetricEwma(m);
    for (const workload::QueryType t : workload::kQueryTypes) {
      w.pool_ewma[workload::QueryTypeIndex(t)][m] =
          monitor_.PoolMetricEwma(t, m);
    }
  }
  return w;
}

PromotionGate::PromotionGate(PromotionGateConfig config)
    : config_(config) {}

GateDecision PromotionGate::Evaluate(const RiskWindow& champion,
                                     const RiskWindow& challenger) const {
  GateDecision d;
  d.champion_risk = champion.risk();
  d.challenger_risk = challenger.risk();
  // Every condition below is "challenger quantity <= fixed bound"; EWMAs
  // only grow when scored errors grow, so worsening the challenger can
  // never flip a reject into a promote (the monotonicity property test).
  if (champion.observations < config_.min_observations ||
      challenger.observations < config_.min_observations) {
    d.reason = "warmup";
    return d;
  }
  const auto names = engine::QueryMetrics::MetricNames();
  for (size_t m = 0; m < RiskWindow::kNumMetrics; ++m) {
    if (challenger.metric_ewma[m] > config_.tolerance) {
      d.reason = "tolerance:" + names[m];
      return d;
    }
  }
  if (d.challenger_risk > d.champion_risk * (1.0 - config_.margin)) {
    d.reason = "margin";
    return d;
  }
  d.promote = true;
  d.reason = "promote";
  return d;
}

const char* CandidateStateName(CandidateState s) {
  switch (s) {
    case CandidateState::kShadowing: return "shadowing";
    case CandidateState::kPromoted: return "promoted";
    case CandidateState::kConfirmed: return "confirmed";
    case CandidateState::kRejected: return "rejected";
    case CandidateState::kRolledBack: return "rolled_back";
  }
  return "?";
}

LifecycleManager::LifecycleManager(serve::ModelRegistry* registry,
                                   LifecycleConfig config)
    : registry_(registry), config_(config), gate_(config.gate) {
  QPP_CHECK_MSG(registry_ != nullptr, "lifecycle needs a model registry");
  QPP_CHECK_MSG(config_.window_observations > 0, "window must be positive");
  const serve::ModelRegistry::Snapshot snap = registry_->Acquire();
  champion_model_ = snap.model;
  champion_generation_ = snap.generation;
  champion_scorer_ = std::make_unique<ShadowScorer>(nullptr);
  if (config_.registry != nullptr) {
    obs::MetricsRegistry* r = config_.registry;
    shadow_predictions_counter_ =
        r->GetCounter("qpp_lifecycle_shadow_predictions_total");
    scored_counter_ = r->GetCounter("qpp_lifecycle_scored_total");
    windows_counter_ = r->GetCounter("qpp_lifecycle_windows_total");
    candidates_counter_ = r->GetCounter("qpp_lifecycle_candidates_total");
    poisoned_counter_ = r->GetCounter("qpp_lifecycle_poisoned_total");
    promotions_counter_ = r->GetCounter("qpp_lifecycle_promotions_total");
    rejections_counter_ = r->GetCounter("qpp_lifecycle_rejections_total");
    rollbacks_counter_ = r->GetCounter("qpp_lifecycle_rollbacks_total");
    confirmations_counter_ =
        r->GetCounter("qpp_lifecycle_confirmations_total");
    pending_dropped_counter_ =
        r->GetCounter("qpp_lifecycle_pending_dropped_total");
    champion_risk_gauge_ = r->GetGauge("qpp_lifecycle_champion_risk");
    challenger_risk_gauge_ = r->GetGauge("qpp_lifecycle_challenger_risk");
  }
}

size_t LifecycleManager::RegisterCandidate(
    std::shared_ptr<const core::Predictor> model, std::string label) {
  QPP_CHECK_MSG(model != nullptr && model->trained(),
                "candidate must be a trained model");
  // The poison decision is drawn outside the lock: the injector keys it by
  // registration order alone (candidate index i), never by our state.
  double poison = 1.0;
  if (config_.faults != nullptr) poison = config_.faults->NextModelPoison();

  std::lock_guard<std::mutex> lock(mu_);
  const size_t index = candidates_.size();
  Candidate c;
  c.label = std::move(label);
  c.scorer = std::make_unique<ShadowScorer>(std::move(model), poison);
  const bool poisoned = c.scorer->poisoned();
  candidates_.push_back(std::move(c));
  ++tallies_.candidates;
  if (candidates_counter_ != nullptr) candidates_counter_->Inc();
  if (poisoned) {
    ++tallies_.poisoned_candidates;
    if (poisoned_counter_ != nullptr) poisoned_counter_->Inc();
  }
  if (active_ == kNoActive && !in_probation_) AdvanceActiveLocked();

  const std::string& stored_label = candidates_[index].label;
  Flight(obs::FlightEventKind::kCandidateRegistered,
         static_cast<int32_t>(index), 0.0, stored_label);
  TraceInstant("candidate_registered", stored_label);
  Decision d;
  d.event = "register";
  d.candidate = stored_label;
  d.champion_generation = champion_generation_;
  d.reason = active_ == index ? "shadowing" : "queued";
  LogLocked(std::move(d));
  return index;
}

void LifecycleManager::OnServedPrediction(const linalg::Vector& features,
                                          const core::Prediction& served,
                                          uint64_t generation,
                                          uint64_t trace_id) {
  (void)trace_id;  // correlation flows via the installed RequestContext
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.size() >= kMaxPendingPairs &&
      pending_.find(features) == pending_.end()) {
    ++tallies_.pending_dropped;
    if (pending_dropped_counter_ != nullptr) pending_dropped_counter_->Inc();
    return;
  }
  PendingPair p;
  p.served = served.metrics;
  p.generation = generation;
  if (active_ != kNoActive) {
    const Candidate& c = candidates_[active_];
    obs::Span span(config_.trace, "shadow_predict", "lifecycle");
    span.AddArg("candidate", c.label.c_str());
    p.shadow = c.scorer->Predict(features);
    p.has_shadow = true;
    p.candidate = active_;
    ++tallies_.shadow_predictions;
    if (shadow_predictions_counter_ != nullptr) {
      shadow_predictions_counter_->Inc();
    }
  }
  pending_[features] = std::move(p);
}

bool LifecycleManager::ScoreActual(const linalg::Vector& features,
                                   const engine::QueryMetrics& actual) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(features);
  if (it == pending_.end()) return false;
  const PendingPair p = std::move(it->second);
  pending_.erase(it);
  // A pair served by an older generation says nothing about the current
  // champion; promotions/rollbacks also clear pending wholesale, so this
  // only catches swaps that raced a registration.
  if (p.generation != champion_generation_) {
    ++tallies_.pending_invalidated;
    return false;
  }
  champion_scorer_->Score(p.served, actual);
  if (p.has_shadow &&
      candidates_[p.candidate].state == CandidateState::kShadowing) {
    candidates_[p.candidate].scorer->Score(p.shadow, actual);
  }
  ++scored_;
  ++tallies_.scored;
  if (scored_counter_ != nullptr) scored_counter_->Inc();

  const double champion_risk = ChampionWindowLocked().risk();
  if (champion_risk_gauge_ != nullptr) {
    champion_risk_gauge_->Set(champion_risk);
  }
  if (challenger_risk_gauge_ != nullptr && active_ != kNoActive) {
    challenger_risk_gauge_->Set(candidates_[active_].scorer->Window().risk());
  }

  ++window_tick_;
  std::optional<obs::SloEvaluation> eval;
  if (in_probation_) {
    probation_gauge_.Set(champion_risk);
    eval = probation_slo_->Tick();
  }
  if (window_tick_ < config_.window_observations) return true;
  window_tick_ = 0;
  ++windows_closed_;
  ++tallies_.windows;
  if (windows_counter_ != nullptr) windows_counter_->Inc();

  if (in_probation_) {
    // The probation engine ticks in lockstep with our window counter (both
    // were zeroed at promotion), so this tick closed its window too.
    if (eval.has_value() && !eval->eager && eval->any_breached()) {
      RollbackLocked(champion_risk);
    } else {
      ++probation_windows_done_;
      Decision d;
      d.event = "probation";
      d.candidate = candidates_[promoted_candidate_].label;
      d.champion_generation = champion_generation_;
      d.candidate_generation =
          candidates_[promoted_candidate_].promoted_generation;
      d.champion_risk = champion_risk;
      d.reason = StrFormat(
          "clean %llu/%llu threshold=%.9g",
          static_cast<unsigned long long>(probation_windows_done_),
          static_cast<unsigned long long>(config_.probation_windows),
          probation_threshold_);
      LogLocked(std::move(d));
      if (probation_windows_done_ >= config_.probation_windows) {
        ConfirmLocked();
      }
    }
  } else if (active_ != kNoActive) {
    CloseShadowWindowLocked();
  }
  return true;
}

RiskWindow LifecycleManager::ChampionWindowLocked() const {
  return champion_scorer_->Window();
}

void LifecycleManager::AdvanceActiveLocked() {
  active_ = kNoActive;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i].state == CandidateState::kShadowing) {
      active_ = i;
      break;
    }
  }
}

void LifecycleManager::CloseShadowWindowLocked() {
  const size_t index = active_;
  Candidate& c = candidates_[index];
  const RiskWindow champion = ChampionWindowLocked();
  const RiskWindow challenger = c.scorer->Window();
  const GateDecision gd = gate_.Evaluate(champion, challenger);
  c.last_risk = gd.challenger_risk;
  ++c.shadow_windows;
  Flight(obs::FlightEventKind::kShadowWindow, static_cast<int32_t>(index),
         gd.challenger_risk, gd.reason);
  TraceInstant("shadow_window", gd.reason);
  if (gd.promote) {
    PromoteLocked(index, gd);
    return;
  }
  Decision d;
  d.candidate = c.label;
  d.champion_generation = champion_generation_;
  d.champion_risk = gd.champion_risk;
  d.challenger_risk = gd.challenger_risk;
  d.reason = gd.reason;
  if (c.shadow_windows >= config_.max_shadow_windows) {
    c.state = CandidateState::kRejected;
    ++tallies_.rejections;
    if (rejections_counter_ != nullptr) rejections_counter_->Inc();
    d.event = "reject";
    LogLocked(std::move(d));
    AdvanceActiveLocked();
  } else {
    d.event = "hold";
    LogLocked(std::move(d));
  }
}

void LifecycleManager::PromoteLocked(size_t index,
                                     const GateDecision& decision) {
  Candidate& c = candidates_[index];
  previous_champion_ = champion_model_;
  previous_generation_ = champion_generation_;
  const uint64_t generation = registry_->Publish(c.scorer->model());
  champion_model_ = c.scorer->model();
  champion_generation_ = generation;
  c.state = CandidateState::kPromoted;
  c.promoted_generation = generation;
  promoted_candidate_ = index;
  active_ = kNoActive;

  // Fresh champion window: the new champion is judged on its own serving
  // errors, not the shadow EWMAs it was promoted on.
  champion_scorer_ = std::make_unique<ShadowScorer>(nullptr);
  InvalidatePendingLocked();
  window_tick_ = 0;

  probation_threshold_ =
      std::max(config_.rollback_min_risk,
               decision.challenger_risk * (1.0 + config_.rollback_margin));
  obs::SloEngineOptions so;
  so.window_ticks = config_.window_observations;
  so.registry = config_.registry;
  so.flight = config_.flight;
  so.trace = config_.trace;
  probation_slo_ = std::make_unique<obs::SloEngine>(so);
  probation_gauge_.Set(0.0);
  obs::SloRule rule;
  rule.name = "lifecycle_rollback";
  rule.kind = obs::SloRule::Kind::kGaugeThreshold;
  rule.threshold = probation_threshold_;
  rule.gauge = &probation_gauge_;
  probation_slo_->AddRule(std::move(rule));
  in_probation_ = true;
  probation_windows_done_ = 0;

  ++tallies_.promotions;
  if (promotions_counter_ != nullptr) promotions_counter_->Inc();
  Flight(obs::FlightEventKind::kPromotion, static_cast<int32_t>(index),
         decision.challenger_risk, c.label);
  TraceInstant("promotion", c.label);
  Decision d;
  d.event = "promote";
  d.candidate = c.label;
  d.champion_generation = previous_generation_;
  d.candidate_generation = generation;
  d.champion_risk = decision.champion_risk;
  d.challenger_risk = decision.challenger_risk;
  d.reason = StrFormat("gate=promote watchdog_threshold=%.9g",
                       probation_threshold_);
  LogLocked(std::move(d));
}

void LifecycleManager::RollbackLocked(double breached_risk) {
  Candidate& c = candidates_[promoted_candidate_];
  if (previous_champion_ != nullptr) {
    champion_generation_ = registry_->Publish(previous_champion_);
    champion_model_ = previous_champion_;
  } else {
    registry_->Unpublish();
    champion_model_ = nullptr;
    champion_generation_ = registry_->generation();
  }
  c.state = CandidateState::kRolledBack;
  const size_t index = promoted_candidate_;
  promoted_candidate_ = kNoActive;
  in_probation_ = false;
  probation_slo_.reset();
  champion_scorer_ = std::make_unique<ShadowScorer>(nullptr);
  InvalidatePendingLocked();
  window_tick_ = 0;

  ++tallies_.rollbacks;
  if (rollbacks_counter_ != nullptr) rollbacks_counter_->Inc();
  Flight(obs::FlightEventKind::kRollback, static_cast<int32_t>(index),
         breached_risk, c.label);
  TraceInstant("rollback", c.label);
  Decision d;
  d.event = "rollback";
  d.candidate = c.label;
  d.champion_generation = champion_generation_;
  d.candidate_generation = c.promoted_generation;
  d.champion_risk = breached_risk;
  d.reason = StrFormat("risk=%.9g > threshold=%.9g", breached_risk,
                       probation_threshold_);
  LogLocked(std::move(d));
  AdvanceActiveLocked();
}

void LifecycleManager::ConfirmLocked() {
  Candidate& c = candidates_[promoted_candidate_];
  c.state = CandidateState::kConfirmed;
  const size_t index = promoted_candidate_;
  promoted_candidate_ = kNoActive;
  in_probation_ = false;
  probation_slo_.reset();
  previous_champion_ = champion_model_;
  previous_generation_ = champion_generation_;

  ++tallies_.confirmations;
  if (confirmations_counter_ != nullptr) confirmations_counter_->Inc();
  Flight(obs::FlightEventKind::kShadowWindow, static_cast<int32_t>(index),
         ChampionWindowLocked().risk(), "confirm");
  TraceInstant("confirm", c.label);
  Decision d;
  d.event = "confirm";
  d.candidate = c.label;
  d.champion_generation = champion_generation_;
  d.candidate_generation = c.promoted_generation;
  d.champion_risk = ChampionWindowLocked().risk();
  d.reason = StrFormat(
      "probation clean %llu windows",
      static_cast<unsigned long long>(probation_windows_done_));
  LogLocked(std::move(d));
  AdvanceActiveLocked();
}

void LifecycleManager::InvalidatePendingLocked() {
  tallies_.pending_invalidated += pending_.size();
  pending_.clear();
}

void LifecycleManager::LogLocked(Decision d) {
  d.scored = scored_;
  d.window = windows_closed_;
  log_.Append(std::move(d));
}

void LifecycleManager::Flight(obs::FlightEventKind kind, int32_t code,
                              double value, const std::string& detail) {
  if (config_.flight == nullptr) return;
  // trace_id 0 falls back to the installed RequestContext inside Record.
  config_.flight->Record(kind, /*trace_id=*/0, code, value, detail);
}

void LifecycleManager::TraceInstant(const char* name,
                                    const std::string& detail) {
  if (config_.trace == nullptr) return;
  obs::TraceArgs args;
  if (!detail.empty()) args.emplace_back("detail", obs::JsonString(detail));
  config_.trace->Instant(name, "lifecycle", std::move(args));
}

CandidateState LifecycleManager::candidate_state(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  QPP_CHECK(index < candidates_.size());
  return candidates_[index].state;
}

bool LifecycleManager::candidate_poisoned(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  QPP_CHECK(index < candidates_.size());
  return candidates_[index].scorer->poisoned();
}

std::vector<CandidateInfo> LifecycleManager::Candidates() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CandidateInfo> out;
  out.reserve(candidates_.size());
  for (const Candidate& c : candidates_) {
    CandidateInfo info;
    info.label = c.label;
    info.state = c.state;
    info.poisoned = c.scorer->poisoned();
    info.shadow_windows = c.shadow_windows;
    info.promoted_generation = c.promoted_generation;
    info.risk = c.last_risk;
    out.push_back(std::move(info));
  }
  return out;
}

uint64_t LifecycleManager::champion_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return champion_generation_;
}

std::shared_ptr<const core::Predictor> LifecycleManager::champion_model()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return champion_model_;
}

bool LifecycleManager::in_probation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_probation_;
}

LifecycleStats LifecycleManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tallies_;
}

}  // namespace qpp::lifecycle
