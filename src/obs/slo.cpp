#include "obs/slo.h"

#include "common/check.h"
#include "obs/json_util.h"

namespace qpp::obs {

SloEngine::SloEngine(SloEngineOptions options) : options_(options) {
  QPP_CHECK(options_.window_ticks >= 1);
  if (options_.registry != nullptr) {
    windows_counter_ = options_.registry->GetCounter("qpp_slo_windows_total");
    evaluations_counter_ =
        options_.registry->GetCounter("qpp_slo_evaluations_total");
    alerts_counter_ = options_.registry->GetCounter("qpp_slo_alerts_total");
    burning_gauge_ = options_.registry->GetGauge("qpp_slo_burning");
  }
}

void SloEngine::AddRule(SloRule rule) {
  switch (rule.kind) {
    case SloRule::Kind::kHistogramQuantile:
      QPP_CHECK_MSG(rule.histogram != nullptr,
                    "quantile rule needs a histogram");
      break;
    case SloRule::Kind::kCounterRatio:
      QPP_CHECK_MSG(rule.numerator != nullptr && rule.denominator != nullptr,
                    "ratio rule needs numerator and denominator");
      break;
    case SloRule::Kind::kGaugeThreshold:
      QPP_CHECK_MSG(rule.gauge != nullptr, "gauge rule needs a gauge");
      break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  RuleState state;
  state.rule = std::move(rule);
  if (state.rule.kind == SloRule::Kind::kHistogramQuantile) {
    state.histogram_base = state.rule.histogram->Snapshot();
  } else if (state.rule.kind == SloRule::Kind::kCounterRatio) {
    state.numerator_base = state.rule.numerator->value();
    state.denominator_base = state.rule.denominator->value();
  }
  if (options_.registry != nullptr) {
    state.alerts = options_.registry->GetCounter(
        "qpp_slo_rule_alerts_total", {{"rule", state.rule.name}});
    state.value_gauge = options_.registry->GetGauge(
        "qpp_slo_rule_value", {{"rule", state.rule.name}});
  }
  rules_.push_back(std::move(state));
}

SloRuleOutcome SloEngine::EvaluateRuleLocked(const RuleState& state) const {
  const SloRule& rule = state.rule;
  SloRuleOutcome out;
  out.rule = rule.name;
  out.threshold = rule.threshold;
  switch (rule.kind) {
    case SloRule::Kind::kHistogramQuantile: {
      HistogramSnapshot window = rule.histogram->Snapshot();
      window.Subtract(state.histogram_base);
      out.samples = window.count();
      out.value = window.Quantile(rule.quantile);
      break;
    }
    case SloRule::Kind::kCounterRatio: {
      const uint64_t num = rule.numerator->value() - state.numerator_base;
      const uint64_t den =
          rule.denominator->value() - state.denominator_base;
      out.samples = den;
      out.value = den > 0 ? static_cast<double>(num) /
                                static_cast<double>(den)
                          : 0.0;
      break;
    }
    case SloRule::Kind::kGaugeThreshold:
      out.samples = 1;
      out.value = rule.gauge->value();
      break;
  }
  out.breached =
      out.samples >= rule.min_samples && out.value > rule.threshold;
  return out;
}

SloEvaluation SloEngine::EvaluateLocked(bool eager,
                                        uint64_t window_index) const {
  SloEvaluation eval;
  eval.window_index = window_index;
  eval.eager = eager;
  eval.rules.reserve(rules_.size());
  for (const RuleState& state : rules_) {
    eval.rules.push_back(EvaluateRuleLocked(state));
  }
  return eval;
}

void SloEngine::PublishLocked(const SloEvaluation& eval) {
  burning_ = eval.any_breached();
  if (evaluations_counter_ != nullptr) evaluations_counter_->Inc();
  if (burning_gauge_ != nullptr) burning_gauge_->Set(burning_ ? 1.0 : 0.0);
  size_t breached = 0;
  for (size_t i = 0; i < eval.rules.size(); ++i) {
    const SloRuleOutcome& out = eval.rules[i];
    RuleState& state = rules_[i];
    state.last_value = out.value;
    if (state.value_gauge != nullptr) state.value_gauge->Set(out.value);
    if (!out.breached) continue;
    ++breached;
    ++alerts_total_;
    if (alerts_counter_ != nullptr) alerts_counter_->Inc();
    if (state.alerts != nullptr) state.alerts->Inc();
    if (options_.flight != nullptr) {
      options_.flight->Record(FlightEventKind::kSloAlert, /*trace_id=*/0,
                              static_cast<int32_t>(i), out.value,
                              out.rule);
    }
    if (options_.trace != nullptr) {
      options_.trace->Instant("slo_alert", "slo",
                              {{"rule", JsonString(out.rule)},
                               {"value", JsonNumber(out.value)},
                               {"threshold", JsonNumber(out.threshold)}});
    }
  }
  if (!eval.eager && options_.flight != nullptr) {
    options_.flight->Record(FlightEventKind::kSloWindow, /*trace_id=*/0,
                            static_cast<int32_t>(breached),
                            static_cast<double>(eval.window_index),
                            "window_close");
  }
}

std::optional<SloEvaluation> SloEngine::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  ++ticks_;
  ++ticks_in_window_;
  const bool close = ticks_in_window_ >= options_.window_ticks;
  const bool eager = !close && options_.eager_refresh_every > 0 &&
                     ticks_in_window_ % options_.eager_refresh_every == 0;
  if (!close && !eager) return std::nullopt;
  SloEvaluation eval = EvaluateLocked(eager, windows_closed_ + (close ? 1 : 0));
  PublishLocked(eval);
  if (close) {
    ++windows_closed_;
    if (windows_counter_ != nullptr) windows_counter_->Inc();
    ticks_in_window_ = 0;
    // Advance every rule's baseline to "now": the next window measures
    // only what happens after this close.
    for (RuleState& state : rules_) {
      if (state.rule.kind == SloRule::Kind::kHistogramQuantile) {
        state.histogram_base = state.rule.histogram->Snapshot();
      } else if (state.rule.kind == SloRule::Kind::kCounterRatio) {
        state.numerator_base = state.rule.numerator->value();
        state.denominator_base = state.rule.denominator->value();
      }
    }
  }
  return eval;
}

bool SloEngine::burning() const {
  std::lock_guard<std::mutex> lock(mu_);
  return burning_;
}

double SloEngine::RuleValue(const std::string& rule) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& state : rules_) {
    if (state.rule.name == rule) return state.last_value;
  }
  return 0.0;
}

uint64_t SloEngine::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

uint64_t SloEngine::windows_closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_closed_;
}

uint64_t SloEngine::alerts_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_total_;
}

}  // namespace qpp::obs
