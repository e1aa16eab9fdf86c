#include "lifecycle/decision_log.h"

#include <utility>

#include "common/str_util.h"

namespace qpp::lifecycle {

void DecisionLog::Append(Decision d) {
  std::lock_guard<std::mutex> lock(mu_);
  d.sequence = entries_.size() + 1;
  entries_.push_back(std::move(d));
}

uint64_t DecisionLog::CountEvent(const std::string& event) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const Decision& d : entries_) {
    if (d.event == event) ++n;
  }
  return n;
}

std::string FormatDecision(const Decision& d) {
  return StrFormat(
      "[%llu] w%llu s%llu %-9s cand=%s champ_gen=%llu cand_gen=%llu "
      "risk_champ=%.9g risk_cand=%.9g %s\n",
      static_cast<unsigned long long>(d.sequence),
      static_cast<unsigned long long>(d.window),
      static_cast<unsigned long long>(d.scored), d.event.c_str(),
      d.candidate.empty() ? "-" : d.candidate.c_str(),
      static_cast<unsigned long long>(d.champion_generation),
      static_cast<unsigned long long>(d.candidate_generation),
      d.champion_risk, d.challenger_risk, d.reason.c_str());
}

std::string DecisionLog::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "lifecycle decision log:\n";
  for (const Decision& d : entries_) {
    out += "  " + FormatDecision(d);
  }
  return out;
}

}  // namespace qpp::lifecycle
