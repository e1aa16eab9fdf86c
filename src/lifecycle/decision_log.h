// The lifecycle decision log: an append-only record of every promotion
// decision the closed loop takes, carrying only deterministic quantities
// (scored-observation counts, window indices, generations, risk EWMAs of
// bit-identical predictions) — never wall-clock time. Two same-seed runs
// of a lifecycle harness must produce byte-identical ToString() output;
// CI diffs them (see docs/LIFECYCLE.md, "Determinism contract").
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace qpp::lifecycle {

/// One decision-log entry. `event` is one of: "register", "hold",
/// "reject", "promote", "probation", "rollback", "confirm".
struct Decision {
  uint64_t sequence = 0;   ///< 1-based append order
  uint64_t scored = 0;     ///< scored observations when the decision fired
  uint64_t window = 0;     ///< lifecycle windows closed so far
  std::string event;
  std::string candidate;   ///< candidate label ("" for champion-only events)
  uint64_t champion_generation = 0;
  uint64_t candidate_generation = 0;  ///< 0 unless promoted/rolled back
  double champion_risk = 0.0;
  double challenger_risk = 0.0;
  std::string reason;      ///< gate verdict / watchdog rule, free-form
};

class DecisionLog {
 public:
  DecisionLog() = default;
  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  /// Appends one entry; `sequence` is assigned here (1, 2, ...).
  void Append(Decision d);

  /// Counts entries with the given event name ("promote", "rollback", ...).
  uint64_t CountEvent(const std::string& event) const;

  /// The byte-stable dump: one fixed-format line per entry. Risks are
  /// printed with %.9g — the inputs are bit-identical across thread counts
  /// and SIMD dispatch (the repo-wide determinism contract), so the bytes
  /// are too.
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::vector<Decision> entries_;
};

/// Formats one entry exactly as ToString does (shared with tests that pin
/// the format).
std::string FormatDecision(const Decision& d);

}  // namespace qpp::lifecycle
