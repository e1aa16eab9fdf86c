// The black-box flight recorder: a fixed-capacity ring of compact
// structured events that is always on, costs nanoseconds per event, and is
// dumped as a JSON "black box" when something goes wrong (SLO breach,
// chaos invariant failure, `qpp_tool obs --flight-dump`).
//
// Where the TraceRecorder answers "what did this request do, microsecond
// by microsecond" (and is therefore opt-in and bounded by max_events), the
// flight recorder answers "what were the last few thousand *decisions*
// the fabric took before this failure" — admission verdicts, replica
// picks, escalations, hot swaps, fault injections, breaker transitions —
// and is cheap enough to leave running in production and in every soak.
//
// Concurrency: a multi-writer seqlock ring. Writers claim a slot with one
// fetch_add on the ticket counter, wait until the slot's previous lap is
// published (so a slot's writes land in ticket order), invalidate the
// slot, write the payload as individual release-ordered atomics, then
// publish by storing the ticket into the slot's seq with release
// ordering. The wait is empty unless a whole ring of events was recorded
// while one earlier Record on the same slot was still unfinished. Readers
// accept a slot only when its seq reads the same expected ticket before
// AND after copying the payload (with acquire loads, so the re-check
// cannot move ahead of them), so an in-progress or lapped write is
// skipped, never blocked on, and never a data race (every field is
// atomic). In deterministic sequential harnesses there is no tearing at
// all and Snapshot()/DumpJson() are byte-replayable functions of the
// event history.
//
// Determinism: the recorder itself stores nothing time-derived. Events
// carry (ticket, trace id, kind, code, value, 23-char detail); whether a
// dump is byte-identical across runs is decided entirely by what callers
// put in `value` — the deterministic harnesses only record virtual-time /
// request-count quantities.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace qpp::obs {

/// What happened. Names (FlightEventKindName) appear verbatim in dumps.
enum class FlightEventKind : uint8_t {
  kAdmissionAdmit = 0,   ///< code = pool
  kAdmissionShed,        ///< code = pool; value = queue depth at decision
  kAdmissionDefer,       ///< code = pool; value = queue depth at decision
  kDeferDrained,         ///< a parked request was dispatched
  kDeferOverflow,        ///< defer buffer full: degraded to shed
  kSloBreach,            ///< admission saw a breached signal; value = p99
  kSloAlert,             ///< an SloEngine rule fired; detail = rule name
  kSloWindow,            ///< an SLO window closed; value = rule value
  kPick,                 ///< P2C dispatch; detail = replica label
  kEscalation,           ///< detail = group; code = 0 dead, 1 circuit-open,
                         ///< 2 overloaded
  kFallback,             ///< labeled degraded response; detail = reason
  kFault,                ///< injected fault; detail = kind name
  kBreakerTransition,    ///< code = new state; detail = replica label
  kSwap,                 ///< DrainSwapRevive completed; detail = label
  kHealthChange,         ///< code = new ReplicaHealth; detail = label
  kInvariantFailure,     ///< chaos invariant failed; detail = which
  kNote,                 ///< free-form marker (tools, tests)
  kCandidateRegistered,  ///< lifecycle candidate enters shadow; detail = label
  kShadowWindow,         ///< lifecycle window closed; detail = gate verdict
  kPromotion,            ///< challenger promoted; code = candidate index
  kRollback,             ///< watchdog demoted a promotion; value = risk
};

const char* FlightEventKindName(FlightEventKind kind);

/// One decoded ring entry. `ticket` is the 1-based global sequence number
/// of the event — dumps report both the window captured and how much
/// history was overwritten.
struct FlightEvent {
  uint64_t ticket = 0;
  uint64_t trace_id = 0;  ///< 0 = not tied to one request
  FlightEventKind kind = FlightEventKind::kNote;
  int32_t code = 0;       ///< kind-specific small integer
  double value = 0.0;     ///< kind-specific measure (depth, p99, ...)
  std::string detail;     ///< short label, truncated to 23 chars
};

struct FlightRecorderOptions {
  /// Ring capacity; rounded up to a power of two, minimum 16.
  size_t capacity = 4096;
};

class FlightRecorder {
 public:
  /// Longest detail string stored (bytes 24..31 of the slot hold len+pad).
  static constexpr size_t kDetailCapacity = 23;

  explicit FlightRecorder(FlightRecorderOptions options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event. Waits only if the ring has lapped a writer that
  /// is still filling this event's slot. `detail` is truncated to
  /// kDetailCapacity bytes. Safe from any thread.
  void Record(FlightEventKind kind, uint64_t trace_id = 0, int32_t code = 0,
              double value = 0.0, std::string_view detail = {});

  size_t capacity() const { return slots_.size(); }
  /// Events ever recorded (>= capacity() means the ring has lapped).
  uint64_t total_recorded() const {
    return next_ticket_.load(std::memory_order_relaxed);
  }

  /// The currently held window, oldest first. Slots being rewritten while
  /// the snapshot runs are skipped (never under sequential driving).
  std::vector<FlightEvent> Snapshot() const;

  /// The black-box document:
  /// {"reason":..., "capacity":..., "total_recorded":..., "dropped":...,
  ///  "events":[{"ticket":..,"kind":"..","trace_id":"<hex>","code":..,
  ///             "value":..,"detail":".."}, ...]}.
  /// Byte-identical across runs whenever the recorded history is.
  std::string DumpJson(std::string_view reason) const;

 private:
  // 24 bytes of detail packed into three word-sized atomics so the whole
  // payload is individually-atomic (seqlock readers may race writers).
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< 0 = empty, else the owning ticket
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint32_t> kind{0};
    std::atomic<uint32_t> code{0};
    std::atomic<uint64_t> value_bits{0};
    std::atomic<uint64_t> detail_words[3] = {};
  };

  std::vector<Slot> slots_;  // size is a power of two
  size_t mask_ = 0;
  std::atomic<uint64_t> next_ticket_{0};
};

}  // namespace qpp::obs
