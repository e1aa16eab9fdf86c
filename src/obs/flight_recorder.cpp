#include "obs/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "obs/json_util.h"
#include "obs/request_context.h"

namespace qpp::obs {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmissionAdmit: return "admission_admit";
    case FlightEventKind::kAdmissionShed: return "admission_shed";
    case FlightEventKind::kAdmissionDefer: return "admission_defer";
    case FlightEventKind::kDeferDrained: return "defer_drained";
    case FlightEventKind::kDeferOverflow: return "defer_overflow";
    case FlightEventKind::kSloBreach: return "slo_breach";
    case FlightEventKind::kSloAlert: return "slo_alert";
    case FlightEventKind::kSloWindow: return "slo_window";
    case FlightEventKind::kPick: return "pick";
    case FlightEventKind::kEscalation: return "escalation";
    case FlightEventKind::kFallback: return "fallback";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kBreakerTransition: return "breaker_transition";
    case FlightEventKind::kSwap: return "swap";
    case FlightEventKind::kHealthChange: return "health_change";
    case FlightEventKind::kInvariantFailure: return "invariant_failure";
    case FlightEventKind::kNote: return "note";
    case FlightEventKind::kCandidateRegistered: return "candidate_registered";
    case FlightEventKind::kShadowWindow: return "shadow_window";
    case FlightEventKind::kPromotion: return "promotion";
    case FlightEventKind::kRollback: return "rollback";
  }
  return "?";
}

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

// Detail strings travel as three 64-bit words: chars in bytes 0..22,
// length in byte 23.
void PackDetail(std::string_view detail, uint64_t words[3]) {
  char bytes[24] = {};
  const size_t len =
      std::min(detail.size(), FlightRecorder::kDetailCapacity);
  // An empty view may carry a null data(), which memcpy must never see.
  if (len > 0) std::memcpy(bytes, detail.data(), len);
  bytes[23] = static_cast<char>(len);
  std::memcpy(words, bytes, sizeof(bytes));
}

std::string UnpackDetail(const uint64_t words[3]) {
  char bytes[24];
  std::memcpy(bytes, words, sizeof(bytes));
  const size_t len = std::min<size_t>(static_cast<unsigned char>(bytes[23]),
                                      FlightRecorder::kDetailCapacity);
  return std::string(bytes, len);
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : slots_(RoundUpPow2(std::max<size_t>(options.capacity, 16))) {
  mask_ = slots_.size() - 1;
}

void FlightRecorder::Record(FlightEventKind kind, uint64_t trace_id,
                            int32_t code, double value,
                            std::string_view detail) {
  if (trace_id == 0) trace_id = CurrentRequestContext().trace_id;
  const uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(ticket - 1) & mask_];
  // Writes to one slot go in ticket order: wait until the previous lap's
  // writer has published. Otherwise a writer preempted between its ticket
  // and its publish could land after a newer lap and bury that event under
  // a stale one. The wait only happens when a whole ring of events is
  // recorded during one unfinished Record.
  const uint64_t capacity = slots_.size();
  const uint64_t previous = ticket > capacity ? ticket - capacity : 0;
  while (slot.seq.load(std::memory_order_acquire) != previous) {
    std::this_thread::yield();
  }
  // Invalidate, write payload, publish. Release payload stores keep the
  // invalidation ahead of them: a reader that loads any field of this
  // write also sees the slot invalidated when it re-checks seq. The
  // release on the final seq store makes the payload visible to a reader
  // that observes the ticket.
  slot.seq.store(0, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_release);
  slot.kind.store(static_cast<uint32_t>(kind), std::memory_order_release);
  slot.code.store(static_cast<uint32_t>(code), std::memory_order_release);
  slot.value_bits.store(std::bit_cast<uint64_t>(value),
                        std::memory_order_release);
  uint64_t words[3];
  PackDetail(detail, words);
  for (int i = 0; i < 3; ++i) {
    slot.detail_words[i].store(words[i], std::memory_order_release);
  }
  slot.seq.store(ticket, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t latest = next_ticket_.load(std::memory_order_acquire);
  if (latest == 0) return {};
  const uint64_t capacity = slots_.size();
  const uint64_t first = latest > capacity ? latest - capacity + 1 : 1;
  std::vector<FlightEvent> events;
  events.reserve(static_cast<size_t>(latest - first + 1));
  for (uint64_t ticket = first; ticket <= latest; ++ticket) {
    const Slot& slot = slots_[(ticket - 1) & mask_];
    if (slot.seq.load(std::memory_order_acquire) != ticket) continue;
    // Acquire payload loads keep the re-check below after them.
    FlightEvent e;
    e.ticket = ticket;
    e.trace_id = slot.trace_id.load(std::memory_order_acquire);
    e.kind = static_cast<FlightEventKind>(
        slot.kind.load(std::memory_order_acquire));
    e.code = static_cast<int32_t>(slot.code.load(std::memory_order_acquire));
    e.value = std::bit_cast<double>(
        slot.value_bits.load(std::memory_order_acquire));
    uint64_t words[3];
    for (int i = 0; i < 3; ++i) {
      words[i] = slot.detail_words[i].load(std::memory_order_acquire);
    }
    // Reject the copy if a concurrent writer lapped or rewrote the slot
    // while we were reading it.
    if (slot.seq.load(std::memory_order_acquire) != ticket) continue;
    e.detail = UnpackDetail(words);
    events.push_back(std::move(e));
  }
  return events;
}

std::string FlightRecorder::DumpJson(std::string_view reason) const {
  const std::vector<FlightEvent> events = Snapshot();
  const uint64_t total = total_recorded();
  const uint64_t overwritten =
      total > events.size() ? total - events.size() : 0;
  std::string out = "{\"reason\":" + JsonString(reason);
  out += ",\"capacity\":" + JsonNumber(static_cast<uint64_t>(capacity()));
  out += ",\"total_recorded\":" + JsonNumber(total);
  out += ",\"dropped\":" + JsonNumber(overwritten);
  out += ",\"events\":[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"ticket\":" + JsonNumber(e.ticket);
    out += ",\"kind\":" + JsonString(FlightEventKindName(e.kind));
    out += ",\"trace_id\":" + JsonString(TraceIdHex(e.trace_id));
    out += ",\"code\":" + JsonNumber(static_cast<double>(e.code));
    out += ",\"value\":" + JsonNumber(e.value);
    out += ",\"detail\":" + JsonString(e.detail);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace qpp::obs
