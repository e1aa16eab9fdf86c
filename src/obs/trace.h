// Per-request span tracing with Chrome trace_event JSON export.
//
// A TraceRecorder collects timestamped spans from any number of threads;
// ToJson() emits a document loadable in chrome://tracing or
// https://ui.perfetto.dev. Two kinds of producers feed it:
//
//  * RAII spans (obs::Span) measured against the wall clock — the serve
//    pipeline stages (batch assembly, cache lookup, predict, respond) and
//    the predictor's internal stages (preprocess, kcca_project, knn, ...).
//  * Manually timed complete events — queue-wait intervals whose endpoints
//    were observed on different threads, and the execution simulator's
//    per-operator spans, which live in *simulated* time but are placed on
//    the recorder's timeline so a simulated query's critical path renders
//    next to the service's own latency (separate pid / track group).
//
// Cost model: tracing must be free when disabled. Every recording helper
// takes a `TraceRecorder*` that is null when tracing is off, and bails on
// one pointer test before touching the clock — a Span on a null recorder
// compiles down to two branches and no stores. The serve throughput gate
// (bench_serve_throughput) runs with tracing off and verifies the hot path
// stayed intact.
//
// Thread safety: all members are safe to call concurrently; event append
// takes a mutex (one lock per span *end*, never on the disabled path).
//
// Capacity: the recorder keeps at most TraceRecorderOptions::max_events
// events; later Adds are counted (dropped_count) and discarded, so a
// tracing-enabled million-request soak degrades to a truncated trace
// instead of an OOM. Request-scoped correlation: every span recorded while
// an obs::RequestContext scope is installed is auto-tagged with a
// `trace_id` arg (see request_context.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace qpp::obs {

/// Event args as (key, value) pairs; values are pre-encoded JSON tokens
/// (quoted strings or bare numbers) — see Span::AddArg.
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/// One Chrome trace_event.
struct TraceEvent {
  /// 'X' = complete span, 'b'/'e' = async begin/end (overlap-safe, used
  /// for queue waits), 'M' = metadata, 'i' = instant.
  char phase = 'X';
  std::string name;
  std::string category;
  uint32_t pid = 1;
  uint32_t tid = 0;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;  ///< complete events only
  uint64_t id = 0;      ///< async events only
  TraceArgs args;
};

struct TraceRecorderOptions {
  /// Hard cap on buffered events; Adds past it are dropped (and counted).
  /// The default holds ~100 MB of traced soak comfortably while bounding
  /// the worst case; tests use small caps to pin the drop behavior.
  size_t max_events = 1u << 20;
};

class TraceRecorder {
 public:
  /// Track groups (Chrome "processes") the stack records into.
  static constexpr uint32_t kServicePid = 1;    ///< serve pipeline wall time
  static constexpr uint32_t kSimulatorPid = 2;  ///< simulated query time

  explicit TraceRecorder(TraceRecorderOptions options = {});
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Microseconds since the recorder was created (monotonic clock).
  uint64_t NowMicros() const;
  /// The same timeline for an externally captured steady_clock instant
  /// (clamped to 0 for instants predating the recorder).
  uint64_t MicrosAt(std::chrono::steady_clock::time_point tp) const;

  /// Small stable id for the calling thread (1, 2, ... in first-seen
  /// order), used as the Chrome tid.
  uint32_t CurrentThreadTid();

  /// Reserves `n` consecutive track ids for manually timed spans (the
  /// simulator takes one group of lanes per traced query so queries never
  /// interleave on a track). Independent of thread tids only across pids —
  /// callers use these with pid != kServicePid.
  uint32_t AllocateTrackIds(uint32_t n);

  /// Unique id for async ('b'/'e') event pairing.
  uint64_t NextAsyncId();

  /// Appends `event`, or drops it (counted) once max_events is buffered.
  void Add(TraceEvent event);

  /// Appends an instant event ('i') on the calling thread's track, now.
  /// Like a Span, it is tagged with the installed RequestContext's trace
  /// id unless `args` already carries a "trace_id".
  void Instant(const char* name, const char* category, TraceArgs args = {});

  size_t event_count() const;
  /// Events discarded by the max_events cap so far.
  uint64_t dropped_count() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::vector<TraceEvent> Events() const;  ///< snapshot copy (tests/tools)

  /// The full Chrome trace JSON document:
  /// {"displayTimeUnit":"ms","traceEvents":[...]}.
  std::string ToJson() const;

 private:
  const TraceRecorderOptions options_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, uint32_t> thread_tids_;
  uint32_t next_thread_tid_ = 1;
  uint32_t next_track_id_ = 1;
  uint64_t next_async_id_ = 1;
};

/// RAII complete-event span. Constructed against a possibly-null recorder:
/// null means tracing is disabled and every member function is an inert
/// branch (no clock read, no allocation).
///
/// When the span closes while an obs::RequestContext scope is installed on
/// the thread (and no explicit "trace_id" arg was added), the current
/// trace id is appended as a `trace_id` arg — request correlation with no
/// signature changes anywhere a Span already exists.
///
///   obs::Span span(trace, "predict");      // trace may be nullptr
///   span.AddArg("batch", batch.size());
///   ...                                     // span closes at scope exit
class Span {
 public:
  Span(TraceRecorder* recorder, const char* name,
       const char* category = "serve");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void AddArg(const char* key, double value);
  void AddArg(const char* key, uint64_t value);
  void AddArg(const char* key, const char* value);

 private:
  TraceRecorder* const recorder_;
  const char* const name_;
  const char* const category_;
  uint64_t start_us_ = 0;
  TraceArgs args_;
};

}  // namespace qpp::obs
