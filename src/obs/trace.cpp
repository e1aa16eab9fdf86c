#include "obs/trace.h"

#include "obs/json_util.h"
#include "obs/request_context.h"

namespace qpp::obs {

namespace {

// Appends the installed RequestContext's trace id to `args`, unless there
// is none or `args` already names one.
void TagCurrentTraceId(TraceArgs* args) {
  const RequestContext& ctx = CurrentRequestContext();
  if (!ctx.valid()) return;
  for (const auto& [k, v] : *args) {
    if (k == "trace_id") return;
  }
  args->emplace_back("trace_id", JsonString(TraceIdHex(ctx.trace_id)));
}

}  // namespace

TraceRecorder::TraceRecorder(TraceRecorderOptions options)
    : options_(options), origin_(std::chrono::steady_clock::now()) {}

uint64_t TraceRecorder::NowMicros() const {
  return MicrosAt(std::chrono::steady_clock::now());
}

uint64_t TraceRecorder::MicrosAt(
    std::chrono::steady_clock::time_point tp) const {
  if (tp <= origin_) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(tp - origin_)
          .count());
}

uint32_t TraceRecorder::CurrentThreadTid() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = thread_tids_.try_emplace(self, next_thread_tid_);
  if (inserted) ++next_thread_tid_;
  return it->second;
}

uint32_t TraceRecorder::AllocateTrackIds(uint32_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t start = next_track_id_;
  next_track_id_ += n;
  return start;
}

uint64_t TraceRecorder::NextAsyncId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_async_id_++;
}

void TraceRecorder::Add(TraceEvent event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < options_.max_events) {
      events_.push_back(std::move(event));
      return;
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::Instant(const char* name, const char* category,
                            TraceArgs args) {
  TraceEvent e;
  e.phase = 'i';
  e.name = name;
  e.category = category;
  e.pid = kServicePid;
  e.tid = CurrentThreadTid();
  e.ts_us = NowMicros();
  e.args = std::move(args);
  TagCurrentTraceId(&e.args);
  Add(std::move(e));
}

size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string TraceRecorder::ToJson() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Process-name metadata so Perfetto labels the track groups.
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
         "{\"name\":\"qpp serve\"}},";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
         "{\"name\":\"qpp simulator (simulated time)\"}}";
  for (const TraceEvent& e : events) {
    out += ",{\"name\":" + JsonString(e.name);
    if (!e.category.empty()) out += ",\"cat\":" + JsonString(e.category);
    out += ",\"ph\":\"";
    out += e.phase;
    out += "\",\"ts\":" + JsonNumber(e.ts_us);
    if (e.phase == 'X') out += ",\"dur\":" + JsonNumber(e.dur_us);
    if (e.phase == 'b' || e.phase == 'e') {
      out += ",\"id\":" + JsonNumber(e.id);
    }
    out += ",\"pid\":" + JsonNumber(static_cast<uint64_t>(e.pid)) +
           ",\"tid\":" + JsonNumber(static_cast<uint64_t>(e.tid));
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first = true;
      for (const auto& [k, v] : e.args) {
        if (!first) out += ',';
        first = false;
        out += JsonString(k) + ":" + v;
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

Span::Span(TraceRecorder* recorder, const char* name, const char* category)
    : recorder_(recorder), name_(name), category_(category) {
  if (recorder_ == nullptr) return;
  start_us_ = recorder_->NowMicros();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  TraceEvent e;
  e.phase = 'X';
  e.name = name_;
  e.category = category_;
  e.pid = TraceRecorder::kServicePid;
  e.tid = recorder_->CurrentThreadTid();
  e.ts_us = start_us_;
  e.dur_us = recorder_->NowMicros() - start_us_;
  e.args = std::move(args_);
  TagCurrentTraceId(&e.args);
  recorder_->Add(std::move(e));
}

void Span::AddArg(const char* key, double value) {
  if (recorder_ == nullptr) return;
  args_.emplace_back(key, JsonNumber(value));
}

void Span::AddArg(const char* key, uint64_t value) {
  if (recorder_ == nullptr) return;
  args_.emplace_back(key, JsonNumber(value));
}

void Span::AddArg(const char* key, const char* value) {
  if (recorder_ == nullptr) return;
  args_.emplace_back(key, JsonString(value));
}

}  // namespace qpp::obs
