// Tests for the qpp::obs v2 surface: request-scoped trace correlation
// (obs/request_context.h), the black-box flight recorder
// (obs/flight_recorder.h), the deterministic windowed SLO engine
// (obs/slo.h), the TraceRecorder event cap, the Prometheus text
// exposition, end-to-end trace-id propagation through the fabric, and the
// byte-replayability of the observability flight demo.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/two_step.h"
#include "fabric/fabric.h"
#include "fault/chaos.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/request_context.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/prediction_service.h"
#include "workload/pools.h"

namespace qpp::obs {
namespace {

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ------------------------------------------------------ request context --

TEST(RequestContextTest, DerivedIdsAreDeterministicDistinctAndNeverZero) {
  const uint64_t a = DeriveTraceId(42, 0);
  EXPECT_EQ(a, DeriveTraceId(42, 0));
  EXPECT_NE(a, 0u);
  std::vector<uint64_t> ids;
  for (uint64_t seq = 0; seq < 1000; ++seq) {
    const uint64_t id = DeriveTraceId(42, seq);
    EXPECT_NE(id, 0u);
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  // Different seeds diverge immediately.
  EXPECT_NE(DeriveTraceId(42, 0), DeriveTraceId(43, 0));
}

TEST(RequestContextTest, TraceIdHexIsSixteenLowercaseDigits) {
  EXPECT_EQ(TraceIdHex(0), "0000000000000000");
  EXPECT_EQ(TraceIdHex(0xABCull), "0000000000000abc");
  EXPECT_EQ(TraceIdHex(0xFFFFFFFFFFFFFFFFull), "ffffffffffffffff");
}

TEST(RequestContextTest, GeneratorMintsTheDerivedSequence) {
  TraceIdGenerator gen(7);
  EXPECT_EQ(gen.issued(), 0u);
  for (uint64_t i = 0; i < 8; ++i) {
    const RequestContext ctx = gen.Next();
    EXPECT_TRUE(ctx.valid());
    EXPECT_EQ(ctx.trace_id, DeriveTraceId(7, i));
  }
  EXPECT_EQ(gen.issued(), 8u);
}

TEST(RequestContextTest, ScopesNestAndRestore) {
  EXPECT_FALSE(CurrentRequestContext().valid());
  {
    ScopedRequestContext outer(RequestContext{0x111});
    EXPECT_EQ(CurrentRequestContext().trace_id, 0x111u);
    {
      ScopedRequestContext inner(RequestContext{0x222});
      EXPECT_EQ(CurrentRequestContext().trace_id, 0x222u);
      {
        // An invalid context masks the outer one rather than leaking it.
        ScopedRequestContext none(RequestContext{});
        EXPECT_FALSE(CurrentRequestContext().valid());
      }
      EXPECT_EQ(CurrentRequestContext().trace_id, 0x222u);
    }
    EXPECT_EQ(CurrentRequestContext().trace_id, 0x111u);
  }
  EXPECT_FALSE(CurrentRequestContext().valid());
}

TEST(RequestContextTest, ScopeIsPerThread) {
  ScopedRequestContext scope(RequestContext{0xBEEF});
  uint64_t seen_on_other_thread = 1;
  std::thread([&] {
    seen_on_other_thread = CurrentRequestContext().trace_id;
  }).join();
  EXPECT_EQ(seen_on_other_thread, 0u);
  EXPECT_EQ(CurrentRequestContext().trace_id, 0xBEEFu);
}

// ------------------------------------------------------- flight recorder --

TEST(FlightRecorderTest, RecordsInOrderWithOneBasedTickets) {
  FlightRecorder flight(FlightRecorderOptions{64});
  flight.Record(FlightEventKind::kNote, 0x1, 1, 0.5, "first");
  flight.Record(FlightEventKind::kPick, 0x2, 2, 1.5, "feather#0");
  flight.Record(FlightEventKind::kFallback, 0x3, 3, 2.5, "admission-shed");
  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ticket, 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kNote);
  EXPECT_EQ(events[0].detail, "first");
  EXPECT_EQ(events[1].trace_id, 0x2u);
  EXPECT_EQ(events[1].detail, "feather#0");
  EXPECT_EQ(events[2].code, 3);
  EXPECT_EQ(events[2].value, 2.5);
  EXPECT_EQ(flight.total_recorded(), 3u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwoMinimumSixteen) {
  EXPECT_EQ(FlightRecorder(FlightRecorderOptions{0}).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(FlightRecorderOptions{16}).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(FlightRecorderOptions{17}).capacity(), 32u);
  EXPECT_EQ(FlightRecorder(FlightRecorderOptions{4096}).capacity(), 4096u);
}

TEST(FlightRecorderTest, RingLapsKeepTheNewestWindow) {
  FlightRecorder flight(FlightRecorderOptions{16});
  for (int i = 0; i < 40; ++i) {
    flight.Record(FlightEventKind::kNote, 0, i);
  }
  EXPECT_EQ(flight.total_recorded(), 40u);
  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  // Oldest surviving ticket is 40 - 16 + 1 = 25, oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ticket, 25u + i);
    EXPECT_EQ(events[i].code, static_cast<int32_t>(24 + i));
  }
}

TEST(FlightRecorderTest, DetailIsTruncatedToTwentyThreeBytes) {
  FlightRecorder flight;
  flight.Record(FlightEventKind::kNote, 0, 0, 0.0,
                "abcdefghijklmnopqrstuvwxyz");  // 26 chars
  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, "abcdefghijklmnopqrstuvw");
  EXPECT_EQ(events[0].detail.size(), FlightRecorder::kDetailCapacity);
}

TEST(FlightRecorderTest, EventWithoutDetailDumpsAnEmptyDetail) {
  // The default detail is an empty view whose data() is null; packing it
  // must copy nothing (memcpy from null is undefined even for 0 bytes).
  FlightRecorder flight;
  flight.Record(FlightEventKind::kNote);
  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, "");
  EXPECT_NE(flight.DumpJson("no-detail").find("\"detail\":\"\""),
            std::string::npos);
}

TEST(FlightRecorderTest, ZeroTraceIdFallsBackToTheThreadContext) {
  FlightRecorder flight;
  flight.Record(FlightEventKind::kNote);  // no scope installed
  {
    ScopedRequestContext scope(RequestContext{0xCAFE});
    flight.Record(FlightEventKind::kNote);            // inherits the scope
    flight.Record(FlightEventKind::kNote, 0xD00D);    // explicit id wins
  }
  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[1].trace_id, 0xCAFEu);
  EXPECT_EQ(events[2].trace_id, 0xD00Du);
}

TEST(FlightRecorderTest, DumpJsonIsByteStableForTheSameHistory) {
  auto record_history = [](FlightRecorder* flight) {
    flight->Record(FlightEventKind::kAdmissionAdmit, 0xA1, 0);
    flight->Record(FlightEventKind::kPick, 0xA1, 0, 0.0, "golf ball#1");
    flight->Record(FlightEventKind::kSloAlert, 0xA2, 0, 0.75, "demo_p99");
  };
  FlightRecorder a, b;
  record_history(&a);
  record_history(&b);
  const std::string dump = a.DumpJson("unit-test");
  EXPECT_EQ(dump, b.DumpJson("unit-test"));
  EXPECT_NE(dump.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"pick\""), std::string::npos);
  EXPECT_NE(dump.find("\"trace_id\":\"00000000000000a1\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"detail\":\"demo_p99\""), std::string::npos);
  EXPECT_NE(dump.find("\"total_recorded\":3"), std::string::npos);
}

// The seqlock contract under real contention: writers from many threads, a
// reader snapshotting and dumping concurrently. Run under TSan in CI; the
// assertions here pin that no event is lost or structurally corrupted.
TEST(FlightRecorderTest, ConcurrentWritersAndReadersLoseNothing) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5000;
  FlightRecorder flight(FlightRecorderOptions{1024});
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<FlightEvent> snap = flight.Snapshot();
      for (const FlightEvent& e : snap) {
        // A surfaced event is always fully published: its ticket is in the
        // valid range and its kind decodes to a real name.
        ASSERT_GE(e.ticket, 1u);
        ASSERT_LE(e.ticket, kThreads * kPerThread);
        ASSERT_STRNE(FlightEventKindName(e.kind), "?");
      }
      (void)flight.DumpJson("under-fire");
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      ScopedRequestContext scope(RequestContext{0x1000 + t});
      for (size_t i = 0; i < kPerThread; ++i) {
        flight.Record(FlightEventKind::kPick, 0,
                      static_cast<int32_t>(t), static_cast<double>(i),
                      "replica#0");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(flight.total_recorded(), kThreads * kPerThread);
  const std::vector<FlightEvent> final_snap = flight.Snapshot();
  EXPECT_EQ(final_snap.size(), flight.capacity());
  // Quiescent ring: tickets are the newest `capacity` ones, oldest first.
  for (size_t i = 1; i < final_snap.size(); ++i) {
    EXPECT_EQ(final_snap[i].ticket, final_snap[i - 1].ticket + 1);
  }
  EXPECT_EQ(final_snap.back().ticket, kThreads * kPerThread);
}

// ------------------------------------------------------------ SLO engine --

TEST(SloEngineTest, HistogramQuantileRuleEvaluatesWindowDeltas) {
  Histogram latency;
  SloEngineOptions options;
  options.window_ticks = 8;
  SloEngine engine(options);
  SloRule rule;
  rule.name = "p99";
  rule.kind = SloRule::Kind::kHistogramQuantile;
  rule.threshold = 0.1;
  rule.histogram = &latency;
  rule.quantile = 0.99;
  engine.AddRule(std::move(rule));

  // Window 1: all slow. The quantile estimate is a bucket midpoint, so
  // assert against the threshold, not the exact value.
  for (int i = 0; i < 8; ++i) {
    latency.Record(0.5);
    const auto eval = engine.Tick();
    if (i < 7) {
      EXPECT_FALSE(eval.has_value());
    } else {
      ASSERT_TRUE(eval.has_value());
      EXPECT_FALSE(eval->eager);
      EXPECT_EQ(eval->window_index, 1u);
      ASSERT_EQ(eval->rules.size(), 1u);
      EXPECT_TRUE(eval->rules[0].breached);
      EXPECT_GT(eval->rules[0].value, 0.1);
      EXPECT_EQ(eval->rules[0].samples, 8u);
    }
  }
  EXPECT_TRUE(engine.burning());
  EXPECT_EQ(engine.alerts_total(), 1u);

  // Window 2: all fast. The baseline advanced past the slow samples, so
  // the window delta contains only fast ones — the rule recovers.
  for (int i = 0; i < 8; ++i) {
    latency.Record(0.001);
    engine.Tick();
  }
  EXPECT_FALSE(engine.burning());
  EXPECT_LT(engine.RuleValue("p99"), 0.1);
  EXPECT_EQ(engine.windows_closed(), 2u);
  EXPECT_EQ(engine.alerts_total(), 1u);
}

TEST(SloEngineTest, CounterRatioRuleIsBurnRateStyle) {
  Counter fallbacks, responses;
  SloEngineOptions options;
  options.window_ticks = 4;
  SloEngine engine(options);
  SloRule rule;
  rule.name = "fallback_share";
  rule.kind = SloRule::Kind::kCounterRatio;
  rule.threshold = 0.25;
  rule.numerator = &fallbacks;
  rule.denominator = &responses;
  engine.AddRule(std::move(rule));

  // Window 1: 2 fallbacks / 4 responses = 0.5 > 0.25.
  for (int i = 0; i < 4; ++i) {
    responses.Inc();
    if (i % 2 == 0) fallbacks.Inc();
    engine.Tick();
  }
  EXPECT_TRUE(engine.burning());
  EXPECT_DOUBLE_EQ(engine.RuleValue("fallback_share"), 0.5);

  // Window 2: clean. The window ratio is the delta ratio, not lifetime.
  for (int i = 0; i < 4; ++i) {
    responses.Inc();
    engine.Tick();
  }
  EXPECT_FALSE(engine.burning());
  EXPECT_DOUBLE_EQ(engine.RuleValue("fallback_share"), 0.0);
  EXPECT_EQ(engine.alerts_total(), 1u);
}

TEST(SloEngineTest, GaugeThresholdRuleIsInstantaneous) {
  Gauge drift;
  SloEngineOptions options;
  options.window_ticks = 2;
  SloEngine engine(options);
  SloRule rule;
  rule.name = "drift";
  rule.kind = SloRule::Kind::kGaugeThreshold;
  rule.threshold = 1.0;
  rule.gauge = &drift;
  engine.AddRule(std::move(rule));

  drift.Set(2.5);
  engine.Tick();
  const auto eval = engine.Tick();
  ASSERT_TRUE(eval.has_value());
  EXPECT_TRUE(eval->rules[0].breached);
  EXPECT_DOUBLE_EQ(eval->rules[0].value, 2.5);

  drift.Set(0.5);
  engine.Tick();
  engine.Tick();
  EXPECT_FALSE(engine.burning());
}

TEST(SloEngineTest, MinSamplesSuppressesThinWindows) {
  Counter num, den;
  SloEngineOptions options;
  options.window_ticks = 4;
  SloEngine engine(options);
  SloRule rule;
  rule.name = "ratio";
  rule.kind = SloRule::Kind::kCounterRatio;
  rule.threshold = 0.1;
  rule.min_samples = 10;  // windows only ever see 4 responses
  rule.numerator = &num;
  rule.denominator = &den;
  engine.AddRule(std::move(rule));
  for (int i = 0; i < 4; ++i) {
    num.Inc();
    den.Inc();  // ratio 1.0, far over threshold — but only 4 samples
    engine.Tick();
  }
  EXPECT_FALSE(engine.burning());
  EXPECT_EQ(engine.alerts_total(), 0u);
}

TEST(SloEngineTest, EagerRefreshEvaluatesThePartialWindow) {
  Histogram latency;
  SloEngineOptions options;
  options.window_ticks = 100;
  options.eager_refresh_every = 4;
  SloEngine engine(options);
  SloRule rule;
  rule.name = "p99";
  rule.threshold = 0.1;
  rule.histogram = &latency;
  engine.AddRule(std::move(rule));

  std::optional<SloEvaluation> eval;
  for (int i = 0; i < 4; ++i) {
    latency.Record(0.5);
    eval = engine.Tick();
  }
  // Tick 4 hit the eager cadence: the rule value refreshed mid-window but
  // no window closed and no baseline advanced.
  ASSERT_TRUE(eval.has_value());
  EXPECT_TRUE(eval->eager);
  EXPECT_GT(engine.RuleValue("p99"), 0.1);
  EXPECT_TRUE(engine.burning());
  EXPECT_EQ(engine.windows_closed(), 0u);
}

TEST(SloEngineTest, PublishesSelfMetricsAlertsFlightEventsAndTraceInstants) {
  MetricsRegistry registry;
  FlightRecorder flight;
  TraceRecorder trace;
  Gauge g;
  g.Set(9.0);
  SloEngineOptions options;
  options.window_ticks = 2;
  options.registry = &registry;
  options.flight = &flight;
  options.trace = &trace;
  SloEngine engine(options);
  SloRule rule;
  rule.name = "overload";
  rule.kind = SloRule::Kind::kGaugeThreshold;
  rule.threshold = 1.0;
  rule.gauge = &g;
  engine.AddRule(std::move(rule));
  {
    ScopedRequestContext scope(RequestContext{0xFACade});
    engine.Tick();
    engine.Tick();  // closes window 1, breaching
  }
  EXPECT_EQ(engine.alerts_total(), 1u);

  // Self-metrics landed in the registry under stable names.
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("qpp_slo_windows_total"), std::string::npos);
  EXPECT_NE(text.find("qpp_slo_alerts_total"), std::string::npos);
  EXPECT_NE(text.find("rule=\"overload\""), std::string::npos);

  // One window-close event and one alert event in the flight ring.
  const std::vector<FlightEvent> events = flight.Snapshot();
  size_t windows = 0, alerts = 0;
  for (const FlightEvent& e : events) {
    if (e.kind == FlightEventKind::kSloWindow) ++windows;
    if (e.kind == FlightEventKind::kSloAlert) {
      ++alerts;
      EXPECT_EQ(e.detail, "overload");
      EXPECT_EQ(e.trace_id, 0xFACadeu);  // tagged with the ticking request
    }
  }
  EXPECT_EQ(windows, 1u);
  EXPECT_EQ(alerts, 1u);

  // And one "slo" instant in the trace.
  size_t instants = 0;
  for (const TraceEvent& e : trace.Events()) {
    if (e.phase == 'i' && e.category == "slo") ++instants;
  }
  EXPECT_EQ(instants, 1u);
}

// -------------------------------------------------------- trace event cap --

TEST(TraceInstantTest, TagsTheCurrentTraceIdUnlessGivenOneOrNoneInstalled) {
  TraceRecorder trace;
  trace.Instant("bare", "test");  // no context installed: no tag
  {
    ScopedRequestContext scope(RequestContext{0xBEEF});
    trace.Instant("tagged", "test", {{"detail", "\"x\""}});
    trace.Instant("explicit", "test", {{"trace_id", "\"given\""}});
  }
  const std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 3u);
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.phase, 'i') << e.name;
    EXPECT_EQ(e.category, "test") << e.name;
    EXPECT_EQ(e.pid, TraceRecorder::kServicePid) << e.name;
  }
  EXPECT_TRUE(events[0].args.empty());
  const TraceArgs tagged = {{"detail", "\"x\""},
                            {"trace_id", "\"" + TraceIdHex(0xBEEF) + "\""}};
  EXPECT_EQ(events[1].args, tagged);
  const TraceArgs given = {{"trace_id", "\"given\""}};
  EXPECT_EQ(events[2].args, given);
}

TEST(TraceCapTest, MaxEventsCapDropsAndCounts) {
  TraceRecorderOptions options;
  options.max_events = 4;
  TraceRecorder trace(options);
  for (int i = 0; i < 10; ++i) {
    TraceEvent event;
    event.name = "e";
    event.name += std::to_string(i);
    trace.Add(std::move(event));
  }
  EXPECT_EQ(trace.event_count(), 4u);
  EXPECT_EQ(trace.dropped_count(), 6u);
  // The survivors are the first four (head-kept truncation).
  const std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "e0");
  EXPECT_EQ(events[3].name, "e3");
}

TEST(TraceCapTest, SpansPastTheCapAreDroppedNotCrashed) {
  TraceRecorderOptions options;
  options.max_events = 2;
  TraceRecorder trace(options);
  for (int i = 0; i < 5; ++i) {
    Span span(&trace, "work");
  }
  EXPECT_EQ(trace.event_count(), 2u);
  EXPECT_EQ(trace.dropped_count(), 3u);
  // The export is still a valid document.
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// ------------------------------------------------- Prometheus exposition --

// Pins the exposition format end to end: header comments, help text,
// cumulative buckets, +Inf closure, exemplar syntax, EOF terminator.
// docs/OBSERVABILITY.md quotes this shape; CI's trace-smoke leg greps for
// the same markers in the demo artifact.
TEST(PrometheusTest, ExpositionFormatIsPinned) {
  MetricsRegistry registry;
  registry.SetHelp("qpp_requests_total", "requests by pool");
  registry.GetCounter("qpp_requests_total", {{"pool", "feather"}})->Inc(3);
  registry.GetCounter("qpp_requests_total", {{"pool", "golf"}})->Inc(5);
  registry.GetGauge("qpp_depth")->Set(2.5);
  HistogramOptions hist_options;
  hist_options.exemplars = true;
  Histogram* hist =
      registry.GetHistogram("qpp_latency_seconds", {}, hist_options);
  hist->Record(0.001, 0xABC);
  hist->Record(0.002, 0xDEF);
  hist->Record(50.0, 0x123);

  const std::string text = registry.PrometheusText();

  // Counters: one shared header, one sample per label set, sorted.
  EXPECT_NE(text.find("# HELP qpp_requests_total requests by pool\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qpp_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("qpp_requests_total{pool=\"feather\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("qpp_requests_total{pool=\"golf\"} 5\n"),
            std::string::npos);
  EXPECT_LT(text.find("pool=\"feather\""), text.find("pool=\"golf\""));

  // Gauges.
  EXPECT_NE(text.find("# TYPE qpp_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("qpp_depth 2.5\n"), std::string::npos);

  // Histograms: cumulative buckets ending in +Inf == _count, plus _sum.
  EXPECT_NE(text.find("# TYPE qpp_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("qpp_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("qpp_latency_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("qpp_latency_seconds_sum"), std::string::npos);

  // Cumulative monotonicity across every bucket line.
  uint64_t prev = 0;
  size_t bucket_lines = 0;
  size_t pos = 0;
  const std::string marker = "qpp_latency_seconds_bucket{le=\"";
  while ((pos = text.find(marker, pos)) != std::string::npos) {
    const size_t space = text.find(' ', pos);
    const size_t eol = text.find('\n', space);
    const std::string count_token =
        text.substr(space + 1, eol - space - 1);
    // Exemplar suffix: "<count> # {trace_id=\"...\"} <value>".
    const uint64_t count = std::stoull(count_token);
    EXPECT_GE(count, prev);
    prev = count;
    ++bucket_lines;
    pos = eol;
  }
  EXPECT_GT(bucket_lines, 2u);

  // OpenMetrics exemplars name the recording requests.
  EXPECT_NE(text.find("# {trace_id=\"0000000000000abc\"} 0.001"),
            std::string::npos);
  EXPECT_NE(text.find("trace_id=\"0000000000000123\""), std::string::npos);

  // Terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(PrometheusTest, MetricsWithoutHelpStillGetHeaders) {
  MetricsRegistry registry;
  registry.GetCounter("qpp_orphan_total")->Inc();
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP qpp_orphan_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qpp_orphan_total counter\n"),
            std::string::npos);
}

TEST(PrometheusTest, SameRegistryStateExportsIdenticalBytes) {
  auto build = [](MetricsRegistry* registry) {
    registry->GetCounter("qpp_a_total", {{"k", "v"}})->Inc(7);
    registry->GetGauge("qpp_b")->Set(1.25);
    registry->GetHistogram("qpp_c_seconds")->Record(0.01);
  };
  MetricsRegistry r1, r2;
  build(&r1);
  build(&r2);
  EXPECT_EQ(r1.PrometheusText(), r2.PrometheusText());
}

}  // namespace
}  // namespace qpp::obs

// ------------------------------------------- fabric end-to-end threading --

namespace qpp::fabric {
namespace {

using workload::QueryType;

struct TracedFixture {
  std::vector<ml::TrainingExample> examples =
      fault::PoolExamples(4, 40, 0x0B5E2Eu);
  core::TwoStepPredictor ts = [this] {
    core::PredictorConfig cfg;
    cfg.kcca.solver = ml::KccaSolver::kExact;
    core::TwoStepPredictor t(cfg);
    t.Train(examples, /*min_category_size=*/12);
    return t;
  }();
};

const TracedFixture& F() {
  static const TracedFixture* fixture = new TracedFixture();
  return *fixture;
}

serve::ServiceConfig PlainConfig() {
  serve::ServiceConfig config;
  config.num_workers = 1;
  config.max_batch = 1;
  config.cache_capacity = 0;
  config.fallback_on_anomalous = false;
  return config;
}

TEST(FabricTraceE2eTest, FrontDoorStampsDeterministicSequentialIds) {
  FabricConfig config = MakePerPoolFabricConfig(2, PlainConfig());
  config.trace_seed = 0x5EED;
  Fabric fabric(std::move(config));
  PublishTwoStep(F().ts, &fabric);

  for (uint64_t i = 0; i < 6; ++i) {
    const auto& ex = F().examples[i % 4 * 40 + i];
    serve::ServeRequest request;
    request.features = ex.query_features;
    request.optimizer_cost = 100.0;
    const serve::ServeResponse resp = fabric.Submit(request).get();
    EXPECT_EQ(resp.trace_id, obs::DeriveTraceId(0x5EED, i));
  }
  EXPECT_EQ(fabric.trace_ids_issued(), 6u);
  fabric.Shutdown();
}

TEST(FabricTraceE2eTest, CallerProvidedContextIsPreservedNotRestamped) {
  Fabric fabric(MakePerPoolFabricConfig(2, PlainConfig()));
  PublishTwoStep(F().ts, &fabric);
  serve::ServeRequest request;
  request.features = F().examples[0].query_features;
  request.optimizer_cost = 100.0;
  request.ctx = obs::RequestContext{0x1234};
  const serve::ServeResponse resp = fabric.Submit(request).get();
  EXPECT_EQ(resp.trace_id, 0x1234u);
  EXPECT_EQ(fabric.trace_ids_issued(), 0u);  // nothing was minted
  fabric.Shutdown();
}

// The headline contract: one id, stamped at the front door, findable in
// the response, the flight recorder's decisions, AND the Chrome trace's
// span chain (fabric dispatch instants + serve pipeline + predictor
// internals all auto-tagged via the thread-local scope).
TEST(FabricTraceE2eTest, OneIdThreadsResponseFlightRingAndSpanChain) {
  obs::TraceRecorder trace;
  FabricConfig config = MakePerPoolFabricConfig(2, PlainConfig());
  config.trace_seed = 0xE2E;
  config.trace = &trace;
  Fabric fabric(std::move(config));
  PublishTwoStep(F().ts, &fabric);

  serve::ServeRequest request;
  request.features = F().examples[2 * 40 + 1].query_features;  // bowling
  request.optimizer_cost = 100.0;
  const serve::ServeResponse resp = fabric.Submit(request).get();
  const uint64_t id = obs::DeriveTraceId(0xE2E, 0);
  EXPECT_EQ(resp.trace_id, id);
  fabric.Shutdown();

  // Flight ring: the pick decision carries the id.
  bool pick_tagged = false;
  for (const obs::FlightEvent& e : fabric.flight()->Snapshot()) {
    if (e.kind == obs::FlightEventKind::kPick && e.trace_id == id) {
      pick_tagged = true;
      EXPECT_EQ(e.detail.rfind("bowling ball#", 0), 0u);
    }
  }
  EXPECT_TRUE(pick_tagged);

  // Chrome trace: the span chain is tagged deep into the predictor. The
  // serve pipeline spans (worker thread) and the predictor's internal
  // stages must both carry the id — that is what makes "search the trace
  // for the id" resolve the whole request.
  const std::string hex = obs::TraceIdHex(id);
  size_t tagged_spans = 0;
  bool predictor_stage_tagged = false;
  for (const obs::TraceEvent& e : trace.Events()) {
    bool tagged = false;
    for (const auto& [key, value] : e.args) {
      if (key == "trace_id" && value.find(hex) != std::string::npos) {
        tagged = true;
      }
    }
    if (!tagged) continue;
    ++tagged_spans;
    if (e.category == "predict") predictor_stage_tagged = true;
  }
  EXPECT_GE(tagged_spans, 3u);
  EXPECT_TRUE(predictor_stage_tagged);
  EXPECT_GE(obs::CountOccurrences(trace.ToJson(), hex), 3u);
}

// ------------------------------------------------ flight demo replayability --

TEST(ObsFlightDemoTest, SameSeedRunsAreByteIdenticalWherePromised) {
  fault::ChaosOptions options;
  options.seed = 99;
  options.requests = 1024;
  const fault::ObsFlightDemoResult a = fault::RunObsFlightDemo(options);
  const fault::ObsFlightDemoResult b = fault::RunObsFlightDemo(options);

  ASSERT_TRUE(a.scenario.ok())
      << "violations: " << a.scenario.violations.front();
  ASSERT_TRUE(b.scenario.ok());
  EXPECT_EQ(a.scenario.report, b.scenario.report);
  EXPECT_EQ(a.flight_dump, b.flight_dump);
  EXPECT_EQ(a.prometheus_text, b.prometheus_text);
  EXPECT_EQ(a.breach_trace_id, b.breach_trace_id);
  EXPECT_NE(a.breach_trace_id, 0u);

  // The breach id resolves everywhere observability promises: in the
  // flight dump captured at the breach and in the Chrome trace's chain.
  const std::string hex = obs::TraceIdHex(a.breach_trace_id);
  EXPECT_NE(a.flight_dump.find(hex), std::string::npos);
  EXPECT_GE(obs::CountOccurrences(a.trace_json, hex), 3u);
  EXPECT_NE(a.flight_dump.find("\"kind\":\"slo_alert\""),
            std::string::npos);
  EXPECT_NE(a.prometheus_text.find("# TYPE qpp_demo_latency_seconds "
                                   "histogram"),
            std::string::npos);
}

TEST(ObsFlightDemoTest, TooFewRequestsIsAViolationNotACrash) {
  fault::ChaosOptions options;
  options.requests = 64;
  const fault::ObsFlightDemoResult r = fault::RunObsFlightDemo(options);
  EXPECT_FALSE(r.scenario.ok());
}

}  // namespace
}  // namespace qpp::fabric
