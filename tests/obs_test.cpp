// Tests for the observability subsystem: metric primitives (histogram edge
// buckets, exact extremes, snapshot merge, concurrent recording), the
// labeled metrics registry and its Prometheus exposition, the Chrome
// trace_event recorder (valid JSON, monotonic timestamps, span nesting,
// per-thread tids, zero-cost-when-disabled) and the prediction-drift
// monitor. Ends with an end-to-end traced serve run asserting the pipeline
// span taxonomy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "engine/metrics.h"
#include "obs/drift_monitor.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/prediction_service.h"
#include "workload/pools.h"

namespace qpp::obs {
namespace {

// ------------------------------------------------- minimal JSON checker --
// Recursive-descent validator, enough to assert that exported documents
// are well-formed JSON without pulling in a parser dependency.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

TEST(JsonUtilTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_TRUE(IsValidJson(JsonString(std::string("\x01\x1f tab\t"))));
}

TEST(JsonUtilTest, NumbersAreFiniteTokens) {
  EXPECT_EQ(JsonNumber(std::uint64_t{42}), "42");
  EXPECT_TRUE(IsValidJson(JsonNumber(1.5e-7)));
  // Non-finite doubles must not produce invalid JSON tokens.
  EXPECT_TRUE(IsValidJson(JsonNumber(std::nan(""))));
  EXPECT_TRUE(IsValidJson(JsonNumber(1.0 / 0.0)));
}

TEST(JsonCheckerTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("[1,2"));
  EXPECT_FALSE(IsValidJson("\"unterminated"));
  EXPECT_TRUE(IsValidJson("{\"a\":[1,2,{\"b\":null}],\"c\":-1.5e3}"));
}

// -------------------------------------------------------------- metrics --

TEST(HistogramTest, EdgeValuesLandInExplicitBuckets) {
  Histogram h;  // [1e-7, 1e2)
  h.Record(0.0);      // below range (and non-positive): underflow
  h.Record(-3.0);     // underflow
  h.Record(1e-9);     // underflow
  h.Record(1e3);      // overflow
  h.Record(0.5);      // in range
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.underflow, 3u);
  EXPECT_EQ(s.overflow, 1u);
  EXPECT_EQ(s.count(), 5u);  // edge samples are counted, not dropped
}

TEST(HistogramTest, TracksExactMinAndMax) {
  Histogram h;
  h.Record(3e-3);
  h.Record(7.25);
  h.Record(1e5);  // overflow still updates the observed max
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.min, 3e-3);
  EXPECT_DOUBLE_EQ(s.max, 1e5);
}

TEST(HistogramTest, QuantileOfEdgeRanksIsExactObservedExtreme) {
  // The original LatencyHistogram clamped these into the first/last bucket
  // and returned a bucket midpoint; now the exact value comes back.
  Histogram h;
  h.Record(0.0);
  h.Record(1e9);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1e9);
}

TEST(HistogramTest, InRangeQuantileIsWithinBucketError) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(0.010);
  // 8 buckets/decade => relative bucket width ~33%; the geometric midpoint
  // is within ~16% of any value in the bucket.
  EXPECT_NEAR(h.Quantile(0.5), 0.010, 0.010 * 0.2);
}

TEST(HistogramTest, QuantilesBracketTheBruteForceSortedOracle) {
  // Oracle check for the documented nearest-rank semantics: for each q,
  // sort the raw samples, take rank max(ceil(q * n), 1), and require that
  // exact sample to fall inside the closed [lower, upper] bracket the
  // snapshot reports — and the midpoint estimate to sit inside the same
  // bracket. A heavy-tailed deterministic mix (microseconds to tens of
  // seconds, plus duplicates on a bucket boundary) exercises in-range,
  // repeated-value, and cross-decade ranks.
  Histogram h;
  std::vector<double> samples;
  Rng rng(0x0b5e55ed);
  for (int i = 0; i < 2000; ++i) {
    // log-uniform across [1e-5, 10): decade = U[-5, 1)
    samples.push_back(std::pow(10.0, rng.Uniform(-5.0, 1.0)));
  }
  for (int i = 0; i < 200; ++i) samples.push_back(1e-3);  // boundary pileup
  for (int i = 0; i < 20; ++i) samples.push_back(30.0 + i);  // slow tail
  for (double v : samples) h.Record(v);
  std::sort(samples.begin(), samples.end());

  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count(), samples.size());
  for (const double q : {0.50, 0.95, 0.99}) {
    const size_t rank = std::max<size_t>(
        size_t(std::ceil(q * double(samples.size()))), 1);
    const double oracle = samples[rank - 1];
    const auto bracket = snap.QuantileBounds(q);
    EXPECT_LE(bracket.lower, oracle) << "q=" << q;
    EXPECT_GE(bracket.upper, oracle) << "q=" << q;
    const double estimate = snap.Quantile(q);
    EXPECT_LE(bracket.lower, estimate) << "q=" << q;
    EXPECT_GE(bracket.upper, estimate) << "q=" << q;
    // 8 buckets/decade: bucket width 10^(1/8), so the geometric-midpoint
    // estimate is within ~16% of the true nearest-rank sample.
    EXPECT_NEAR(estimate, oracle, oracle * 0.16) << "q=" << q;
  }
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  // Run under TSan in CI: exercises the relaxed-atomic record path and the
  // CAS min/max loop from many threads at once.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(0xABCD + t);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(rng.Uniform(1e-6, 10.0));
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.underflow, 0u);
  EXPECT_EQ(s.overflow, 0u);
  EXPECT_GE(s.min, 1e-6);
  EXPECT_LE(s.max, 10.0);
}

TEST(CounterGaugeTest, ConcurrentIncrementsSum) {
  Counter c;
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.Inc();
      g.Set(1.25);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
  EXPECT_DOUBLE_EQ(g.value(), 1.25);
}

// ------------------------------------------------------------- registry --

TEST(RegistryTest, SameNameAndLabelsShareOneInstance) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("hits", {{"pool", "a"}});
  Counter* b = reg.GetCounter("hits", {{"pool", "a"}});
  Counter* other = reg.GetCounter("hits", {{"pool", "b"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Inc(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(RegistryTest, LabelOrderDoesNotDistinguishMetrics) {
  MetricsRegistry reg;
  Gauge* a = reg.GetGauge("g", {{"x", "1"}, {"y", "2"}});
  Gauge* b = reg.GetGauge("g", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.num_metrics(), 1u);
}

TEST(RegistryTest, HistogramRelayoutIsAnError) {
  MetricsRegistry reg;
  reg.GetHistogram("lat");
  HistogramOptions other;
  other.buckets_per_decade = 4;
  EXPECT_THROW(reg.GetHistogram("lat", {}, other), CheckFailure);
}

TEST(RegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 200; ++i) {
        reg.GetCounter("shared")->Inc();
        reg.GetHistogram("hist")->Record(0.001 * (i + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared")->value(), 1600u);
  EXPECT_EQ(reg.num_metrics(), 2u);
}

// ---------------------------------------------------------------- trace --

TEST(TraceTest, NullRecorderSpanIsInert) {
  // The disabled path must be callable without a recorder anywhere.
  Span span(nullptr, "nothing");
  span.AddArg("k", 1.0);
  span.AddArg("k2", std::uint64_t{2});
  span.AddArg("k3", "v");
  // Destructor must not crash; nothing to observe.
}

TEST(TraceTest, ExportsValidChromeTraceJson) {
  TraceRecorder rec;
  {
    Span span(&rec, "outer");
    span.AddArg("batch", std::uint64_t{3});
    span.AddArg("note", "hello \"world\"");
    Span inner(&rec, "inner", "predict");
  }
  const std::string json = rec.ToJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Both track groups are named via metadata events.
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(TraceTest, TimestampsAreMonotonicAndDurationsNonNegative) {
  TraceRecorder rec;
  for (int i = 0; i < 50; ++i) {
    Span span(&rec, "tick");
  }
  uint64_t prev_ts = 0;
  for (const TraceEvent& e : rec.Events()) {
    if (e.phase != 'X') continue;
    EXPECT_GE(e.ts_us, prev_ts);  // appended in close order, time moves on
    prev_ts = e.ts_us;
  }
}

TEST(TraceTest, NestedSpansAreContainedWithinTheirParent) {
  TraceRecorder rec;
  {
    Span outer(&rec, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      Span inner(&rec, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<TraceEvent> events = rec.Events();
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);  // same thread, same track
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  EXPECT_GT(outer->dur_us, inner->dur_us);
}

TEST(TraceTest, ThreadsGetDistinctStableTids) {
  TraceRecorder rec;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      Span a(&rec, "work");
      Span b(&rec, "work");
    });
  }
  for (auto& t : threads) t.join();
  std::vector<uint32_t> tids;
  for (const TraceEvent& e : rec.Events()) {
    if (e.phase == 'X') tids.push_back(e.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST(TraceTest, AsyncIdsAndTrackIdsAreUnique) {
  TraceRecorder rec;
  EXPECT_NE(rec.NextAsyncId(), rec.NextAsyncId());
  const uint32_t g1 = rec.AllocateTrackIds(4);
  const uint32_t g2 = rec.AllocateTrackIds(4);
  EXPECT_GE(g2, g1 + 4);  // groups never overlap
}

// -------------------------------------------------------- drift monitor --

engine::QueryMetrics MetricsWithElapsed(double elapsed, double scale = 1.0) {
  engine::QueryMetrics m;
  m.elapsed_seconds = elapsed;
  m.records_accessed = 1000.0 * scale;
  m.records_used = 100.0 * scale;
  m.disk_ios = 10.0 * scale;
  m.message_count = 5.0 * scale;
  m.message_bytes = 50000.0 * scale;
  return m;
}

TEST(DriftMonitorTest, EwmaFollowsTheDefiningRecurrence) {
  DriftMonitor drift;
  const auto actual = MetricsWithElapsed(10.0);
  // First observation: relative error 0.2 on elapsed; EWMA = first sample.
  drift.Observe(DriftMonitor::Source::kModel, MetricsWithElapsed(12.0),
                actual);
  EXPECT_NEAR(drift.MetricEwma(0), 0.2, 1e-12);
  // Second: error 0.4; EWMA = alpha*0.4 + (1-alpha)*0.2.
  drift.Observe(DriftMonitor::Source::kModel, MetricsWithElapsed(6.0),
                actual);
  EXPECT_NEAR(drift.MetricEwma(0), kDriftAlpha * 0.4 + (1 - kDriftAlpha) * 0.2,
              1e-12);
  EXPECT_EQ(drift.model_observations(), 2u);
}

TEST(DriftMonitorTest, PerfectPredictionsScoreZero) {
  DriftMonitor drift;
  const auto m = MetricsWithElapsed(3.0);
  drift.Observe(DriftMonitor::Source::kModel, m, m);
  for (size_t i = 0; i < engine::QueryMetrics::kNumMetrics; ++i) {
    EXPECT_DOUBLE_EQ(drift.MetricEwma(i), 0.0);
  }
  EXPECT_FALSE(drift.drifted());
}

TEST(DriftMonitorTest, ObservationsAttributeToTheActualElapsedPool) {
  DriftMonitor drift;
  const double slow = 1000.0;  // well past the feather boundary
  const auto actual = MetricsWithElapsed(slow);
  const workload::QueryType pool = workload::ClassifyElapsed(slow);
  EXPECT_NE(pool, workload::QueryType::kFeather);
  drift.Observe(DriftMonitor::Source::kModel, MetricsWithElapsed(slow * 1.5),
                actual);
  EXPECT_NEAR(drift.PoolMetricEwma(pool, 0), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(drift.PoolMetricEwma(workload::QueryType::kFeather, 0),
                   0.0);
}

TEST(DriftMonitorTest, FallbackPathOnlyScoresElapsedAndCountsShare) {
  DriftMonitor drift;
  const auto actual = MetricsWithElapsed(10.0);
  // Fallback predicts elapsed only; its other metrics are zero and must
  // not poison the model-path EWMAs.
  engine::QueryMetrics fb;
  fb.elapsed_seconds = 15.0;
  drift.Observe(DriftMonitor::Source::kFallback, fb, actual);
  EXPECT_NEAR(drift.FallbackElapsedEwma(), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(drift.MetricEwma(0), 0.0);
  drift.Observe(DriftMonitor::Source::kModel, actual, actual);
  EXPECT_EQ(drift.fallback_observations(), 1u);
  EXPECT_EQ(drift.model_observations(), 1u);
  EXPECT_DOUBLE_EQ(drift.fallback_share(), 0.5);
}

TEST(DriftMonitorTest, EmptyWindowReadsAsAllZeros) {
  // A fresh monitor (the lifecycle champion scorer right after a
  // promotion swap) must read as risk-free, not as NaN or garbage.
  DriftMonitor drift;
  EXPECT_EQ(drift.model_observations(), 0u);
  EXPECT_EQ(drift.fallback_observations(), 0u);
  EXPECT_DOUBLE_EQ(drift.fallback_share(), 0.0);
  EXPECT_DOUBLE_EQ(drift.FallbackElapsedEwma(), 0.0);
  EXPECT_FALSE(drift.drifted());
  for (size_t m = 0; m < engine::QueryMetrics::kNumMetrics; ++m) {
    EXPECT_DOUBLE_EQ(drift.MetricEwma(m), 0.0);
    for (int p = 0; p < 4; ++p) {
      EXPECT_DOUBLE_EQ(
          drift.PoolMetricEwma(static_cast<workload::QueryType>(p), m), 0.0);
    }
  }
  EXPECT_FALSE(drift.ToString().empty());
}

TEST(DriftMonitorTest, AllFallbackWindowNeverReportsModelDrift) {
  // A window where every response fell back (circuit open, no model):
  // share pegs at 1.0, the fallback elapsed EWMA tracks the (terrible)
  // errors, but the model-path EWMAs stay zero and drifted() stays false
  // no matter how bad the fallbacks are — drift means MODEL drift.
  DriftMonitor drift;
  const auto actual = MetricsWithElapsed(10.0);
  const auto bad = MetricsWithElapsed(50.0);  // relative error 4.0
  const uint64_t n = 2 * kDriftWarmupObservations;  // past the warm-up
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_FALSE(drift.Observe(DriftMonitor::Source::kFallback, bad, actual));
  }
  EXPECT_EQ(drift.model_observations(), 0u);
  EXPECT_EQ(drift.fallback_observations(), n);
  EXPECT_DOUBLE_EQ(drift.fallback_share(), 1.0);
  EXPECT_NEAR(drift.FallbackElapsedEwma(), 4.0, 1e-12);
  EXPECT_FALSE(drift.drifted());
  for (size_t m = 0; m < engine::QueryMetrics::kNumMetrics; ++m) {
    EXPECT_DOUBLE_EQ(drift.MetricEwma(m), 0.0);
  }
}

TEST(DriftMonitorTest, SingleSampleEwmaIsTheSampleRegardlessOfAlpha) {
  // The first observation SETS the EWMA (n == 0 case of the recurrence);
  // alpha must play no part, or the small kDriftAlpha would make a fresh
  // lifecycle window nearly blind to its first window of errors.
  DriftMonitor drift;
  drift.Observe(DriftMonitor::Source::kModel, MetricsWithElapsed(13.0),
                MetricsWithElapsed(10.0));
  EXPECT_NEAR(drift.MetricEwma(0), 0.3, 1e-12);
  // The second observation must then follow the recurrence from that
  // seeded value, not from zero.
  drift.Observe(DriftMonitor::Source::kModel, MetricsWithElapsed(10.0),
                MetricsWithElapsed(10.0));
  EXPECT_NEAR(drift.MetricEwma(0), (1.0 - kDriftAlpha) * 0.3, 1e-12);
}

TEST(DriftMonitorTest, SignalFiresAfterWarmupAndRespectsRefireInterval) {
  // Sustained drift: the first signal waits for both the warm-up and one
  // refire interval, then every kDriftRefireInterval-th observation
  // re-fires, never the ones in between.
  const auto actual = MetricsWithElapsed(10.0);
  const auto bad = MetricsWithElapsed(30.0);  // relative error 2.0
  ASSERT_GT(2.0, kDriftThreshold);
  MetricsRegistry reg;
  DriftMonitor drift(&reg);
  std::vector<size_t> fired_at;
  for (size_t i = 0; i < 4 * kDriftRefireInterval; ++i) {
    if (drift.Observe(DriftMonitor::Source::kModel, bad, actual)) {
      fired_at.push_back(i);
    }
    // Not drifted before the warm-up, however large the errors.
    EXPECT_EQ(drift.drifted(), i + 1 >= kDriftWarmupObservations) << i;
  }
  const size_t first =
      std::max<size_t>(kDriftWarmupObservations, kDriftRefireInterval) - 1;
  std::vector<size_t> want;
  for (size_t i = first; i < 4 * kDriftRefireInterval;
       i += kDriftRefireInterval) {
    want.push_back(i);
  }
  EXPECT_EQ(fired_at, want);
  EXPECT_EQ(reg.GetCounter("qpp_drift_signals_total")->value(), want.size());
}

TEST(DriftMonitorTest, ExportsGaugesIntoTheRegistry) {
  MetricsRegistry reg;
  DriftMonitor drift(&reg);
  const auto actual = MetricsWithElapsed(10.0);
  drift.Observe(DriftMonitor::Source::kModel, MetricsWithElapsed(12.0),
                actual);
  Gauge* g = reg.GetGauge("qpp_drift_relerr_ewma",
                          {{"metric", "elapsed_time"}});
  EXPECT_NEAR(g->value(), 0.2, 1e-12);
  EXPECT_EQ(reg.GetCounter("qpp_drift_observations_total",
                           {{"source", "model"}})
                ->value(),
            1u);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("qpp_drift_fallback_share"), std::string::npos);
}

TEST(DriftMonitorTest, ToStringReportsEwmaAndFallbackShare) {
  DriftMonitor drift;
  const auto actual = MetricsWithElapsed(10.0);
  drift.Observe(DriftMonitor::Source::kModel, MetricsWithElapsed(12.0),
                actual);
  engine::QueryMetrics fb;
  fb.elapsed_seconds = 20.0;
  drift.Observe(DriftMonitor::Source::kFallback, fb, actual);
  const std::string s = drift.ToString();
  EXPECT_NE(s.find("elapsed_time"), std::string::npos);
  EXPECT_NE(s.find("fallback vs KCCA"), std::string::npos);
  EXPECT_NE(s.find("model 50.0% (n=1), fallback 50.0% (n=1)"),
            std::string::npos);
}

// ------------------------------------------- traced serve, end to end --

std::vector<ml::TrainingExample> MakeServeExamples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ml::TrainingExample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ml::TrainingExample ex;
    const double a = rng.Uniform(1.0, 10.0);
    const double b = rng.Uniform(1.0, 10.0);
    ex.query_features = {a, b, a * b, rng.Uniform(0.0, 1.0)};
    ex.metrics.elapsed_seconds = 0.5 * a * b;
    ex.metrics.records_accessed = 1000.0 * a;
    ex.metrics.records_used = 100.0 * b;
    ex.metrics.message_count = 10.0 * b;
    ex.metrics.message_bytes = 1000.0 * a;
    out.push_back(std::move(ex));
  }
  return out;
}

TEST(TracedServeTest, PipelineEmitsNestedSpanTaxonomy) {
  core::Predictor pred;
  pred.Train(MakeServeExamples(40, 11));
  serve::ModelRegistry registry;
  registry.Publish(pred);

  TraceRecorder trace;
  serve::ServiceConfig config;
  config.num_workers = 1;
  config.cache_capacity = 8;
  config.trace = &trace;
  serve::PredictionService service(&registry, config);

  const auto probes = MakeServeExamples(6, 77);
  std::vector<std::future<serve::ServeResponse>> futures;
  for (const auto& p : probes) {
    futures.push_back(service.Submit({p.query_features, 100.0}));
  }
  // Resubmit the first probe: with the batch already served, this one is a
  // cache hit and still traces the cache_lookup stage.
  for (auto& f : futures) f.get();
  futures.clear();
  futures.push_back(service.Submit({probes[0].query_features, 100.0}));
  futures[0].get();
  service.Shutdown();

  const std::vector<TraceEvent> events = trace.Events();
  auto count = [&events](const std::string& name, char phase) {
    size_t n = 0;
    for (const TraceEvent& e : events) {
      if (e.name == name && e.phase == phase) ++n;
    }
    return n;
  };
  // One queue_wait begin/end pair per request.
  EXPECT_EQ(count("queue_wait", 'b'), 7u);
  EXPECT_EQ(count("queue_wait", 'e'), 7u);
  EXPECT_GE(count("batch", 'X'), 1u);
  EXPECT_GE(count("cache_lookup", 'X'), 1u);
  EXPECT_GE(count("predict", 'X'), 1u);
  EXPECT_GE(count("respond", 'X'), 1u);
  // Predictor-internal stages rode along on the same recorder.
  EXPECT_GE(count("kcca_project", 'X'), 1u);
  EXPECT_GE(count("knn_projection_space", 'X'), 1u);
  EXPECT_GE(count("knn_feature_space", 'X'), 1u);

  // Nesting: every predict span contains at least one knn span, and lives
  // inside a batch span on the same worker thread.
  auto find_all = [&events](const std::string& name) {
    std::vector<const TraceEvent*> out;
    for (const TraceEvent& e : events) {
      if (e.name == name && e.phase == 'X') out.push_back(&e);
    }
    return out;
  };
  auto contains = [](const TraceEvent* outer, const TraceEvent* inner) {
    return outer->tid == inner->tid && outer->ts_us <= inner->ts_us &&
           outer->ts_us + outer->dur_us >= inner->ts_us + inner->dur_us;
  };
  for (const TraceEvent* predict : find_all("predict")) {
    bool in_batch = false;
    for (const TraceEvent* batch : find_all("batch")) {
      in_batch = in_batch || contains(batch, predict);
    }
    EXPECT_TRUE(in_batch);
    bool has_knn = false;
    for (const TraceEvent* knn : find_all("knn_projection_space")) {
      has_knn = has_knn || contains(predict, knn);
    }
    EXPECT_TRUE(has_knn);
  }

  EXPECT_TRUE(IsValidJson(trace.ToJson()));

  // The service's registry carries the serve counters the stats print from.
  const std::string text = std::as_const(service).metrics().PrometheusText();
  EXPECT_NE(text.find("qpp_serve_requests_total 7"), std::string::npos);
  EXPECT_NE(text.find("qpp_serve_cache_hits_total 1"), std::string::npos);
}

TEST(TracedServeTest, DisabledTracingRecordsNothing) {
  core::Predictor pred;
  pred.Train(MakeServeExamples(40, 11));
  serve::ModelRegistry registry;
  registry.Publish(pred);
  serve::PredictionService service(&registry, {});  // config.trace == nullptr
  const auto probes = MakeServeExamples(3, 5);
  std::vector<std::future<serve::ServeResponse>> futures;
  for (const auto& p : probes) {
    futures.push_back(service.Submit({p.query_features, 100.0}));
  }
  for (auto& f : futures) {
    EXPECT_FALSE(f.get().degraded());
  }
  service.Shutdown();
  EXPECT_EQ(service.stats().requests, 3u);
}

}  // namespace
}  // namespace qpp::obs
