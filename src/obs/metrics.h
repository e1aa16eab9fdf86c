// Metric primitives: counters, gauges, and log-bucketed histograms with
// lock-free hot-path recording.
//
// Everything on the record path is a relaxed std::atomic operation — the
// values are monotonic tallies or last-write-wins gauges, not
// synchronization, and a snapshot taken under traffic may be a few events
// stale. Instances are created and owned by obs::MetricsRegistry (see
// registry.h); the returned pointers are stable for the registry's
// lifetime, so call sites resolve a metric once and record through the
// pointer forever.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

namespace qpp::obs {

/// Monotonic event tally. Inc() is wait-free.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (drift EWMAs, queue depths, shares).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout of a log-spaced histogram: `buckets_per_decade` buckets
/// per power of ten across [10^min_exponent, 10^max_exponent). Values
/// outside the range land in explicit underflow/overflow buckets instead
/// of being silently clamped into the edge buckets.
struct HistogramOptions {
  int min_exponent = -7;  ///< 100 ns (the serving latency default)
  int max_exponent = 2;   ///< 100 s
  size_t buckets_per_decade = 8;
  /// Keep one exemplar (last recorded value + trace id) per bucket, so a
  /// tail bucket in an exposition links straight to the Chrome trace of a
  /// request that landed there. Off by default: two extra relaxed stores
  /// per Record when on, zero cost when off.
  bool exemplars = false;

  size_t num_buckets() const {
    return buckets_per_decade * static_cast<size_t>(max_exponent -
                                                    min_exponent);
  }
  bool operator==(const HistogramOptions&) const = default;
};

/// One sampled (value, trace id) pair pinned to a bucket; trace_id 0 means
/// the sample carried no request context.
struct HistogramExemplar {
  size_t bucket = 0;  ///< index into HistogramSnapshot::buckets
  double value = 0.0;
  uint64_t trace_id = 0;
};

/// One consistent-enough read of a Histogram, safe to keep, merge, and
/// query after the source histogram moved on (or was destroyed).
struct HistogramSnapshot {
  HistogramOptions options;
  std::vector<uint64_t> buckets;
  uint64_t underflow = 0;  ///< samples below 10^min_exponent (incl. <= 0)
  uint64_t overflow = 0;   ///< samples >= 10^max_exponent
  /// Exact extreme values observed (not bucket estimates); 0 when empty.
  double min = 0.0;
  double max = 0.0;
  /// Running sum of every recorded value (Prometheus `_sum`; NaN excluded).
  double sum = 0.0;
  /// Per-bucket exemplars (only when options.exemplars), sorted by bucket;
  /// buckets that never saw a sample have no entry.
  std::vector<HistogramExemplar> exemplars;

  uint64_t count() const;

  /// Value at quantile q in [0, 1]; 0 when empty.
  ///
  /// Bucket-boundary semantics (nearest-rank): the estimate targets the
  /// rank-max(ceil(q * count), 1) sample in sorted order, i.e. the smallest
  /// recorded value v such that at least that many samples are <= v. The
  /// bucket containing that rank is found by a cumulative walk
  /// (underflow, then buckets low to high, then overflow); in-range ranks
  /// resolve to the geometric midpoint of their bucket (<= ~15% relative
  /// error at 8 buckets/decade — see QuantileBounds for the exact
  /// bracket), ranks landing in the underflow/overflow buckets resolve to
  /// the exact observed min/max. A sample recorded exactly on a bucket
  /// boundary 10^(min_exponent + i/buckets_per_decade) counts toward the
  /// bucket ABOVE the boundary (Record truncates the log-index).
  double Quantile(double q) const;

  /// Exact bracket for the nearest-rank sample Quantile(q) estimates: the
  /// true sample value lies in [lower, upper]. For in-range ranks these
  /// are the containing bucket's boundaries (upper exclusive in Record's
  /// terms, but the true sample can equal `upper` only by landing in the
  /// next bucket, so the closed interval is always safe); for ranks in
  /// the underflow/overflow buckets both bounds collapse to the exact
  /// observed min/max. Empty histogram => {0, 0}.
  struct QuantileBracket {
    double lower = 0.0;
    double upper = 0.0;
  };
  QuantileBracket QuantileBounds(double q) const;

  /// Rewinds this snapshot by an `earlier` snapshot of the SAME histogram,
  /// leaving the tumbling-window delta the SLO engine evaluates (counts
  /// and sum subtract; layouts must match). min/max describe the full
  /// lifetime, not the window, and are kept as-is; exemplars are filtered
  /// to buckets the window actually touched (the "last sample" exemplar of
  /// a touched bucket is by construction a window sample under sequential
  /// recording).
  void Subtract(const HistogramSnapshot& earlier);
};

/// Log-spaced histogram. Record() is wait-free; Snapshot() walks the
/// buckets with relaxed loads.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value) { Record(value, 0); }
  /// Records `value` and, when exemplars are enabled and trace_id != 0,
  /// remembers (value, trace_id) as the bucket's exemplar (last write
  /// wins). Still wait-free.
  void Record(double value, uint64_t trace_id);

  HistogramSnapshot Snapshot() const;
  const HistogramOptions& options() const { return options_; }

  // Conveniences over a fresh snapshot.
  uint64_t count() const { return Snapshot().count(); }
  double Quantile(double q) const { return Snapshot().Quantile(q); }

 private:
  void UpdateExtremes(double value);

  // Exemplar slot: last (trace id, value bits) recorded into the bucket.
  // Two independent relaxed atomics — a torn pair under contention is two
  // real samples' fields mixed, acceptable for a debugging pointer.
  struct ExemplarSlot {
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> value_bits{0};
  };

  HistogramOptions options_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> underflow_{0};
  std::atomic<uint64_t> overflow_{0};
  std::atomic<double> sum_{0.0};
  // Observed extremes as CAS-updated double bit patterns (+inf / -inf
  // sentinels until the first sample).
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
  std::vector<ExemplarSlot> exemplars_;  ///< empty unless options.exemplars
};

}  // namespace qpp::obs
