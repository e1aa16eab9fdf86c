#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace qpp::obs {

uint64_t HistogramSnapshot::count() const {
  uint64_t total = underflow + overflow;
  for (const uint64_t b : buckets) total += b;
  return total;
}

namespace {

// Locates the bucket holding the nearest-rank sample for quantile q:
// -1 = underflow, buckets.size() = overflow, otherwise the bucket index.
// Returns false when the snapshot is empty.
bool LocateQuantileBucket(const HistogramSnapshot& s, double q,
                          ptrdiff_t* bucket) {
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t total = s.count();
  if (total == 0) return false;
  const uint64_t rank = std::max<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))), 1);
  if (rank <= s.underflow) {
    *bucket = -1;
    return true;
  }
  uint64_t seen = s.underflow;
  for (size_t i = 0; i < s.buckets.size(); ++i) {
    seen += s.buckets[i];
    if (seen >= rank) {
      *bucket = static_cast<ptrdiff_t>(i);
      return true;
    }
  }
  *bucket = static_cast<ptrdiff_t>(s.buckets.size());  // overflow
  return true;
}

}  // namespace

double HistogramSnapshot::Quantile(double q) const {
  ptrdiff_t bucket = 0;
  if (!LocateQuantileBucket(*this, q, &bucket)) return 0.0;
  if (bucket < 0) return min;
  if (bucket >= static_cast<ptrdiff_t>(buckets.size())) return max;
  const double exp = options.min_exponent +
                     (static_cast<double>(bucket) + 0.5) /
                         static_cast<double>(options.buckets_per_decade);
  return std::pow(10.0, exp);
}

HistogramSnapshot::QuantileBracket HistogramSnapshot::QuantileBounds(
    double q) const {
  ptrdiff_t bucket = 0;
  if (!LocateQuantileBucket(*this, q, &bucket)) return {};
  if (bucket < 0) return {min, min};
  if (bucket >= static_cast<ptrdiff_t>(buckets.size())) return {max, max};
  const double denom = static_cast<double>(options.buckets_per_decade);
  return {std::pow(10.0, options.min_exponent +
                             static_cast<double>(bucket) / denom),
          std::pow(10.0, options.min_exponent +
                             (static_cast<double>(bucket) + 1.0) / denom)};
}

void HistogramSnapshot::Subtract(const HistogramSnapshot& earlier) {
  QPP_CHECK_MSG(options == earlier.options,
                "cannot subtract histograms with different bucket layouts");
  // Each slot is monotonic on the source histogram, but two relaxed
  // snapshots can be skewed a few events under concurrent recording;
  // saturate instead of wrapping.
  const auto sat_sub = [](uint64_t a, uint64_t b) {
    return a >= b ? a - b : 0;
  };
  for (size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = sat_sub(buckets[i], earlier.buckets[i]);
  }
  underflow = sat_sub(underflow, earlier.underflow);
  overflow = sat_sub(overflow, earlier.overflow);
  sum = std::max(0.0, sum - earlier.sum);
  // Keep only exemplars whose bucket gained samples in this window.
  std::vector<HistogramExemplar> kept;
  for (const HistogramExemplar& e : exemplars) {
    if (e.bucket < buckets.size() && buckets[e.bucket] > 0) kept.push_back(e);
  }
  exemplars = std::move(kept);
}

Histogram::Histogram(HistogramOptions options)
    : options_(options),
      buckets_(options.num_buckets()),
      min_bits_(std::bit_cast<uint64_t>(
          std::numeric_limits<double>::infinity())),
      max_bits_(std::bit_cast<uint64_t>(
          -std::numeric_limits<double>::infinity())),
      exemplars_(options.exemplars ? options.num_buckets() : 0) {
  QPP_CHECK(options.max_exponent > options.min_exponent &&
            options.buckets_per_decade >= 1);
}

void Histogram::UpdateExtremes(double value) {
  uint64_t cur = min_bits_.load(std::memory_order_relaxed);
  while (value < std::bit_cast<double>(cur) &&
         !min_bits_.compare_exchange_weak(
             cur, std::bit_cast<uint64_t>(value), std::memory_order_relaxed)) {
  }
  cur = max_bits_.load(std::memory_order_relaxed);
  while (value > std::bit_cast<double>(cur) &&
         !max_bits_.compare_exchange_weak(
             cur, std::bit_cast<uint64_t>(value), std::memory_order_relaxed)) {
  }
}

void Histogram::Record(double value, uint64_t trace_id) {
  UpdateExtremes(value);
  if (value == value) {  // NaN must not poison the running sum
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  if (!(value >= std::pow(10.0, options_.min_exponent))) {
    // <= 0, NaN, and sub-range values are all "below the first bucket".
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const double idx_f =
      (std::log10(value) - options_.min_exponent) *
      static_cast<double>(options_.buckets_per_decade);
  if (idx_f >= static_cast<double>(buckets_.size())) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t idx = static_cast<size_t>(idx_f);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  if (!exemplars_.empty() && trace_id != 0) {
    exemplars_[idx].trace_id.store(trace_id, std::memory_order_relaxed);
    exemplars_[idx].value_bits.store(std::bit_cast<uint64_t>(value),
                                     std::memory_order_relaxed);
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.options = options_;
  s.buckets.resize(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.underflow = underflow_.load(std::memory_order_relaxed);
  s.overflow = overflow_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < exemplars_.size(); ++i) {
    const uint64_t trace_id =
        exemplars_[i].trace_id.load(std::memory_order_relaxed);
    if (trace_id == 0) continue;
    s.exemplars.push_back(
        {i,
         std::bit_cast<double>(
             exemplars_[i].value_bits.load(std::memory_order_relaxed)),
         trace_id});
  }
  const double min_v =
      std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
  const double max_v =
      std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  const bool has_samples = s.count() > 0;
  s.min = has_samples && std::isfinite(min_v) ? min_v : 0.0;
  s.max = has_samples && std::isfinite(max_v) ? max_v : 0.0;
  return s;
}

}  // namespace qpp::obs
