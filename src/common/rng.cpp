#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace qpp {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t HashString64(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  // splitmix64 seeding, as recommended by the xoshiro authors.
  uint64_t z = seed;
  for (auto& lane : s_) {
    z += 0x9E3779B97F4A7C15ull;
    uint64_t t = z;
    t = (t ^ (t >> 30)) * 0xBF58476D1CE4E5B9ull;
    t = (t ^ (t >> 27)) * 0x94D049BB133111EBull;
    lane = t ^ (t >> 31);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  QPP_CHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  QPP_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % span);
}

double Rng::Gaussian() {
  // Box-Muller; guard against log(0).
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Gaussian(mu, sigma));
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = n; i > 1; --i) {
    const size_t j =
        static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace qpp
