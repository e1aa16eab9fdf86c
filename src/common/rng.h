// Deterministic pseudo-random number generation for the whole library.
//
// Every stochastic component (workload generation, selectivity assignment,
// simulator noise) draws from a qpp::Rng seeded explicitly, so every
// experiment in the paper reproduction is bit-for-bit repeatable.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace qpp {

/// xoshiro256** PRNG with splitmix64 seeding.
///
/// Not cryptographic; chosen for speed, quality, and a trivially portable
/// implementation (no libc dependence, identical streams on all platforms).
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (no cached spare; stateless per call
  /// pair, costs two uniforms per normal).
  double Gaussian();

  /// Gaussian with given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)). Useful for multiplicative error models.
  double LogNormal(double mu, double sigma);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<size_t> Permutation(size_t n);

 private:
  uint64_t s_[4];
};

/// 64-bit FNV-1a hash of a string; used for stable label-derived seeds.
/// Passing a previous hash as `h` continues its stream:
/// HashString64(b, HashString64(a)) == HashString64(a + b).
uint64_t HashString64(std::string_view s, uint64_t h = 0xCBF29CE484222325ull);

/// splitmix64 step, exposed for hashing small integer tuples into seeds.
uint64_t SplitMix64(uint64_t x);

}  // namespace qpp
