#pragma once
// Deterministic pseudo-random number generation.
//
// Every stochastic component in the simulator derives its stream from a
// single user seed via SplitMix64, then runs xoshiro256** locally. This
// keeps figures reproducible bit-for-bit regardless of thread scheduling:
// each (workload, scheme) cell gets an independent deterministic stream.

#include <array>
#include <cmath>

#include "tw/common/assert.hpp"
#include "tw/common/types.hpp"

namespace tw {

/// SplitMix64: used for seeding / stream splitting (Steele et al.).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(u64 seed) : state_(seed) {}

  constexpr u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality 64-bit PRNG.
class Rng {
 public:
  using result_type = u64;

  /// Seed the full 256-bit state from one 64-bit seed through SplitMix64.
  explicit Rng(u64 seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  /// Derive an independent child stream (for per-component RNGs).
  Rng split() { return Rng(next()); }

  /// Same state, so the same stream from here on.
  bool operator==(const Rng&) const = default;

  static constexpr u64 min() { return 0; }
  static constexpr u64 max() { return ~u64{0}; }
  u64 operator()() { return next(); }

  u64 next() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  u64 below(u64 bound) {
    TW_EXPECTS(bound > 0);
    // Simple modulo-debiased loop; bound is tiny in all our uses.
    const u64 threshold = (~bound + 1) % bound;  // 2^64 mod bound
    u64 r;
    do {
      r = next();
    } while (r < threshold);
    return r % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  u64 range(u64 lo, u64 hi) {
    TW_EXPECTS(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Geometric-ish positive integer with mean `mean` (>= 1).
  u64 geometric(double mean) {
    TW_EXPECTS(mean >= 1.0);
    const double p = 1.0 / mean;
    double u = uniform();
    if (u <= 0.0) u = 1e-18;
    const double v = std::ceil(std::log(u) / std::log(1.0 - p));
    return v < 1.0 ? 1 : static_cast<u64>(v);
  }

  /// Poisson sample (Knuth for small lambda, normal approx for large).
  u64 poisson(double lambda);

  /// Standard normal sample (Box–Muller; one value per call).
  double gaussian() {
    double u1 = uniform();
    if (u1 <= 0.0) u1 = 1e-18;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<u64, 4> state_{};
};

/// Poisson draws at one fixed mean, draw-for-draw identical to
/// Rng::poisson(lambda): exp(-lambda) is computed once here rather than
/// once per draw, which matters to callers drawing at a fixed mean in a
/// hot loop.
class PoissonSampler {
 public:
  explicit PoissonSampler(double lambda)
      : lambda_(lambda), limit_(lambda < 30.0 ? std::exp(-lambda) : 0.0) {
    TW_EXPECTS(lambda >= 0.0);
  }

  u64 operator()(Rng& rng) const {
    if (lambda_ <= 0.0) return 0;
    if (lambda_ < 30.0) {
      u64 k = 0;
      double p = 1.0;
      do {
        ++k;
        p *= rng.uniform();
      } while (p > limit_);
      return k - 1;
    }
    const double g = rng.gaussian() * std::sqrt(lambda_) + lambda_;
    return g < 0.0 ? 0 : static_cast<u64>(g + 0.5);
  }

 private:
  double lambda_;
  double limit_;  ///< exp(-lambda), Knuth's stopping product (lambda < 30)
};

inline u64 Rng::poisson(double lambda) {
  return PoissonSampler(lambda)(*this);
}

}  // namespace tw
