// Deterministic random number generation.
//
// Every stochastic component of the simulator (phase noise, MAC slot
// choices, body sway, packet loss) draws from an explicitly seeded Rng so
// that every experiment in bench/ is reproducible from its seed. The
// engine is xoshiro256++ (Blackman & Vigna), which satisfies
// UniformRandomBitGenerator and is much faster than mt19937_64 while
// passing BigCrush.
#pragma once

#include <cstdint>
#include <limits>

namespace tagbreathe::common {

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator.
class Xoshiro256PlusPlus {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a 64-bit seed via SplitMix64, as
  /// recommended by the xoshiro authors (avoids all-zero states and
  /// correlated low-entropy seeds).
  explicit Xoshiro256PlusPlus(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

 private:
  std::uint64_t s_[4];
};

/// Convenience wrapper bundling the engine with the distributions the
/// simulator needs. Not thread-safe by design: each simulated entity owns
/// its own seeded Rng.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) noexcept : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform() noexcept;

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Wrapped normal on (-π, π]: a zero-mean Gaussian of the given sigma
  /// wrapped onto the circle. Models COTS reader phase-report noise.
  double wrapped_normal(double sigma) noexcept;

  /// Exponential with the given rate λ (mean 1/λ).
  double exponential(double rate) noexcept;

  bool bernoulli(double p) noexcept;

  Xoshiro256PlusPlus& engine() noexcept { return engine_; }

 private:
  Xoshiro256PlusPlus engine_;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace tagbreathe::common
