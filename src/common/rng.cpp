#include "common/rng.hpp"

#include <cmath>

#include "common/units.hpp"

namespace tagbreathe::common {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// SplitMix64: the seeding generator recommended for xoshiro.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Xoshiro256PlusPlus::Xoshiro256PlusPlus(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Xoshiro256PlusPlus::result_type Xoshiro256PlusPlus::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1) with full mantissa entropy.
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) noexcept {
  // Rejection-free modulo bias is negligible for the small ranges used in
  // slot selection, but do unbiased rejection anyway: ranges are tiny so
  // rejections are vanishingly rare.
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t limit = (Xoshiro256PlusPlus::max() / span) * span;
  std::uint64_t x;
  do {
    x = engine_();
  } while (x >= limit);
  return lo + static_cast<int>(x % span);
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1, u2;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(kTwoPi * u2);
  has_spare_ = true;
  return mag * std::cos(kTwoPi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::wrapped_normal(double sigma) noexcept {
  return wrap_phase_pi(normal(0.0, sigma));
}

double Rng::exponential(double rate) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

}  // namespace tagbreathe::common
