// Unit tests: interpolation/resampling and zero-crossing detection.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "signal/interpolate.hpp"
#include "signal/zero_crossing.hpp"

namespace tagbreathe::signal {
namespace {

using common::kTwoPi;

// --- interpolation ----------------------------------------------------------

TEST(Interpolate, LinearBetweenPoints) {
  // A grid of t = -1, -0.5, ..., 4 over a series spanning [0, 3].
  std::vector<TimedSample> s{{0.0, 0.0}, {1.0, 10.0}, {3.0, 30.0}};
  const auto u = resample_uniform(s, 2.0, -1.0, 4.0);
  ASSERT_EQ(u.size(), 11u);
  EXPECT_DOUBLE_EQ(u[3].value, 5.0);    // t = 0.5
  EXPECT_DOUBLE_EQ(u[6].value, 20.0);   // t = 2
  EXPECT_DOUBLE_EQ(u[0].value, 0.0);    // clamp left
  EXPECT_DOUBLE_EQ(u[10].value, 30.0);  // clamp right
}

TEST(Resample, UniformGridCoversSpan) {
  std::vector<TimedSample> s;
  for (int i = 0; i <= 10; ++i)
    s.push_back({0.3 * i, static_cast<double>(i)});
  const auto u = resample_uniform(s, 10.0);
  ASSERT_FALSE(u.empty());
  EXPECT_DOUBLE_EQ(u.front().time_s, 0.0);
  EXPECT_NEAR(u.back().time_s, 3.0, 0.101);
  for (std::size_t i = 1; i < u.size(); ++i)
    EXPECT_NEAR(u[i].time_s - u[i - 1].time_s, 0.1, 1e-12);
}

TEST(Resample, ReconstructsLinearSignalExactly) {
  std::vector<TimedSample> s;
  common::Rng rng(1);
  double t = 0.0;
  while (t < 10.0) {
    s.push_back({t, 2.0 * t + 1.0});
    t += rng.uniform(0.01, 0.2);
  }
  const auto u = resample_uniform(s, 20.0);
  for (const auto& p : u) EXPECT_NEAR(p.value, 2.0 * p.time_s + 1.0, 1e-9);
}

TEST(Resample, HoldsAcrossLongGaps) {
  std::vector<TimedSample> s{{0.0, 0.0}, {1.0, 1.0}, {5.0, 100.0}};
  // With gap handling: values in (1, 5) hold at 1.0 instead of ramping.
  const auto held = resample_uniform(s, 10.0, /*max_gap_s=*/2.0);
  for (const auto& p : held) {
    if (p.time_s > 1.05 && p.time_s < 4.95) {
      EXPECT_DOUBLE_EQ(p.value, 1.0);
    }
  }
  // Without gap handling the midpoint ramps.
  const auto ramp = resample_uniform(s, 10.0, /*max_gap_s=*/0.0);
  bool saw_ramp = false;
  for (const auto& p : ramp)
    if (p.time_s > 2.9 && p.time_s < 3.1 && p.value > 20.0) saw_ramp = true;
  EXPECT_TRUE(saw_ramp);
}

TEST(Resample, ErrorsAndEmpty) {
  std::vector<TimedSample> s{{0.0, 1.0}};
  EXPECT_THROW(resample_uniform(s, 0.0), std::invalid_argument);
  EXPECT_TRUE(resample_uniform({}, 10.0).empty());
}

// --- zero crossings ------------------------------------------------------------

/// `values` as a series sampled at `rate_hz` from t = 0.
std::vector<TimedSample> uniform_series(const std::vector<double>& values,
                                        double rate_hz) {
  std::vector<TimedSample> series(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    series[i] = TimedSample{static_cast<double>(i) / rate_hz, values[i]};
  return series;
}

TEST(ZeroCrossing, CountsSineCrossings) {
  // 4 full cycles starting at zero: interior crossings at samples
  // 50, 100, ..., 350 -> 7 (the initial zero and the wrap at 400 are not
  // crossings of the sampled series).
  std::vector<double> x(400);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(kTwoPi * 4.0 * static_cast<double>(i) / 400.0);
  const auto crossings = detect_zero_crossings(uniform_series(x, 100.0));
  EXPECT_EQ(crossings.size(), 7u);
  // Directions alternate.
  for (std::size_t i = 1; i < crossings.size(); ++i)
    EXPECT_NE(crossings[i].direction, crossings[i - 1].direction);
}

TEST(ZeroCrossing, InterpolatedTimesAreAccurate) {
  // sin(2*pi*0.5*t) crosses zero (falling) at t=1, rising at t=2...
  std::vector<TimedSample> s;
  for (int i = 0; i <= 400; ++i) {
    const double t = i * 0.01;
    s.push_back({t, std::sin(kTwoPi * 0.5 * t)});
  }
  const auto crossings = detect_zero_crossings(s);
  ASSERT_GE(crossings.size(), 3u);
  EXPECT_NEAR(crossings[0].time_s, 1.0, 0.005);
  EXPECT_EQ(crossings[0].direction, CrossingDirection::Falling);
  EXPECT_NEAR(crossings[1].time_s, 2.0, 0.005);
  EXPECT_EQ(crossings[1].direction, CrossingDirection::Rising);
}

TEST(ZeroCrossing, HysteresisRejectsChatter) {
  // Small noise oscillation around zero plus one genuine crossing pair.
  std::vector<double> x;
  for (int i = 0; i < 50; ++i) x.push_back((i % 2) ? 0.05 : -0.05);
  for (int i = 0; i < 50; ++i) x.push_back(1.0);
  for (int i = 0; i < 50; ++i) x.push_back(-1.0);
  const auto series = uniform_series(x, 10.0);
  const auto noisy = detect_zero_crossings(series, /*hysteresis=*/0.0);
  const auto clean = detect_zero_crossings(series, /*hysteresis=*/0.3);
  EXPECT_GT(noisy.size(), 10u);
  EXPECT_EQ(clean.size(), 1u);  // only the genuine 1.0 -> -1.0 crossing
}

TEST(ZeroCrossing, EmptyAndShortInputs) {
  EXPECT_TRUE(detect_zero_crossings(uniform_series({}, 10.0)).empty());
  EXPECT_TRUE(detect_zero_crossings(uniform_series({1.0}, 10.0)).empty());
}

}  // namespace
}  // namespace tagbreathe::signal
