// Unit tests: rate estimation (Eq. 5, median-period window estimate,
// residue floor, FFT-peak baseline) and metrics (Eq. 8).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/units.hpp"
#include "core/breath_extractor.hpp"
#include "core/metrics.hpp"
#include "core/rate_estimator.hpp"

namespace tagbreathe::core {
namespace {

using common::kTwoPi;
using signal::TimedSample;

std::vector<TimedSample> sine_signal(double freq, double fs,
                                     double duration) {
  std::vector<TimedSample> out;
  for (double t = 0.0; t < duration; t += 1.0 / fs)
    out.push_back({t, std::sin(kTwoPi * freq * t)});
  return out;
}

TEST(RateEstimator, ExactOnCleanSine) {
  // 0.2 Hz = 12 bpm.
  const auto breath = sine_signal(0.2, 20.0, 60.0);
  ZeroCrossingRateEstimator estimator;
  const auto est = estimator.estimate(breath);
  EXPECT_NEAR(est.rate_bpm, 12.0, 0.1);
  EXPECT_TRUE(est.reliable);
  // ~2 crossings per cycle * 12 cycles.
  EXPECT_NEAR(static_cast<double>(est.crossings.size()), 24.0, 2.0);
}

TEST(RateEstimator, Eq5InstantaneousValues) {
  // Crossings every 1.5 s -> breaths of 3 s -> 20 bpm; Eq. 5 with M = 7:
  // (7-1)/(2*(6*1.5)) Hz = 1/3 Hz = 20 bpm.
  const auto breath = sine_signal(1.0 / 3.0, 50.0, 40.0);
  ZeroCrossingRateEstimator estimator;
  const auto est = estimator.estimate(breath);
  ASSERT_FALSE(est.instantaneous.empty());
  for (const auto& p : est.instantaneous)
    EXPECT_NEAR(p.rate_bpm, 20.0, 0.5);
}

TEST(RateEstimator, MedianPeriodSurvivesMissingCrossings) {
  // Build crossing-like signal then blank out two breaths in the middle:
  // a plain count-over-span estimate would be biased; the median period
  // must not be.
  auto breath = sine_signal(0.2, 20.0, 60.0);
  for (auto& s : breath) {
    if (s.time_s > 20.0 && s.time_s < 30.0) s.value = 0.001;  // flatline
  }
  ZeroCrossingRateEstimator estimator;
  const auto est = estimator.estimate(breath);
  EXPECT_NEAR(est.rate_bpm, 12.0, 0.6);
}

TEST(RateEstimator, UnreliableWhenTooFewCrossings) {
  const auto breath = sine_signal(0.2, 20.0, 8.0);  // ~1.6 cycles
  ZeroCrossingRateEstimator estimator;
  const auto est = estimator.estimate(breath);
  EXPECT_FALSE(est.reliable);
}

TEST(RateEstimator, UnreliableOutsidePlausibleBand) {
  const auto breath = sine_signal(1.2, 30.0, 30.0);  // 72 bpm
  ZeroCrossingRateEstimator estimator;
  const auto est = estimator.estimate(breath);
  EXPECT_FALSE(est.reliable);
}

TEST(RateEstimator, ConfigValidation) {
  RateEstimatorConfig bad;
  bad.buffered_crossings = 1;
  EXPECT_THROW(ZeroCrossingRateEstimator{bad}, std::invalid_argument);
}

// --- residue floor -------------------------------------------------------

// A 30 s track at 20 Hz on the realtime grid (601 samples), run through
// the default extractor and estimated from the resulting BreathSignal.
RateEstimate estimate_track(double (*value)(double t)) {
  std::vector<TimedSample> track;
  for (int i = 0; i <= 600; ++i) {
    const double t = i / 20.0;
    track.push_back({t, value(t)});
  }
  const BreathSignal breath = BreathExtractor().extract(track, 20.0);
  return ZeroCrossingRateEstimator().estimate(breath);
}

TEST(RateEstimatorResidue, ConstantTrackGivesNoRate) {
  const RateEstimate est = estimate_track([](double) { return 0.37; });
  EXPECT_TRUE(est.crossings.empty());
  EXPECT_EQ(est.rate_bpm, 0.0);
  EXPECT_FALSE(est.reliable);
}

TEST(RateEstimatorResidue, NearConstantTrackGivesNoRate) {
  // A ramp plus a breathing tone at 1e-13 of the track's level: the
  // detrended band signal is below the floor, so it is residue.
  const RateEstimate est = estimate_track([](double t) {
    return 0.37 + 0.01 * t + 1e-13 * std::sin(kTwoPi * 0.25 * t);
  });
  EXPECT_TRUE(est.crossings.empty());
  EXPECT_EQ(est.rate_bpm, 0.0);
  EXPECT_FALSE(est.reliable);
}

TEST(RateEstimatorResidue, LowAmplitudeBreathingStillGivesARate) {
  // 1 um of chest motion at 15 bpm, with no offset to dwarf it.
  const RateEstimate est = estimate_track(
      [](double t) { return 1e-6 * std::sin(kTwoPi * 0.25 * t); });
  EXPECT_NEAR(est.rate_bpm, 15.0, 0.5);
  EXPECT_TRUE(est.reliable);
}

TEST(RateEstimatorResidue, UnknownScaleDisablesTheFloor) {
  const auto breath = sine_signal(0.2, 20.0, 60.0);
  ZeroCrossingRateEstimator estimator;
  EXPECT_NEAR(estimator.estimate(breath, 0.0).rate_bpm, 12.0, 0.1);
  // The same signal read against a scale 1e12 times its peak is residue.
  EXPECT_EQ(estimator.estimate(breath, 1e12).rate_bpm, 0.0);
}

TEST(FftPeak, RawBinQuantisesTo1OverWindow) {
  // 25 s window: bins every 2.4 bpm — a 13 bpm signal snaps to a bin.
  const auto track = sine_signal(13.0 / 60.0, 20.0, 25.0);
  FftPeakConfig cfg;
  cfg.raw_bin = true;
  const double est = fft_peak_rate_bpm(track, 20.0, cfg);
  // Bins sit at k * 60/25 = 2.4k bpm: 12.0 or 14.4.
  const double nearest_bin = std::round(est / 2.4) * 2.4;
  EXPECT_NEAR(est, nearest_bin, 1e-6);
  EXPECT_NEAR(est, 13.0, 2.4);  // within one bin of truth
}

TEST(FftPeak, InterpolationBeatsRawBin) {
  const auto track = sine_signal(13.0 / 60.0, 20.0, 25.0);
  FftPeakConfig raw;
  raw.raw_bin = true;
  FftPeakConfig interp;
  interp.raw_bin = false;
  const double err_raw = std::abs(fft_peak_rate_bpm(track, 20.0, raw) - 13.0);
  const double err_interp =
      std::abs(fft_peak_rate_bpm(track, 20.0, interp) - 13.0);
  EXPECT_LT(err_interp, err_raw + 1e-9);
  EXPECT_LT(err_interp, 0.5);
}

TEST(FftPeak, ShortTrackReturnsZero) {
  std::vector<TimedSample> tiny(4, TimedSample{});
  EXPECT_EQ(fft_peak_rate_bpm(tiny, 20.0, FftPeakConfig{}), 0.0);
}

// --- metrics ------------------------------------------------------------

TEST(Metrics, Eq8Accuracy) {
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(9.0, 10.0), 0.9);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(11.0, 10.0), 0.9);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(25.0, 10.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(5.0, 0.0), 0.0);
}

TEST(Metrics, ErrorBpm) {
  EXPECT_DOUBLE_EQ(rate_error_bpm(12.5, 10.0), 2.5);
  EXPECT_DOUBLE_EQ(rate_error_bpm(8.0, 10.0), 2.0);
}

// The documented edge contract of Eq. 8 (src/core/metrics.hpp):
// true_bpm <= 0 scores exact-match only, NaN propagates, and every
// finite result lies in [0, 1].
TEST(Metrics, Eq8ZeroAndNegativeTruth) {
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(0.0, -4.0), 1.0);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(5.0, -4.0), 0.0);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(-5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(-5.0, -5.0), 0.0);  // not 1: != 0
}

TEST(Metrics, Eq8NegativeEstimateClampsToZero) {
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(-10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(-0.1, 10.0), 0.0);
}

TEST(Metrics, Eq8NanPropagates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(breathing_rate_accuracy(nan, 10.0)));
  EXPECT_TRUE(std::isnan(breathing_rate_accuracy(10.0, nan)));
  EXPECT_TRUE(std::isnan(breathing_rate_accuracy(nan, nan)));
  EXPECT_TRUE(std::isnan(rate_error_bpm(nan, 10.0)));
  EXPECT_TRUE(std::isnan(rate_error_bpm(10.0, nan)));
}

TEST(Metrics, Eq8FiniteResultsStayInUnitInterval) {
  const double inf = std::numeric_limits<double>::infinity();
  // A sweep of finite extremes never escapes [0, 1].
  for (double est : {-1e12, -1.0, 0.0, 1e-9, 10.0, 1e12}) {
    for (double truth : {1e-9, 1.0, 10.0, 1e12}) {
      const double acc = breathing_rate_accuracy(est, truth);
      EXPECT_GE(acc, 0.0) << est << " vs " << truth;
      EXPECT_LE(acc, 1.0) << est << " vs " << truth;
    }
  }
  // Infinite estimate against finite truth clamps rather than escaping.
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(inf, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(breathing_rate_accuracy(-inf, 10.0), 0.0);
}

TEST(Metrics, MeanAccuracy) {
  std::vector<double> est{10.0, 9.0, 1.0};
  std::vector<double> truth{10.0, 10.0, 10.0};
  const std::vector<std::uint8_t> first_two{1, 1, 0};
  EXPECT_NEAR(mean_accuracy_masked(est, truth, first_two), 0.95, 1e-12);
  EXPECT_DOUBLE_EQ(max_rate_error_masked(est, truth, first_two), 1.0);
  EXPECT_THROW(mean_accuracy_masked(est, truth, std::vector<std::uint8_t>{1}),
               std::invalid_argument);
  const std::vector<std::uint8_t> none{0, 0, 0};
  EXPECT_EQ(mean_accuracy_masked(est, truth, none), 0.0);
  EXPECT_EQ(mean_accuracy_masked({}, {}, {}), 0.0);
}

}  // namespace
}  // namespace tagbreathe::core
