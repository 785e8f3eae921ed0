// Unit + property tests: windows, FIR design/filtering, and the
// time-domain conditioning filters.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "signal/filters.hpp"
#include "signal/fir.hpp"
#include "signal/window.hpp"

namespace tagbreathe::signal {
namespace {

using common::kTwoPi;

// --- windows -------------------------------------------------------------

class WindowTest : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTest, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-6);
    EXPECT_LE(w[i], 1.0 + 1e-12);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << "i=" << i;
  }
  EXPECT_GT(window_gain(w), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowTest,
                         ::testing::Values(WindowType::Rectangular,
                                           WindowType::Hann,
                                           WindowType::Hamming,
                                           WindowType::Blackman,
                                           WindowType::BlackmanHarris));

TEST(Window, HannEndsAtZeroPeaksAtOne) {
  const auto w = make_window(WindowType::Hann, 33);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[16], 1.0, 1e-12);
}

TEST(Window, ApplyWindowMultiplies) {
  std::vector<double> data{2.0, 2.0, 2.0};
  apply_window(data, std::vector<double>{0.5, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(data[0], 1.0);
  EXPECT_DOUBLE_EQ(data[1], 2.0);
  EXPECT_DOUBLE_EQ(data[2], 0.0);
  std::vector<double> wrong{1.0};
  EXPECT_THROW(apply_window(data, wrong), std::invalid_argument);
}

// --- FIR design ------------------------------------------------------------

TEST(FirDesign, LowpassDcGainIsUnity) {
  const auto taps = design_lowpass(0.67, 20.0, 101);
  double dc = 0.0;
  for (double t : taps) dc += t;
  EXPECT_NEAR(dc, 1.0, 1e-12);
}

TEST(FirDesign, LowpassIsSymmetricLinearPhase) {
  const auto taps = design_lowpass(1.0, 20.0, 51);
  for (std::size_t i = 0; i < taps.size(); ++i)
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-12);
}

TEST(FirDesign, LowpassFrequencyResponseShape) {
  const auto taps = design_lowpass(0.67, 20.0, 201);
  EXPECT_NEAR(frequency_response_mag(taps, 0.0, 20.0), 1.0, 1e-9);
  EXPECT_GT(frequency_response_mag(taps, 0.3, 20.0), 0.95);
  EXPECT_NEAR(frequency_response_mag(taps, 0.67, 20.0), 0.5, 0.1);
  EXPECT_LT(frequency_response_mag(taps, 2.0, 20.0), 0.01);
}

TEST(FirDesign, BandpassSelectsBand) {
  const auto taps = design_bandpass(0.1, 0.67, 20.0, 301);
  EXPECT_LT(frequency_response_mag(taps, 0.01, 20.0), 0.1);
  EXPECT_GT(frequency_response_mag(taps, 0.3, 20.0), 0.9);
  EXPECT_LT(frequency_response_mag(taps, 2.0, 20.0), 0.02);
}

TEST(FirDesign, RejectsBadArguments) {
  EXPECT_THROW(design_lowpass(0.0, 20.0, 11), std::invalid_argument);
  EXPECT_THROW(design_lowpass(11.0, 20.0, 11), std::invalid_argument);
  EXPECT_THROW(design_lowpass(1.0, 20.0, 10), std::invalid_argument);  // even
  EXPECT_THROW(design_lowpass(1.0, 20.0, 1), std::invalid_argument);
  EXPECT_THROW(design_bandpass(0.5, 0.4, 20.0, 11), std::invalid_argument);
}

TEST(FirDesign, SuggestNumTapsOddAndScales) {
  const std::size_t wide = suggest_num_taps(1.0, 20.0);
  const std::size_t narrow = suggest_num_taps(0.1, 20.0);
  EXPECT_EQ(wide % 2, 1u);
  EXPECT_EQ(narrow % 2, 1u);
  EXPECT_GT(narrow, wide);
  EXPECT_THROW(suggest_num_taps(0.0, 20.0), std::invalid_argument);
}

// --- FIR application ---------------------------------------------------------

TEST(FirFilter, FilterSamePreservesLengthAndPassesTone) {
  constexpr double fs = 20.0;
  const auto taps = design_lowpass(1.0, fs, 101);
  std::vector<double> x(400);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(kTwoPi * 0.2 * static_cast<double>(i) / fs);
  const auto y = filter_same(x, taps);
  ASSERT_EQ(y.size(), x.size());
  // Interior should match the input closely (0.2 Hz is in the pass band,
  // delay already compensated by filter_same).
  for (std::size_t i = 100; i < 300; ++i) EXPECT_NEAR(y[i], x[i], 0.02);
}

TEST(FirFilter, FilterSameRejectsStopbandTone) {
  constexpr double fs = 20.0;
  const auto taps = design_lowpass(0.67, fs, 151);
  std::vector<double> x(600);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(kTwoPi * 4.0 * static_cast<double>(i) / fs);
  const auto y = filter_same(x, taps);
  for (std::size_t i = 150; i < 450; ++i) EXPECT_NEAR(y[i], 0.0, 0.01);
}

TEST(FirFilter, FiltFiltIsZeroPhase) {
  constexpr double fs = 20.0;
  const auto taps = design_lowpass(1.0, fs, 101);
  std::vector<double> x(800);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(kTwoPi * 0.25 * static_cast<double>(i) / fs);
  const auto y = filtfilt(x, taps);
  // Zero crossing positions of y must match x (no phase shift).
  for (std::size_t i = 200; i < 600; ++i) {
    if (x[i - 1] < 0.0 && x[i] >= 0.0) {
      EXPECT_LT(y[i - 2] , 0.05);
      EXPECT_GT(y[i + 1], -0.05);
    }
  }
  // And the interior amplitude should be close to 1 (passband^2).
  double peak = 0.0;
  for (std::size_t i = 200; i < 600; ++i) peak = std::max(peak, y[i]);
  EXPECT_NEAR(peak, 1.0, 0.05);
}

// --- conditioning filters ----------------------------------------------------

TEST(Filters, MovingAverageSmoothsConstant) {
  std::vector<double> x(20, 3.0);
  const auto y = moving_average(x, 5);
  for (double v : y) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(Filters, MovingAverageEdges) {
  std::vector<double> x{1.0, 2.0, 3.0};
  const auto y = moving_average(x, 3);
  EXPECT_NEAR(y[0], 1.5, 1e-12);  // mean of first two
  EXPECT_NEAR(y[1], 2.0, 1e-12);
  EXPECT_NEAR(y[2], 2.5, 1e-12);
  EXPECT_THROW(moving_average(x, 2), std::invalid_argument);
}

TEST(Filters, MovingMedianKillsSpike) {
  std::vector<double> x(21, 1.0);
  x[10] = 100.0;
  const auto y = moving_median(x, 5);
  EXPECT_NEAR(y[10], 1.0, 1e-12);
}

TEST(Filters, DetrendRemovesLine) {
  std::vector<double> x;
  for (int i = 0; i < 100; ++i) x.push_back(0.7 * i + 3.0);
  detrend_linear(x);
  for (double v : x) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Filters, DetrendPreservesOscillationShape) {
  std::vector<double> x;
  for (int i = 0; i < 200; ++i)
    x.push_back(std::sin(kTwoPi * i / 40.0) + 0.05 * i);
  detrend_linear(x);
  // The oscillation should survive with roughly unit amplitude.
  double peak = 0.0;
  for (double v : x) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, 1.0, 0.15);
}

TEST(Filters, HampelReplacesOutliers) {
  common::Rng rng(4);
  std::vector<double> x(101);
  for (auto& v : x) v = rng.normal(0.0, 0.1);
  x[50] = 25.0;
  x[80] = -17.0;
  const std::size_t replaced = hampel_filter(x, 9, 3.0);
  EXPECT_GE(replaced, 2u);
  EXPECT_LT(std::abs(x[50]), 1.0);
  EXPECT_LT(std::abs(x[80]), 1.0);
}

TEST(Filters, HampelLeavesCleanDataAlone) {
  std::vector<double> x;
  for (int i = 0; i < 50; ++i) x.push_back(std::sin(0.3 * i));
  const auto original = x;
  hampel_filter(x, 7, 4.0);
  // A smooth sine has no 4-sigma outliers.
  EXPECT_EQ(x, original);
}

TEST(Filters, ExponentialSmooth) {
  const auto y = exponential_smooth(std::vector<double>{1.0, 1.0, 1.0}, 0.5);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
  EXPECT_THROW(exponential_smooth(std::vector<double>{1.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(exponential_smooth(std::vector<double>{1.0}, 1.5),
               std::invalid_argument);
}

TEST(Filters, DiffAndCumsumAreInverse) {
  std::vector<double> x{3.0, 1.0, 4.0, 1.0, 5.0};
  const auto d = diff(x);
  ASSERT_EQ(d.size(), 4u);
  const auto c = cumulative_sum(d);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], x[i + 1] - x[0], 1e-12);
}

}  // namespace
}  // namespace tagbreathe::signal
