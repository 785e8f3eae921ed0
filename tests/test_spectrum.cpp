// Unit + property tests: spectral analysis (periodogram, peak searches,
// ACF fundamental, the FFT band filter on its full and band paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "signal/spectrum.hpp"

namespace tagbreathe::signal {
namespace {

using common::kTwoPi;

std::vector<double> sine(double freq_hz, double fs, std::size_t n,
                         double amplitude = 1.0, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amplitude *
           std::sin(kTwoPi * freq_hz * static_cast<double>(i) / fs + phase);
  return x;
}

void add_noise(std::vector<double>& x, double sigma, std::uint64_t seed) {
  common::Rng rng(seed);
  for (double& v : x) v += rng.normal(0.0, sigma);
}

double acf_fundamental(std::span<const double> x, double fs, double f_lo,
                       double f_hi) {
  FftWorkspace ws;
  return autocorrelation_fundamental(x, fs, f_lo, f_hi, ws);
}

// --- periodogram -------------------------------------------------------------

TEST(Periodogram, PeakAtToneFrequency) {
  const auto x = sine(0.25, 20.0, 500);
  const auto bins = periodogram(x, 20.0);
  std::size_t best = 0;
  for (std::size_t k = 1; k < bins.size(); ++k)
    if (bins[k].power > bins[best].power) best = k;
  EXPECT_NEAR(bins[best].frequency_hz, 0.25, 0.05);
}

TEST(Periodogram, AmplitudeCalibration) {
  // Coherent-gain normalisation: a unit sine exactly on a bin puts
  // A^2/2 = 0.5 in the centre bin; the Hann window leaks A^2/8 into each
  // neighbour (W(+-1) = sum(w)/2), so the 3-bin region sums to 0.75.
  const auto x = sine(2.0, 20.0, 1000);  // bin 100 exactly
  const auto bins = periodogram(x, 20.0, WindowType::Hann);
  double centre = 0.0, region = 0.0;
  for (const auto& b : bins) {
    if (std::abs(b.frequency_hz - 2.0) < 1e-9) centre = b.power;
    if (std::abs(b.frequency_hz - 2.0) < 0.05) region += b.power;
  }
  EXPECT_NEAR(centre, 0.5, 0.02);
  EXPECT_NEAR(region, 0.75, 0.03);
}

TEST(Periodogram, EmptyAndErrors) {
  EXPECT_TRUE(periodogram(std::vector<double>{}, 20.0).empty());
  EXPECT_THROW(periodogram(std::vector<double>{1.0}, 0.0),
               std::invalid_argument);
}

// --- dominant frequency -------------------------------------------------------

TEST(DominantFrequency, InterpolatesOffBinTone) {
  // 0.213 Hz does not land on the 20/600 = 0.0333 Hz grid.
  const auto x = sine(0.213, 20.0, 600);
  const double f = dominant_frequency(x, 20.0, 0.05, 1.0);
  EXPECT_NEAR(f, 0.213, 0.01);
}

TEST(DominantFrequency, RespectsBand) {
  auto x = sine(0.3, 20.0, 600);
  const auto strong = sine(3.0, 20.0, 600, 5.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += strong[i];
  // Band excludes the strong 3 Hz tone.
  EXPECT_NEAR(dominant_frequency(x, 20.0, 0.05, 1.0), 0.3, 0.02);
  // A band with no bins at all (beyond Nyquist) yields 0.
  EXPECT_EQ(dominant_frequency(x, 20.0, 10.5, 11.0), 0.0);
}

// --- autocorrelation fundamental -------------------------------------------------

TEST(AcfFundamental, ExactOnCleanSine) {
  const auto x = sine(0.25, 20.0, 1200);
  const double f = acf_fundamental(x, 20.0, 0.075, 0.67);
  EXPECT_NEAR(f, 0.25, 0.005);
}

class AcfSweep : public ::testing::TestWithParam<double> {};

TEST_P(AcfSweep, RecoversRateAcrossBand) {
  const double f_true = GetParam();
  auto x = sine(f_true, 20.0, 2400);
  // Add the 2nd harmonic (asymmetric breathing) and noise.
  const auto h = sine(2.0 * f_true, 20.0, 2400, 0.4, 0.7);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += h[i];
  add_noise(x, 0.3, 17 + static_cast<std::uint64_t>(f_true * 100));
  const double f = acf_fundamental(x, 20.0, 0.075, 0.67);
  EXPECT_NEAR(f, f_true, 0.04 * f_true + 0.01) << "f_true=" << f_true;
}

INSTANTIATE_TEST_SUITE_P(BreathingBand, AcfSweep,
                         ::testing::Values(0.085, 0.1, 0.1667, 0.25, 0.333,
                                           0.45, 0.6));

TEST(AcfFundamental, ResolvesPeriodMultipleToSmallestLag) {
  // A clean periodic signal has ACF peaks at T, 2T, 3T...; the estimator
  // must return 1/T, not 1/(2T).
  const auto x = sine(0.3, 20.0, 2400);
  const double f = acf_fundamental(x, 20.0, 0.075, 0.67);
  EXPECT_NEAR(f, 0.3, 0.01);
}

TEST(AcfFundamental, ReturnsZeroOnPureNoiseSometimesButNeverThrows) {
  common::Rng rng(19);
  std::vector<double> x(600);
  for (auto& v : x) v = rng.normal();
  const double f = acf_fundamental(x, 20.0, 0.075, 0.67);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 0.7);
}

/// Reference fundamental: the same estimator as
/// autocorrelation_fundamental (normalised unbiased ACF, smallest peak
/// lag within 90% of the best, parabolic refinement), but with the ACF
/// summed directly in the time domain, O(N*L).
double direct_acf_fundamental(std::span<const double> x, double fs,
                              double f_lo, double f_hi) {
  const std::size_t nx = x.size();
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(nx);
  const auto lag_min = static_cast<std::size_t>(std::ceil(fs / f_hi));
  const auto lag_max = std::min(
      static_cast<std::size_t>(std::floor(fs / f_lo)), nx - 1);
  const auto raw = [&](std::size_t lag) {
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < nx; ++i)
      acc += (x[i] - mean) * (x[i + lag] - mean);
    return acc;
  };
  const double r0 = raw(0);
  std::vector<double> acf(lag_max + 1, 0.0);
  for (std::size_t lag = lag_min; lag <= lag_max; ++lag)
    acf[lag] = raw(lag) / r0 * static_cast<double>(nx) /
               static_cast<double>(nx - lag);
  const auto is_peak = [&](std::size_t lag) {
    return acf[lag] >= acf[lag - 1] && acf[lag] >= acf[lag + 1];
  };
  double best = -2.0;
  for (std::size_t lag = lag_min + 1; lag + 1 <= lag_max; ++lag)
    if (is_peak(lag)) best = std::max(best, acf[lag]);
  if (best <= 0.0) return 0.0;
  for (std::size_t lag = lag_min + 1; lag + 1 <= lag_max; ++lag) {
    if (!is_peak(lag) || acf[lag] < 0.9 * best) continue;
    const double p0 = acf[lag - 1], p1 = acf[lag], p2 = acf[lag + 1];
    const double denom = p0 - 2.0 * p1 + p2;
    const double delta = std::abs(denom) > 1e-30
                             ? std::clamp(0.5 * (p0 - p2) / denom, -0.5, 0.5)
                             : 0.0;
    return fs / (static_cast<double>(lag) + delta);
  }
  return 0.0;
}

TEST(AcfFundamental, MatchesDirectTimeDomainReference) {
  // Seeded breathing tracks (fundamental + asymmetric 2nd harmonic +
  // white noise + drift) at 20 Hz. The planned FFT round trip must pick
  // the same peak lag as the direct sum and agree to 1e-9 relative.
  // n = 1000 is a size where next_pow2(N) < N + 266 lags, so a pad too
  // short to avoid circular wrap shows. One workspace across sizes: it
  // re-sizes between plans.
  FftWorkspace ws;
  std::uint64_t seed = 0x5eed;
  for (const std::size_t n : {600u, 601u, 1000u, 2400u}) {
    for (const double f_true : {0.12, 0.2, 0.31, 0.45}) {
      auto x = sine(f_true, 20.0, n);
      const auto h = sine(2.0 * f_true, 20.0, n, 0.35, 0.9);
      for (std::size_t i = 0; i < n; ++i)
        x[i] += h[i] + 0.002 * static_cast<double>(i);
      add_noise(x, 0.25, ++seed);
      const double reference = direct_acf_fundamental(x, 20.0, 0.075, 0.67);
      const double planned =
          autocorrelation_fundamental(x, 20.0, 0.075, 0.67, ws);
      ASSERT_GT(reference, 0.0) << "n=" << n << " f=" << f_true;
      EXPECT_NEAR(planned, reference, 1e-9 * reference)
          << "n=" << n << " f=" << f_true;
      // A fresh workspace gives the same result as the reused one.
      EXPECT_EQ(acf_fundamental(x, 20.0, 0.075, 0.67), planned);
    }
  }
}

TEST(AcfFundamental, ErrorsAndEdgeCases) {
  EXPECT_THROW(acf_fundamental(std::vector<double>(100), 20.0, 0.5, 0.2),
               std::invalid_argument);
  EXPECT_EQ(acf_fundamental(std::vector<double>(4), 20.0, 0.1, 0.5), 0.0);
  // All-zero signal: r0 = 0.
  EXPECT_EQ(acf_fundamental(std::vector<double>(256, 0.0), 20.0, 0.1, 0.5),
            0.0);
}

// --- FFT band filters -----------------------------------------------------------
//
// The paper's filter (Sec. IV-B) keeps the bins with f_lo <= |f| <= f_hi;
// f_lo = kDcRejectHz is its low-pass with the DC bin removed. The
// extractor runs it two ways, and each case below holds for both: the
// full path masks the whole spectrum and inverts it
// (bandlimit_inverse_many), the band path transforms and synthesizes
// bins 0..K alone (BandPlan::forward, band_synthesize).

std::vector<double> full_path(std::span<const double> x, double fs,
                              double f_lo, double f_hi) {
  FftWorkspace ws;
  std::vector<cdouble> spectrum = fft_real(x);
  std::vector<double> out;
  const BandMaskJob job{&spectrum, fs, f_lo, f_hi, &out};
  bandlimit_inverse_many({&job, 1}, ws);
  return out;
}

std::vector<double> band_path(std::span<const double> x, double fs,
                              double f_lo, double f_hi) {
  FftWorkspace ws;
  const auto plan = BandPlan::get(x.size(), band_top_bin(x.size(), fs, f_hi));
  std::vector<cdouble> bins(plan->max_bin() + 1);
  plan->forward(x, bins, ws.scratch);
  std::vector<double> out;
  band_synthesize(*plan, bins, fs, f_lo, f_hi, out, ws);
  return out;
}

using BandFilter = std::vector<double> (*)(std::span<const double>, double,
                                           double, double);
constexpr std::pair<const char*, BandFilter> kPaths[] = {
    {"full", full_path}, {"band", band_path}};

TEST(FftLowpass, RemovesHighFrequencyKeepsLow) {
  auto x = sine(0.2, 20.0, 800);
  const auto hf = sine(3.0, 20.0, 800, 0.8);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += hf[i];
  const auto clean = sine(0.2, 20.0, 800);
  for (const auto& [name, filter] : kPaths) {
    const auto y = filter(x, 20.0, kDcRejectHz, 0.67);
    ASSERT_EQ(y.size(), x.size()) << name;
    double err = 0.0;
    for (std::size_t i = 50; i < 750; ++i)
      err = std::max(err, std::abs(y[i] - clean[i]));
    EXPECT_LT(err, 0.05) << name;
  }
}

TEST(FftLowpass, RemovesDcWhenAsked) {
  std::vector<double> x(400, 5.0);
  for (const auto& [name, filter] : kPaths) {
    for (double v : filter(x, 20.0, kDcRejectHz, 0.67))
      EXPECT_NEAR(v, 0.0, 1e-9) << name;
    for (double v : filter(x, 20.0, 0.0, 0.67))
      EXPECT_NEAR(v, 5.0, 1e-9) << name;
  }
}

TEST(FftBandpass, SelectsBand) {
  auto x = sine(0.05, 20.0, 1200, 2.0);   // below band
  const auto mid = sine(0.3, 20.0, 1200);  // in band
  const auto high = sine(1.5, 20.0, 1200, 2.0);  // above band
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += mid[i] + high[i];
  const auto clean = sine(0.3, 20.0, 1200);
  for (const auto& [name, filter] : kPaths) {
    const auto y = filter(x, 20.0, 0.1, 0.67);
    for (std::size_t i = 100; i < 1100; ++i)
      EXPECT_NEAR(y[i], clean[i], 0.1) << name << " i=" << i;
  }
}

TEST(FftBandpass, ArgumentValidation) {
  std::vector<cdouble> spectrum(16);
  std::vector<double> out;
  FftWorkspace ws;
  const BandMaskJob bad_rate{&spectrum, 0.0, 0.1, 0.5, &out};
  EXPECT_THROW(bandlimit_inverse_many({&bad_rate, 1}, ws),
               std::invalid_argument);
  EXPECT_THROW(band_top_bin(16, 0.0, 0.5), std::invalid_argument);
  const auto plan = BandPlan::get(16, 2);
  std::vector<cdouble> bins(plan->max_bin() + 1);
  EXPECT_THROW(band_synthesize(*plan, bins, 0.0, 0.1, 0.5, out, ws),
               std::invalid_argument);
  // The band path needs exactly bins 0..K.
  bins.pop_back();
  EXPECT_THROW(band_synthesize(*plan, bins, 20.0, 0.1, 0.5, out, ws),
               std::invalid_argument);
}

}  // namespace
}  // namespace tagbreathe::signal
