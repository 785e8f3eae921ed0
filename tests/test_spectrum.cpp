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

// Every stride-th sample of x: what the extractor hands the ACF seed.
std::vector<double> every(std::span<const double> x, std::size_t stride) {
  std::vector<double> y;
  for (std::size_t i = 0; i < x.size(); i += stride) y.push_back(x[i]);
  return y;
}

// The seed as the extractor runs it on a full-rate signal x: the
// decimation the rate and top edge fix, then the ACF over those samples.
double acf_fundamental(std::span<const double> x, double fs, double f_lo,
                       double f_hi) {
  FftWorkspace ws;
  const std::size_t stride = acf_decimation(fs, f_hi);
  return autocorrelation_fundamental(every(x, stride), fs, stride, f_lo, f_hi,
                                     ws);
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

TEST(AcfFundamental, DecimationFollowsRateAndCutoff) {
  // The realtime tracks: 20 Hz, 0.67 Hz cutoff -> every 4th sample, a
  // 5 Hz grid, 7.5x the cutoff.
  EXPECT_EQ(acf_decimation(20.0, 0.67), 4u);
  EXPECT_EQ(acf_decimation(64.0, 0.67), 15u);
  // Never below 1, even when the rate barely clears the cutoff.
  EXPECT_EQ(acf_decimation(2.0, 0.67), 1u);
  EXPECT_THROW(acf_decimation(0.0, 0.67), std::invalid_argument);
  EXPECT_THROW(acf_decimation(20.0, 0.0), std::invalid_argument);
}

TEST(AcfFundamental, DecimatedGridKeepsTheTopOfTheBand) {
  // On the 5 Hz grid, 0.625-0.667 Hz has its ACF peak at lag 8, one step
  // inside the full-rate range [30, 266] samples. A grid cut from
  // 0.67 Hz itself would start there, lose the peak to the boundary and
  // return the period multiple (~0.32 Hz).
  for (const double f_true : {0.63, 0.65, 0.66}) {
    const auto x = sine(f_true, 20.0, 601);
    EXPECT_NEAR(acf_fundamental(x, 20.0, 0.075, 0.67), f_true, 0.02)
        << "f_true=" << f_true;
  }
}

/// Reference fundamental: the same estimator as
/// autocorrelation_fundamental (raw normalised ACF of the mean-removed
/// samples, smallest peak lag within 90% of the best, parabolic
/// refinement), written straight from its definition: one direct sum
/// per lag over the decimated samples, the lags whose period in
/// full-rate samples lies in [ceil(fs/f_hi), floor(fs/f_lo)] searched.
double direct_acf_fundamental(std::span<const double> y, double fs,
                              std::size_t stride, double f_lo, double f_hi) {
  const std::size_t ny = y.size();
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(ny);
  const auto period_min = static_cast<std::size_t>(std::ceil(fs / f_hi));
  const auto period_max = static_cast<std::size_t>(std::floor(fs / f_lo));
  // First and last searched lag: the grid lags inside the period range.
  const std::size_t first = (period_min + stride - 1) / stride;
  const std::size_t last = std::min(period_max / stride, ny - 2);
  const auto raw = [&](std::size_t lag) {
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < ny; ++i)
      acc += (y[i] - mean) * (y[i + lag] - mean);
    return acc;
  };
  const double r0 = raw(0);
  std::vector<double> acf(last + 2, 0.0);
  for (std::size_t lag = first - 1; lag <= last + 1; ++lag)
    acf[lag] = raw(lag) / r0;
  const auto is_peak = [&](std::size_t lag) {
    return acf[lag] >= acf[lag - 1] && acf[lag] >= acf[lag + 1];
  };
  double best = -2.0;
  for (std::size_t lag = first; lag <= last; ++lag)
    if (is_peak(lag)) best = std::max(best, acf[lag]);
  if (best <= 0.0) return 0.0;
  for (std::size_t lag = first; lag <= last; ++lag) {
    if (!is_peak(lag) || acf[lag] < 0.9 * best) continue;
    const double p0 = acf[lag - 1], p1 = acf[lag], p2 = acf[lag + 1];
    const double denom = p0 - 2.0 * p1 + p2;
    const double delta = std::abs(denom) > 1e-30
                             ? std::clamp(0.5 * (p0 - p2) / denom, -0.5, 0.5)
                             : 0.0;
    return fs / (static_cast<double>(stride) *
                 (static_cast<double>(lag) + delta));
  }
  return 0.0;
}

TEST(AcfFundamental, MatchesDirectTimeDomainReference) {
  // Seeded breathing tracks (fundamental + asymmetric 2nd harmonic +
  // white noise + drift) at 20 Hz, decimated as the extractor does (and
  // at strides 1 and 5 too). The seed must pick the same peak lag as the
  // direct sums and agree to 1e-9 relative. n = 240 clamps the longest
  // lags to the samples there are. One workspace across sizes: it
  // re-sizes between them.
  FftWorkspace ws;
  std::uint64_t seed = 0x5eed;
  for (const std::size_t n : {240u, 600u, 601u, 1000u, 2400u}) {
    for (const double f_true : {0.12, 0.2, 0.31, 0.45}) {
      auto x = sine(f_true, 20.0, n);
      const auto h = sine(2.0 * f_true, 20.0, n, 0.35, 0.9);
      for (std::size_t i = 0; i < n; ++i)
        x[i] += h[i] + 0.002 * static_cast<double>(i);
      add_noise(x, 0.25, ++seed);
      for (const std::size_t stride : {acf_decimation(20.0, 0.67),
                                       std::size_t{1}, std::size_t{5}}) {
        const std::vector<double> y = every(x, stride);
        const double reference =
            direct_acf_fundamental(y, 20.0, stride, 0.075, 0.67);
        const double seeded =
            autocorrelation_fundamental(y, 20.0, stride, 0.075, 0.67, ws);
        ASSERT_GT(reference, 0.0)
            << "n=" << n << " f=" << f_true << " stride=" << stride;
        EXPECT_NEAR(seeded, reference, 1e-9 * reference)
            << "n=" << n << " f=" << f_true << " stride=" << stride;
        // A fresh workspace gives the same result as the reused one.
        FftWorkspace fresh;
        EXPECT_EQ(autocorrelation_fundamental(y, 20.0, stride, 0.075, 0.67,
                                              fresh),
                  seeded);
      }
    }
  }
}

TEST(AcfFundamental, ErrorsAndEdgeCases) {
  EXPECT_THROW(acf_fundamental(std::vector<double>(100), 20.0, 0.5, 0.2),
               std::invalid_argument);
  FftWorkspace ws;
  EXPECT_THROW(autocorrelation_fundamental(std::vector<double>(100), 20.0, 0,
                                           0.1, 0.5, ws),
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
