// Unit + property tests: FFT (radix-2 and Bluestein paths) and the
// band plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "signal/fft.hpp"
#include "signal/spectrum.hpp"

namespace tagbreathe::signal {
namespace {

using common::kTwoPi;

std::vector<cdouble> random_signal(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<cdouble> x(n);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  return x;
}

/// O(N^2) reference DFT.
std::vector<cdouble> naive_dft(std::span<const cdouble> x) {
  const std::size_t n = x.size();
  std::vector<cdouble> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cdouble acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -kTwoPi * static_cast<double>(k * j) /
                           static_cast<double>(n);
      acc += x[j] * cdouble(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(Fft, HelpersNextPow2AndIsPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Fft, RejectsNonPow2InPlace) {
  std::vector<cdouble> x(6);
  EXPECT_THROW(fft_pow2(x), std::invalid_argument);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 1000 + n);
  const auto back = ifft(fft(x));
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-9) << "i=" << i;
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 2000 + n);
  const auto X = fft(x);
  double ex = 0.0, eX = 0.0;
  for (const auto& v : x) ex += std::norm(v);
  for (const auto& v : X) eX += std::norm(v);
  EXPECT_NEAR(eX / ex, static_cast<double>(n), 1e-6 * static_cast<double>(n));
}

TEST_P(FftRoundTrip, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  if (n > 512) GTEST_SKIP() << "naive DFT too slow";
  const auto x = random_signal(n, 3000 + n);
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-7) << "bin " << k;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 17, 64, 100,
                                           128, 241, 256, 500, 1000, 2048,
                                           2400));

TEST(Fft, Linearity) {
  const auto a = random_signal(128, 5);
  const auto b = random_signal(128, 6);
  std::vector<cdouble> combo(128);
  for (std::size_t i = 0; i < 128; ++i) combo[i] = 2.0 * a[i] - 3.0 * b[i];
  const auto fa = fft(a);
  const auto fb = fft(b);
  const auto fc = fft(combo);
  for (std::size_t i = 0; i < 128; ++i)
    EXPECT_NEAR(std::abs(fc[i] - (2.0 * fa[i] - 3.0 * fb[i])), 0.0, 1e-8);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cdouble> x(64, cdouble(0.0, 0.0));
  x[0] = cdouble(1.0, 0.0);
  const auto X = fft(x);
  for (const auto& v : X) EXPECT_NEAR(std::abs(v - cdouble(1.0, 0.0)), 0.0, 1e-10);
}

TEST(Fft, DcGoesToBinZero) {
  std::vector<double> x(100, 2.5);
  const auto X = fft_real(x);
  EXPECT_NEAR(std::abs(X[0]), 250.0, 1e-6);
  for (std::size_t k = 1; k < X.size(); ++k)
    EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-7);
}

TEST(Fft, PureToneLandsInCorrectBin) {
  constexpr std::size_t n = 200;  // Bluestein path
  constexpr double fs = 20.0;
  constexpr std::size_t target_bin = 7;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(kTwoPi * static_cast<double>(target_bin) *
                    static_cast<double>(i) / static_cast<double>(n));
  const auto X = fft_real(x);
  std::size_t peak = 1;
  for (std::size_t k = 1; k <= n / 2; ++k)
    if (std::abs(X[k]) > std::abs(X[peak])) peak = k;
  EXPECT_EQ(peak, target_bin);
  EXPECT_NEAR(bin_frequency(peak, n, fs),
              static_cast<double>(target_bin) * fs / n, 1e-12);
}

TEST(Fft, RealSignalSpectrumIsConjugateSymmetric) {
  common::Rng rng(77);
  std::vector<double> x(96);
  for (auto& v : x) v = rng.normal();
  const auto X = fft_real(x);
  for (std::size_t k = 1; k < x.size(); ++k) {
    const auto sym = std::conj(X[x.size() - k]);
    EXPECT_NEAR(std::abs(X[k] - sym), 0.0, 1e-8);
  }
}

/// O(N^2) reference real inverse DFT (1/N-scaled real part), with the
/// angle index reduced mod N so large products stay exact.
std::vector<double> naive_real_idft(std::span<const cdouble> spectrum) {
  const std::size_t n = spectrum.size();
  std::vector<cdouble> roots(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle =
        kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    roots[j] = cdouble(std::cos(angle), std::sin(angle));
  }
  std::vector<double> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k)
      acc += (spectrum[k] * roots[(k * t) % n]).real();
    out[t] = acc / static_cast<double>(n);
  }
  return out;
}

/// One real inverse through the batched sweep the extractor runs.
std::vector<double> real_inverse(std::span<const cdouble> spectrum) {
  std::vector<double> out;
  FftScratch scratch;
  const RealIfftJob job{spectrum, &out};
  ifft_real_many({&job, 1}, scratch);
  return out;
}

TEST(Fft, IfftRealRecoversRealSignal) {
  // Even sizes take the half-size c2r path (Bluestein and pow2 halves,
  // down to the trivial 1-point half of n = 2); odd sizes the pruned
  // Bluestein.
  for (const std::size_t n : {2u, 4u, 150u, 151u, 600u, 601u, 2048u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    common::Rng rng(78 + n);
    std::vector<double> x(n);
    for (auto& v : x) v = rng.normal();
    std::vector<cdouble> spectrum = fft_real(x);
    const auto back = real_inverse(spectrum);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);

    // Band-masked Hermitian spectrum (the extraction filter's shape:
    // DC and everything above a quarter of the bins zeroed, Nyquist
    // included) against the naive real IDFT.
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t fold = std::min(k, n - k);
      if (fold == 0 || 4 * fold > n) spectrum[k] = cdouble(0.0, 0.0);
    }
    const auto filtered = real_inverse(spectrum);
    const auto reference = naive_real_idft(spectrum);
    ASSERT_EQ(filtered.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(filtered[i], reference[i], 1e-9) << "i=" << i;
  }
}

TEST(Fft, BinFrequencyNegativeHalf) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 8, 16.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(4, 8, 16.0), 8.0);   // Nyquist
  EXPECT_DOUBLE_EQ(bin_frequency(5, 8, 16.0), -6.0);  // negative side
  EXPECT_DOUBLE_EQ(bin_frequency(7, 8, 16.0), -2.0);
}

// --- odd-length real transforms (pruned Bluestein) --------------------------

/// Largest |a - b| over the largest |b|: the relative error of a
/// transform against its reference, in the max norm.
template <typename T>
double max_relative_error(std::span<const T> a, std::span<const T> b) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return diff / scale;
}

/// O(N^2) reference DFT of a real signal, angle index reduced mod N.
std::vector<cdouble> naive_real_dft(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<cdouble> roots(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle =
        -kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    roots[j] = cdouble(std::cos(angle), std::sin(angle));
  }
  std::vector<cdouble> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cdouble acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) acc += x[j] * roots[(k * j) % n];
    out[k] = acc;
  }
  return out;
}

constexpr std::size_t kOddSizes[] = {3, 5, 7, 9, 151, 601, 2401};

TEST(RealFftOdd, ForwardMatchesNaiveRealDft) {
  for (const std::size_t n : kOddSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    common::Rng rng(91 + n);
    std::vector<double> x(n);
    for (auto& v : x) v = rng.normal();
    const std::vector<cdouble> fast = fft_real(x);
    const std::vector<cdouble> slow = naive_real_dft(x);
    ASSERT_EQ(fast.size(), n);
    EXPECT_LT(max_relative_error<cdouble>(fast, slow), 1e-12);
  }
}

TEST(RealFftOdd, InverseIsRealPartOfComplexInverseForAnySpectrum) {
  // Random bins with no conjugate symmetry and a complex DC bin: the
  // fold must still reproduce the real part of the full inverse.
  for (const std::size_t n : kOddSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<cdouble> spectrum = random_signal(n, 92 + n);
    const std::vector<double> fast = real_inverse(spectrum);
    const std::vector<cdouble> full = ifft(spectrum);
    std::vector<double> reference(n);
    for (std::size_t i = 0; i < n; ++i) reference[i] = full[i].real();
    ASSERT_EQ(fast.size(), n);
    EXPECT_LT(max_relative_error<double>(fast, reference), 1e-12);
  }
}

TEST(RealFftOdd, SingleSampleIsItsOwnTransform) {
  const std::vector<double> x = {-2.5};
  const std::vector<cdouble> X = fft_real(x);
  ASSERT_EQ(X.size(), 1u);
  EXPECT_EQ(X[0].real(), -2.5);
  EXPECT_EQ(X[0].imag(), 0.0);
  const std::vector<cdouble> spectrum = {cdouble(3.25, 1.5)};
  const std::vector<double> back = real_inverse(spectrum);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], 3.25);
}

// --- band plan -----------------------------------------------------------

std::vector<double> random_real_signal(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.normal();
  return x;
}

double l1_norm(std::span<const double> x) {
  double sum = 0.0;
  for (double v : x) sum += std::abs(v);
  return sum;
}

TEST(BandPlan, BinsMatchRealFftPlan) {
  FftScratch scratch;
  for (const std::size_t n : {std::size_t{21}, std::size_t{600},
                              std::size_t{601}}) {
    const std::vector<double> x = random_real_signal(n, 0xBA + n);
    std::vector<cdouble> full(n);
    RealFftPlan::get(n)->execute(x, full, scratch);
    const double tol = 1e-12 * l1_norm(x);
    // The realtime cutoff's K, and the largest K a plan admits.
    for (const std::size_t top : {band_top_bin(n, 20.0, 0.67), (n - 1) / 2}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " K=" + std::to_string(top));
      std::vector<cdouble> bins(top + 1);
      BandPlan::get(n, top)->forward(x, bins, scratch);
      for (std::size_t k = 0; k <= top; ++k) {
        EXPECT_LE(std::abs(bins[k].real() - full[k].real()), tol) << k;
        EXPECT_LE(std::abs(bins[k].imag() - full[k].imag()), tol) << k;
      }
    }
  }
}

TEST(BandPlan, SynthesisMatchesTheMaskedFullInverse) {
  FftWorkspace ws;
  for (const std::size_t n : {std::size_t{21}, std::size_t{600},
                              std::size_t{601}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> x = random_real_signal(n, 0x5E + n);
    const std::size_t top = band_top_bin(n, 20.0, 0.67);
    const auto plan = BandPlan::get(n, top);
    std::vector<cdouble> bins(top + 1);
    plan->forward(x, bins, ws.scratch);
    const double tol = 1e-12 * l1_norm(x) / static_cast<double>(n);
    for (const auto& [lo, hi] : {std::pair{kDcRejectHz, 0.67},
                                 std::pair{0.1, 0.4}, std::pair{0.0, 0.67}}) {
      std::vector<double> band;
      band_synthesize(*plan, bins, 20.0, lo, hi, band, ws);
      std::vector<cdouble> spectrum;
      const RealFftJob forward{x, &spectrum};
      fft_real_many({&forward, 1}, ws.scratch);
      std::vector<double> full;
      const BandMaskJob mask{&spectrum, 20.0, lo, hi, &full};
      bandlimit_inverse_many({&mask, 1}, ws);
      ASSERT_EQ(band.size(), full.size());
      for (std::size_t t = 0; t < n; ++t)
        EXPECT_NEAR(band[t], full[t], tol) << "t=" << t << " band " << lo
                                           << ".." << hi;
    }
  }
}

TEST(BandPlan, StridedSynthesisIsEveryStrideThSample) {
  // A stride reads only the rows its samples need, but each sample is
  // the same double the full synthesis gives at that index. Strides that
  // divide n share each row between samples t and n-t; the others read
  // disjoint rows for the two halves. The even n = 2*stride*m cases put
  // a sample on the middle row. A 2 Hz top keeps a few bins even at
  // n = 21.
  constexpr double kTop = 2.0;
  FftWorkspace ws;
  for (const std::size_t n : {std::size_t{21}, std::size_t{24},
                              std::size_t{600}, std::size_t{601}}) {
    const std::vector<double> x = random_real_signal(n, 0x57 + n);
    const std::size_t top = band_top_bin(n, 20.0, kTop);
    const auto plan = BandPlan::get(n, top);
    std::vector<cdouble> bins(top + 1);
    plan->forward(x, bins, ws.scratch);
    std::vector<double> full;
    band_synthesize(*plan, bins, 20.0, kDcRejectHz, kTop, full, ws);
    for (std::size_t stride = 1; stride <= 7; ++stride) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " stride=" + std::to_string(stride));
      std::vector<double> strided;
      band_synthesize(*plan, bins, 20.0, kDcRejectHz, kTop, strided, ws,
                      stride);
      ASSERT_EQ(strided.size(), (n + stride - 1) / stride);
      for (std::size_t i = 0; i < strided.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(strided[i]),
                  std::bit_cast<std::uint64_t>(full[i * stride]))
            << "i=" << i;
    }
  }
  std::vector<double> out;
  EXPECT_THROW(band_synthesize(*BandPlan::get(24, 1),
                               std::vector<cdouble>(2), 20.0, 0.0, 1.0, out,
                               ws, 0),
               std::invalid_argument);
}

TEST(BandPlan, KeepsExactlyTheBinsTheMaskKeeps) {
  // Synthesize one bin pair at a time, X[k] = X[n-k] = 1, on both paths.
  // A bin one path keeps and the other drops shows as an O(1/n) gap.
  // The band edges sit exactly on bin frequencies; |f| of bin n-k
  // differs from that of bin k in the last bit for most k, so an edge on
  // the smaller of the two keeps one of the pair only.
  constexpr double kRate = 20.0;
  FftWorkspace ws;
  for (const std::size_t n : {std::size_t{600}, std::size_t{601}}) {
    const std::size_t top = band_top_bin(n, kRate, 0.67);
    const auto plan = BandPlan::get(n, top);
    const auto edge = [&](std::size_t k) {
      return std::min(bin_frequency(k, n, kRate),
                      std::abs(bin_frequency(n - k, n, kRate)));
    };
    bool split_pair = false;
    for (std::size_t k = 1; k <= top; ++k)
      split_pair |= bin_frequency(k, n, kRate) !=
                    std::abs(bin_frequency(n - k, n, kRate));
    EXPECT_TRUE(split_pair) << "no edge case at n=" << n;
    for (const auto& [lo, hi] : {std::pair{edge(3), edge(9)},
                                 std::pair{bin_frequency(3, n, kRate),
                                           bin_frequency(9, n, kRate)},
                                 std::pair{kDcRejectHz, edge(top)},
                                 std::pair{0.0, 0.67}}) {
      for (std::size_t k = 0; k <= top; ++k) {
        SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                     " band " + std::to_string(lo) + ".." +
                     std::to_string(hi));
        std::vector<cdouble> spectrum(n, cdouble(0.0, 0.0));
        spectrum[k] = 1.0;
        spectrum[(n - k) % n] = 1.0;
        std::vector<double> full;
        const BandMaskJob mask{&spectrum, kRate, lo, hi, &full};
        bandlimit_inverse_many({&mask, 1}, ws);
        std::vector<cdouble> bins(top + 1, cdouble(0.0, 0.0));
        bins[k] = 1.0;
        std::vector<double> band;
        band_synthesize(*plan, bins, kRate, lo, hi, band, ws);
        for (std::size_t t = 0; t < n; ++t)
          ASSERT_NEAR(band[t], full[t], 1e-14) << "t=" << t;
      }
    }
  }
}

TEST(BandPlan, CrossoverFollowsNAndKAlone) {
  // The realtime track (601 samples at 20 Hz, cutoff 0.67 Hz) keeps bins
  // 0..20 and takes the band path; so do the prefill's short tracks.
  EXPECT_EQ(band_top_bin(601, 20.0, 0.67), 20u);
  EXPECT_TRUE(BandPlan::preferred(601, 20));
  EXPECT_TRUE(BandPlan::preferred(21, band_top_bin(21, 20.0, 0.67)));
  // The same track at 2 Hz keeps bins 0..201: above the crossover.
  EXPECT_EQ(band_top_bin(601, 2.0, 0.67), 201u);
  EXPECT_FALSE(BandPlan::preferred(601, 201));
  // The crossover bound itself, and the plan's own domain.
  EXPECT_TRUE(BandPlan::preferred(1024, 39));   // 40 <= 4 * 10
  EXPECT_FALSE(BandPlan::preferred(1024, 40));  // 41 > 4 * 10
  EXPECT_FALSE(BandPlan::preferred(1, 0));
  EXPECT_FALSE(BandPlan::preferred(8, 4));  // 2K == N: Nyquist is not a band bin
  EXPECT_THROW(BandPlan::get(8, 4), std::invalid_argument);
}

TEST(BandPlan, TableIsOneSymmetricHalf) {
  for (const std::size_t n : {std::size_t{21}, std::size_t{600},
                              std::size_t{601}}) {
    const std::size_t top = band_top_bin(n, 20.0, 0.67);
    const auto plan = BandPlan::get(n, top);
    EXPECT_LE(plan->table_bytes(), 16 * (top + 1) * ((n + 1) / 2)) << n;
  }
  EXPECT_EQ(BandPlan::get(601, 20)->table_bytes(), 100800u);  // ~98 KB
}

TEST(Fft, EmptyInput) {
  EXPECT_TRUE(fft(std::vector<cdouble>{}).empty());
  EXPECT_TRUE(ifft(std::vector<cdouble>{}).empty());
}

}  // namespace
}  // namespace tagbreathe::signal
