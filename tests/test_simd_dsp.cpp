// SIMD DSP back-end tests: runtime dispatch (probe, env override, test
// override, first-call race under TSan), bit-exact vector-vs-scalar
// kernel equivalence (butterflies, Bluestein pointwise products, Eq. 3
// phase deltas with out-of-range lanes), batch-vs-single identity of
// the fft_real_many / ifft_real_many / bandlimit_inverse_many /
// extract_many sweeps (and of extract_many's shared forward sweep
// against one forward transform per filter), the
// zero-allocation gate on the warm batched steady state (counting
// operator-new hook), cache-line alignment of the per-slot scratch
// arenas, analyze_users identity across batch sizes, and the
// scalar-vs-vector pipeline event-log byte-identity gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "core/breath_extractor.hpp"
#include "core/chaos.hpp"
#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "obs/observability.hpp"
#include "signal/fft.hpp"
#include "signal/filters.hpp"
#include "signal/simd/dispatch.hpp"
#include "signal/simd/kernels.hpp"
#include "signal/spectrum.hpp"

// --- counting operator-new hook ---------------------------------------------
// Replaces the global allocation functions for this binary so the
// batched steady-state zero-allocation claim is asserted, not assumed.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// allocate from the same heap the replaced deletes free into.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tagbreathe {
namespace {

using signal::cdouble;
using signal::FftDirection;
using signal::FftPlan;
using signal::FftScratch;
using signal::RealFftPlan;
using signal::simd::DspKernels;
using signal::simd::SimdLevel;

/// The vector table the hardware can actually run, or null on a
/// scalar-only build/machine (those configurations exercise the scalar
/// path everywhere and the equivalence tests skip).
const DspKernels* vector_table() {
#if defined(TAGBREATHE_HAVE_AVX2_TU)
  if (signal::simd::detected_level() == SimdLevel::Avx2)
    return &signal::simd::avx2_kernels();
#endif
#if defined(TAGBREATHE_HAVE_NEON_TU)
  if (signal::simd::detected_level() == SimdLevel::Neon)
    return &signal::simd::neon_kernels();
#endif
  return nullptr;
}

/// Restores the probed dispatch when a test that overrides it exits.
struct DispatchRestore {
  ~DispatchRestore() { signal::simd::reset_dispatch_for_testing(); }
};

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bits_equal(const cdouble& a, const cdouble& b) {
  return bits_equal(a.real(), b.real()) && bits_equal(a.imag(), b.imag());
}

template <typename T>
::testing::AssertionResult spans_bit_equal(const std::vector<T>& a,
                                           const std::vector<T>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i], b[i]))
      return ::testing::AssertionFailure() << "bit mismatch at index " << i;
  }
  return ::testing::AssertionSuccess();
}

std::vector<cdouble> random_complex(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  std::vector<cdouble> out(n);
  for (auto& v : out) v = cdouble(dist(rng), dist(rng));
  return out;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> out(n);
  for (auto& v : out) v = dist(rng);
  return out;
}

// --- dispatch contract ------------------------------------------------------

TEST(SimdDispatch, EnvParserContract) {
  using signal::simd::env_requests_scalar;
  EXPECT_FALSE(env_requests_scalar(nullptr));
  EXPECT_FALSE(env_requests_scalar(""));
  EXPECT_FALSE(env_requests_scalar("0"));
  EXPECT_FALSE(env_requests_scalar("false"));
  EXPECT_FALSE(env_requests_scalar("off"));
  EXPECT_TRUE(env_requests_scalar("1"));
  EXPECT_TRUE(env_requests_scalar("true"));
  EXPECT_TRUE(env_requests_scalar("yes"));
  EXPECT_TRUE(env_requests_scalar("2"));
}

TEST(SimdDispatch, ActiveLevelMatchesProbeByDefault) {
  DispatchRestore restore;
  signal::simd::reset_dispatch_for_testing();
  EXPECT_EQ(signal::simd::active_level(), signal::simd::detected_level());
  EXPECT_EQ(signal::simd::active_level_value(),
            static_cast<int>(signal::simd::detected_level()));
  // The level names are stable strings (exported / printed).
  EXPECT_STREQ(signal::simd::simd_level_name(SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(signal::simd::simd_level_name(SimdLevel::Avx2), "avx2");
  EXPECT_STREQ(signal::simd::simd_level_name(SimdLevel::Neon), "neon");
}

TEST(SimdDispatch, OverrideInstallsRequestedLevelOrScalarFallback) {
  DispatchRestore restore;
  // Scalar is always available.
  EXPECT_EQ(signal::simd::override_level_for_testing(SimdLevel::Scalar),
            SimdLevel::Scalar);
  EXPECT_EQ(signal::simd::active_level(), SimdLevel::Scalar);
  EXPECT_EQ(&signal::simd::kernels(), &signal::simd::scalar_kernels());
  // detected_level() keeps reporting the probe truth under an override.
  const SimdLevel probed = signal::simd::detected_level();
  EXPECT_EQ(signal::simd::detected_level(), probed);
  // Requesting the probed vector level installs it; requesting a level
  // this machine cannot run falls back to scalar.
  const SimdLevel got = signal::simd::override_level_for_testing(probed);
  EXPECT_EQ(got, probed);
  const SimdLevel impossible =
      probed == SimdLevel::Neon ? SimdLevel::Avx2 : SimdLevel::Neon;
  if (impossible != signal::simd::detected_level()) {
    EXPECT_EQ(signal::simd::override_level_for_testing(impossible),
              SimdLevel::Scalar);
  }
}

// Run under TSan via the `concurrency` label: many threads race the
// one-time dispatch resolution; every thread must observe the same
// fully-initialized table.
TEST(SimdDispatch, FirstCallRaceResolvesOneConsistentTable) {
  DispatchRestore restore;
  constexpr int kRounds = 50;
  constexpr int kThreads = 8;
  for (int round = 0; round < kRounds; ++round) {
    signal::simd::reset_dispatch_for_testing();
    std::vector<const DspKernels*> seen(kThreads, nullptr);
    std::vector<SimdLevel> levels(kThreads, SimdLevel::Scalar);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &seen, &levels] {
        seen[static_cast<std::size_t>(t)] = &signal::simd::kernels();
        levels[static_cast<std::size_t>(t)] = signal::simd::active_level();
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
      EXPECT_EQ(levels[static_cast<std::size_t>(t)], levels[0]);
    }
    EXPECT_EQ(levels[0], signal::simd::detected_level());
  }
}

// --- kernel-level vector-vs-scalar bit equivalence --------------------------

TEST(VectorKernels, PhaseDeltasBitIdenticalToScalar) {
  const DspKernels* vec = vector_table();
  if (vec == nullptr) GTEST_SKIP() << "no vector unit on this build/machine";
  const DspKernels& ref = signal::simd::scalar_kernels();

  std::mt19937_64 rng(0xD51);
  std::uniform_real_distribution<double> in_range(-2.0 * common::kTwoPi,
                                                  2.0 * common::kTwoPi);
  std::uniform_real_distribution<double> scale_dist(1e-3, 0.5);
  // Lengths cover the 4-lane (AVX2) and 2-lane (NEON) groups plus every
  // tail shape.
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{7},
                        std::size_t{8}, std::size_t{15}, std::size_t{64},
                        std::size_t{67}, std::size_t{1024}}) {
    std::vector<double> dphase(n), scale(n), got(n, -1.0), want(n, -2.0);
    for (std::size_t i = 0; i < n; ++i) {
      dphase[i] = in_range(rng);
      scale[i] = scale_dist(rng);
    }
    // Salt in hostile lanes: exact boundaries, signed zeros, huge
    // magnitudes that force the scalar-fallback wrap, and non-finites.
    if (n >= 8) {
      dphase[0] = common::kPi;
      dphase[1] = -common::kPi;
      dphase[2] = common::kTwoPi;
      dphase[3] = -common::kTwoPi;
      dphase[4] = 0.0;
      dphase[5] = -0.0;
      dphase[6] = 1e9;
      dphase[7] = -1e9;
    }
    if (n >= 15) {
      dphase[8] = std::numeric_limits<double>::infinity();
      dphase[9] = -std::numeric_limits<double>::infinity();
      dphase[10] = std::numeric_limits<double>::quiet_NaN();
      dphase[11] = std::nextafter(common::kTwoPi, 0.0);
      dphase[12] = std::nextafter(-common::kTwoPi, 0.0);
      dphase[13] = 2.0 * common::kTwoPi;  // just past the vector window
      dphase[14] = std::nextafter(2.0 * common::kTwoPi, 0.0);
    }
    ref.phase_deltas(dphase.data(), scale.data(), want.data(), n);
    vec->phase_deltas(dphase.data(), scale.data(), got.data(), n);
    EXPECT_TRUE(spans_bit_equal(got, want)) << "n=" << n;
  }
}

TEST(VectorKernels, ButterflyMulScaleBitIdenticalToScalar) {
  const DspKernels* vec = vector_table();
  if (vec == nullptr) GTEST_SKIP() << "no vector unit on this build/machine";
  const DspKernels& ref = signal::simd::scalar_kernels();

  // Butterfly stages across every half that appears in a 32-point plan.
  for (std::size_t half : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{8}, std::size_t{16}}) {
    const std::size_t n = 32;
    const std::vector<cdouble> tw = random_complex(half, 0xB0 + half);
    std::vector<cdouble> want = random_complex(n, 0xF00 + half);
    std::vector<cdouble> got = want;
    ref.butterfly_stage(want.data(), n, half, tw.data());
    vec->butterfly_stage(got.data(), n, half, tw.data());
    EXPECT_TRUE(spans_bit_equal(got, want)) << "half=" << half;
  }

  // Pointwise products, aliased (dst == a) and not, odd tail lengths.
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{5}, std::size_t{8}, std::size_t{129}}) {
    const std::vector<cdouble> a = random_complex(n, 0xA0 + n);
    const std::vector<cdouble> b = random_complex(n, 0xB0 + n);
    std::vector<cdouble> want(n), got(n);
    ref.complex_mul(want.data(), a.data(), b.data(), n);
    vec->complex_mul(got.data(), a.data(), b.data(), n);
    EXPECT_TRUE(spans_bit_equal(got, want)) << "mul n=" << n;

    std::vector<cdouble> want_alias = a;
    std::vector<cdouble> got_alias = a;
    ref.complex_mul(want_alias.data(), want_alias.data(), b.data(), n);
    vec->complex_mul(got_alias.data(), got_alias.data(), b.data(), n);
    EXPECT_TRUE(spans_bit_equal(got_alias, want_alias)) << "alias n=" << n;

    std::vector<cdouble> want_s = b;
    std::vector<cdouble> got_s = b;
    ref.complex_scale(want_s.data(), n, 1.0 / 3.0);
    vec->complex_scale(got_s.data(), n, 1.0 / 3.0);
    EXPECT_TRUE(spans_bit_equal(got_s, want_s)) << "scale n=" << n;
  }
}

// --- transform-level equivalence -------------------------------------------

// Whole transforms, forward and inverse, must be byte-identical between
// the scalar and vector kernel tables: pow2 (pure butterfly path) and
// Bluestein sizes (butterflies + pointwise chirp products), including
// the realtime engine's actual sizes (600-sample fused tracks).
TEST(FftEquivalence, VectorVsScalarBitIdenticalAcrossSizes) {
  if (vector_table() == nullptr)
    GTEST_SKIP() << "no vector unit on this build/machine";
  DispatchRestore restore;

  const std::vector<std::size_t> sizes = {2,  4,  8,   16,  64,  256, 4096,
                                          3,  5,  31,  600, 601, 1000};
  FftScratch scratch;
  for (const std::size_t n : sizes) {
    const std::vector<cdouble> input = random_complex(n, 0x5EED + n);
    for (const FftDirection dir :
         {FftDirection::Forward, FftDirection::Inverse}) {
      const auto plan = FftPlan::get(n, dir);
      std::vector<cdouble> scalar_out(n), vector_out(n);
      signal::simd::override_level_for_testing(SimdLevel::Scalar);
      plan->execute(input, scalar_out, scratch);
      signal::simd::override_level_for_testing(
          signal::simd::detected_level());
      plan->execute(input, vector_out, scratch);
      EXPECT_TRUE(spans_bit_equal(vector_out, scalar_out))
          << "n=" << n << " dir=" << static_cast<int>(dir);
    }
  }
}

TEST(FftEquivalence, RealTransformsBitIdenticalAcrossLevels) {
  if (vector_table() == nullptr)
    GTEST_SKIP() << "no vector unit on this build/machine";
  DispatchRestore restore;

  // Odd sizes run the pruned Bluestein (inner 4, 8, 16 and 1024 for
  // 3, 5, 9 and 601); even sizes the packed half-size transform.
  FftScratch scratch;
  for (const std::size_t n : {std::size_t{3}, std::size_t{5}, std::size_t{9},
                              std::size_t{64}, std::size_t{600},
                              std::size_t{601}}) {
    const std::vector<double> input = random_real(n, 0xFACE + n);
    std::vector<cdouble> scalar_spec, vector_spec;
    signal::simd::override_level_for_testing(SimdLevel::Scalar);
    signal::fft_real_into(input, scalar_spec, scratch);
    signal::simd::override_level_for_testing(signal::simd::detected_level());
    signal::fft_real_into(input, vector_spec, scratch);
    EXPECT_TRUE(spans_bit_equal(vector_spec, scalar_spec)) << "n=" << n;

    std::vector<double> scalar_time(n), vector_time(n);
    const auto plan = RealFftPlan::get(n);
    signal::simd::override_level_for_testing(SimdLevel::Scalar);
    plan->execute_inverse(scalar_spec, scalar_time, scratch);
    signal::simd::override_level_for_testing(signal::simd::detected_level());
    plan->execute_inverse(scalar_spec, vector_time, scratch);
    EXPECT_TRUE(spans_bit_equal(vector_time, scalar_time)) << "n=" << n;
  }
}

// Band-plan kernels: every bin count around the AVX2 chunking (8, 4 and
// the scalar tail), every synthesis count around the 4-lane blocks, and
// synthesis rows read one after another and every 3rd (the strided
// coarse signal's row step).
TEST(VectorKernels, BandKernelsBitIdenticalToScalar) {
  const DspKernels* vec = vector_table();
  if (vec == nullptr) GTEST_SKIP() << "no vector unit on this build/machine";
  const DspKernels& ref = signal::simd::scalar_kernels();
  constexpr std::size_t kRows = 37;
  for (std::size_t bins = 1; bins <= 25; ++bins) {
    const std::vector<double> table = random_real(kRows * 2 * bins, 0x7A + bins);
    const std::vector<double> s = random_real(kRows, 0x51 + bins);
    const std::vector<double> d = random_real(kRows, 0xD1 + bins);
    std::vector<double> want_re = random_real(bins, 0xE0 + bins);
    std::vector<double> want_im = random_real(bins, 0xE1 + bins);
    std::vector<double> got_re = want_re;
    std::vector<double> got_im = want_im;
    ref.band_analysis(s.data(), d.data(), kRows, table.data(), bins,
                      want_re.data(), want_im.data());
    vec->band_analysis(s.data(), d.data(), kRows, table.data(), bins,
                       got_re.data(), got_im.data());
    EXPECT_TRUE(spans_bit_equal(got_re, want_re)) << "bins=" << bins;
    EXPECT_TRUE(spans_bit_equal(got_im, want_im)) << "bins=" << bins;

    for (std::size_t first = 0; first < bins; ++first) {
      const std::size_t count = bins - first;
      const std::vector<double> a = random_real(count, 0xA1 + count);
      const std::vector<double> b = random_real(count, 0xB1 + count);
      for (const std::size_t every : {std::size_t{1}, std::size_t{3}}) {
        const std::size_t rows = (kRows + every - 1) / every;
        const double scale = 1.0 / static_cast<double>(2 * kRows + every);
        std::vector<double> want_plus(rows), want_minus(rows);
        std::vector<double> got_plus(rows), got_minus(rows);
        ref.band_synthesis(a.data(), b.data(), count, table.data() + first,
                           bins, every * 2 * bins, rows, scale,
                           want_plus.data(), want_minus.data());
        vec->band_synthesis(a.data(), b.data(), count, table.data() + first,
                            bins, every * 2 * bins, rows, scale,
                            got_plus.data(), got_minus.data());
        EXPECT_TRUE(spans_bit_equal(got_plus, want_plus))
            << "bins=" << bins << " first=" << first << " every=" << every;
        EXPECT_TRUE(spans_bit_equal(got_minus, want_minus))
            << "bins=" << bins << " first=" << first << " every=" << every;
      }
    }
  }
}

TEST(FftEquivalence, BandPlanBitIdenticalAcrossLevels) {
  if (vector_table() == nullptr)
    GTEST_SKIP() << "no vector unit on this build/machine";
  DispatchRestore restore;
  signal::FftWorkspace ws;
  for (const std::size_t n : {std::size_t{21}, std::size_t{64},
                              std::size_t{600}, std::size_t{601}}) {
    const std::vector<double> input = random_real(n, 0xBA4D + n);
    const std::size_t top = signal::band_top_bin(n, 20.0, 0.67);
    const auto plan = signal::BandPlan::get(n, top);
    std::vector<cdouble> scalar_bins(top + 1), vector_bins(top + 1);
    std::vector<double> scalar_time, vector_time;
    signal::simd::override_level_for_testing(SimdLevel::Scalar);
    plan->forward(input, scalar_bins, ws.scratch);
    signal::band_synthesize(*plan, scalar_bins, 20.0, signal::kDcRejectHz,
                            0.67, scalar_time, ws);
    signal::simd::override_level_for_testing(signal::simd::detected_level());
    plan->forward(input, vector_bins, ws.scratch);
    signal::band_synthesize(*plan, scalar_bins, 20.0, signal::kDcRejectHz,
                            0.67, vector_time, ws);
    EXPECT_TRUE(spans_bit_equal(vector_bins, scalar_bins)) << "n=" << n;
    EXPECT_TRUE(spans_bit_equal(vector_time, scalar_time)) << "n=" << n;
  }
}

// --- batch vs single identity ----------------------------------------------

TEST(BatchedTransforms, RealManyMatchesSingleCalls) {
  FftScratch scratch;
  const std::vector<std::size_t> sizes = {600, 1, 600, 601, 0, 64};
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<cdouble>> batch_spec(sizes.size()),
      single_spec(sizes.size());
  for (std::size_t j = 0; j < sizes.size(); ++j)
    inputs.push_back(random_real(sizes[j], 0xABBA + j));

  std::vector<signal::RealFftJob> jobs;
  for (std::size_t j = 0; j < sizes.size(); ++j)
    jobs.push_back(signal::RealFftJob{inputs[j], &batch_spec[j]});
  signal::fft_real_many(jobs, scratch);
  for (std::size_t j = 0; j < sizes.size(); ++j)
    signal::fft_real_into(inputs[j], single_spec[j], scratch);
  for (std::size_t j = 0; j < sizes.size(); ++j)
    EXPECT_TRUE(spans_bit_equal(batch_spec[j], single_spec[j]))
        << "fwd job " << j;

  // Inverse sweep: the batch shares one scratch, per-job plan executes
  // each use a fresh one — outputs must still match bit for bit.
  std::vector<std::vector<double>> batch_time(sizes.size()),
      single_time(sizes.size());
  std::vector<signal::RealIfftJob> inv_jobs;
  for (std::size_t j = 0; j < sizes.size(); ++j)
    inv_jobs.push_back(signal::RealIfftJob{single_spec[j], &batch_time[j]});
  signal::ifft_real_many(inv_jobs, scratch);
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    FftScratch own_scratch;
    single_time[j].resize(sizes[j]);
    if (sizes[j] > 0)
      RealFftPlan::get(sizes[j])->execute_inverse(single_spec[j],
                                                  single_time[j], own_scratch);
    EXPECT_TRUE(spans_bit_equal(batch_time[j], single_time[j]))
        << "inv job " << j;
  }
}

TEST(BatchedTransforms, BandlimitManyMatchesSingleFilters) {
  // One forward sweep and one mask-and-inverse sweep over mixed sizes
  // against the same filters one job at a time through another
  // workspace.
  signal::FftWorkspace batch_ws, single_ws;
  constexpr double kRate = 20.0;
  const std::vector<std::size_t> sizes = {600, 600, 480, 601};
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<cdouble>> spectra(sizes.size());
  std::vector<std::vector<double>> batch_out(sizes.size()),
      single_out(sizes.size());
  for (std::size_t j = 0; j < sizes.size(); ++j)
    inputs.push_back(random_real(sizes[j], 0xBEA7 + j));
  // Alternate band-pass and DC-rejecting low-pass shapes.
  const auto f_lo = [](std::size_t j) {
    return j % 2 == 0 ? 0.05 : signal::kDcRejectHz;
  };

  std::vector<signal::RealFftJob> forward;
  std::vector<signal::BandMaskJob> masks;
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    forward.push_back(signal::RealFftJob{inputs[j], &spectra[j]});
    masks.push_back(
        signal::BandMaskJob{&spectra[j], kRate, f_lo(j), 0.67, &batch_out[j]});
  }
  signal::fft_real_many(forward, batch_ws.scratch);
  signal::bandlimit_inverse_many(masks, batch_ws);
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    std::vector<cdouble> spectrum;
    signal::fft_real_into(inputs[j], spectrum, single_ws.scratch);
    const signal::BandMaskJob mask{&spectrum, kRate, f_lo(j), 0.67,
                                   &single_out[j]};
    signal::bandlimit_inverse_many({&mask, 1}, single_ws);
    EXPECT_TRUE(spans_bit_equal(batch_out[j], single_out[j])) << "job " << j;
  }
}

std::vector<signal::TimedSample> breathing_track(std::size_t n, double rate_hz,
                                                 double breath_hz,
                                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.0004);
  std::vector<signal::TimedSample> track(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / rate_hz;
    track[i] = signal::TimedSample{
        t, 0.005 * std::sin(common::kTwoPi * breath_hz * t) + 0.0002 * t +
               noise(rng)};
  }
  return track;
}

TEST(BatchedExtraction, ExtractManyMatchesSingleExtractBitwise) {
  const core::BreathExtractor extractor;
  constexpr double kRate = 20.0;
  std::vector<std::vector<signal::TimedSample>> tracks;
  for (std::size_t j = 0; j < 8; ++j)
    tracks.push_back(
        breathing_track(600, kRate, 0.15 + 0.03 * static_cast<double>(j),
                        0x1234 + j));
  tracks.push_back({});                                   // too short: empty
  tracks.push_back(breathing_track(3, kRate, 0.2, 0x77)); // still too short

  std::vector<core::BreathSignal> batch(tracks.size());
  std::vector<core::ExtractJob> jobs;
  for (std::size_t j = 0; j < tracks.size(); ++j)
    jobs.push_back(core::ExtractJob{tracks[j], kRate, &batch[j]});
  signal::FftWorkspace ws;
  core::ExtractScratch scratch;
  extractor.extract_many(jobs, ws, scratch);

  for (std::size_t j = 0; j < tracks.size(); ++j) {
    const core::BreathSignal single = extractor.extract(tracks[j], kRate);
    ASSERT_EQ(batch[j].samples.size(), single.samples.size()) << "job " << j;
    EXPECT_TRUE(bits_equal(batch[j].sample_rate_hz, single.sample_rate_hz));
    for (std::size_t i = 0; i < single.samples.size(); ++i) {
      ASSERT_TRUE(bits_equal(batch[j].samples[i].value,
                             single.samples[i].value))
          << "job " << j << " sample " << i;
      ASSERT_TRUE(bits_equal(batch[j].samples[i].time_s,
                             single.samples[i].time_s))
          << "job " << j << " sample " << i;
    }
  }
}

TEST(BatchedExtraction, SharedForwardSweepMatchesTwoSweepComposition) {
  // extract_many transforms each track once and filters the bins twice.
  // Spelled out with one forward transform per filter (coarse low-pass
  // -> every D-th sample -> ACF seed -> main band filter) the output
  // must not move a bit, on both
  // paths: 600/601 samples at 20 Hz keep bins 0..20 and take the band
  // path; 601 samples at 2 Hz keep bins 0..201, above the crossover, and
  // take the full path, whose filter is fft_real_many followed by
  // bandlimit_inverse_many.
  const core::ExtractorConfig config;
  const core::BreathExtractor extractor(config);
  std::vector<std::vector<signal::TimedSample>> tracks;
  std::vector<double> rates;
  for (std::size_t j = 0; j < 8; ++j) {
    const double rate = j < 6 ? 20.0 : 2.0;
    tracks.push_back(breathing_track(600 + j % 2, rate,
                                     0.12 + 0.05 * static_cast<double>(j % 6),
                                     0xC0FFEE + j));
    rates.push_back(rate);
  }
  std::vector<core::BreathSignal> batch(tracks.size());
  std::vector<core::ExtractJob> jobs;
  for (std::size_t j = 0; j < tracks.size(); ++j)
    jobs.push_back(core::ExtractJob{tracks[j], rates[j], &batch[j]});
  signal::FftWorkspace ws;
  core::ExtractScratch scratch;
  extractor.extract_many(jobs, ws, scratch);

  signal::FftWorkspace ref_ws;
  std::size_t band_tracks = 0;
  const auto filter = [&](const std::vector<double>& values, double rate,
                          double f_lo, double f_hi, std::vector<double>& out) {
    const std::size_t top =
        signal::band_top_bin(values.size(), rate, config.cutoff_hz);
    if (!signal::BandPlan::preferred(values.size(), top)) {
      std::vector<cdouble> spectrum;
      const signal::RealFftJob forward{values, &spectrum};
      signal::fft_real_many({&forward, 1}, ref_ws.scratch);
      const signal::BandMaskJob mask{&spectrum, rate, f_lo, f_hi, &out};
      signal::bandlimit_inverse_many({&mask, 1}, ref_ws);
      return;
    }
    ++band_tracks;
    const auto plan = signal::BandPlan::get(values.size(), top);
    std::vector<cdouble> bins(top + 1);
    plan->forward(values, bins, ref_ws.scratch);
    signal::band_synthesize(*plan, bins, rate, f_lo, f_hi, out, ref_ws);
  };
  const double floor_hz =
      std::max(config.low_cut_hz, config.peak_search_floor_hz);
  for (std::size_t j = 0; j < tracks.size(); ++j) {
    const double rate = rates[j];
    std::vector<double> values;
    for (const signal::TimedSample& s : tracks[j]) values.push_back(s.value);
    signal::detrend_linear(values);
    std::vector<double> coarse;
    filter(values, rate, signal::kDcRejectHz, config.cutoff_hz, coarse);
    // The seed reads every D-th coarse sample (the band path synthesizes
    // only those, the same doubles).
    const std::size_t stride =
        signal::acf_decimation(rate, config.cutoff_hz);
    std::vector<double> seed_samples;
    for (std::size_t i = 0; i < coarse.size(); i += stride)
      seed_samples.push_back(coarse[i]);
    const double f0 = signal::autocorrelation_fundamental(
        seed_samples, rate, stride, floor_hz, config.cutoff_hz, ref_ws);
    ASSERT_GT(f0, 0.0) << "job " << j;
    double lo = std::max(config.low_cut_hz, config.adaptive_lo_frac * f0);
    double hi = std::min(config.cutoff_hz, config.adaptive_hi_frac * f0);
    if (hi <= lo) {
      lo = config.low_cut_hz;
      hi = config.cutoff_hz;
    }
    // The coarse path reaches the output only through the band edges,
    // so pin those too (the scratch keeps each job's band).
    EXPECT_TRUE(bits_equal(scratch.band_lo[j], lo)) << "job " << j;
    EXPECT_TRUE(bits_equal(scratch.band_hi[j], hi)) << "job " << j;
    std::vector<double> filtered;
    filter(values, rate, lo, hi, filtered);

    ASSERT_EQ(batch[j].samples.size(), filtered.size()) << "job " << j;
    for (std::size_t i = 0; i < filtered.size(); ++i)
      ASSERT_TRUE(bits_equal(batch[j].samples[i].value, filtered[i]))
          << "job " << j << " sample " << i;
  }
  EXPECT_EQ(band_tracks, 2u * 6u);  // two filters per 20 Hz track
}

// --- zero-allocation gate on the batched steady state -----------------------

TEST(BatchedZeroAlloc, WarmBandlimitSweepAllocatesNothing) {
  signal::FftWorkspace ws;
  constexpr double kRate = 20.0;
  constexpr std::size_t kJobs = 16;
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<cdouble>> spectra(kJobs);
  std::vector<std::vector<double>> outs(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j)
    inputs.push_back(random_real(600, 0xAA + j));
  std::vector<signal::RealFftJob> forward;
  std::vector<signal::BandMaskJob> masks;
  for (std::size_t j = 0; j < kJobs; ++j) {
    forward.push_back(signal::RealFftJob{inputs[j], &spectra[j]});
    masks.push_back(
        signal::BandMaskJob{&spectra[j], kRate, 0.05, 0.67, &outs[j]});
  }
  // The full path's filter: one forward sweep, then mask and inverse.
  const auto sweep = [&] {
    signal::fft_real_many(forward, ws.scratch);
    signal::bandlimit_inverse_many(masks, ws);
  };

  sweep();  // warm-up: plans, staging, outs
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 20; ++round) sweep();
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(BatchedZeroAlloc, WarmExtractManySweepAllocatesNothing) {
  // Default config: the adaptive band's coarse low-pass and ACF peak
  // search run through the same warm workspace as the filter sweep.
  // 600 and 601 samples (the realtime grid) take the band path; 601
  // samples at 2 Hz take the full path's pruned odd transform.
  const core::BreathExtractor extractor;
  constexpr std::size_t kJobs = 12;
  for (const auto& [samples, rate] :
       {std::pair{std::size_t{600}, 20.0}, std::pair{std::size_t{601}, 20.0},
        std::pair{std::size_t{601}, 2.0}}) {
    SCOPED_TRACE("samples=" + std::to_string(samples) +
                 " rate=" + std::to_string(rate));
    std::vector<std::vector<signal::TimedSample>> tracks;
    for (std::size_t j = 0; j < kJobs; ++j)
      tracks.push_back(breathing_track(samples, rate, 0.2, 0x99 + j));
    std::vector<core::BreathSignal> outs(kJobs);
    std::vector<core::ExtractJob> jobs;
    for (std::size_t j = 0; j < kJobs; ++j)
      jobs.push_back(core::ExtractJob{tracks[j], rate, &outs[j]});
    signal::FftWorkspace ws;
    core::ExtractScratch scratch;

    extractor.extract_many(jobs, ws, scratch);  // warm-up
    const std::uint64_t before = g_allocations.load();
    for (int round = 0; round < 20; ++round)
      extractor.extract_many(jobs, ws, scratch);
    EXPECT_EQ(g_allocations.load() - before, 0u);
  }
}

// --- scratch alignment ------------------------------------------------------

TEST(ScratchAlignment, PerSlotArenasAreCacheLineAligned) {
  static_assert(alignof(FftScratch) == 64);
  static_assert(alignof(core::AnalysisScratch) == 64);
  static_assert(sizeof(core::AnalysisScratch) % 64 == 0);

  std::vector<FftScratch> fft_slots(4);
  for (const FftScratch& s : fft_slots)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&s) % 64, 0u);
  std::vector<core::AnalysisScratch> slots(4);
  for (const core::AnalysisScratch& s : slots)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&s) % 64, 0u);
}

// --- dispatch gauge ---------------------------------------------------------

TEST(DispatchGauge, PipelineBindExportsActiveLevel) {
  obs::Observability hub(256);
  core::RealtimePipeline pipeline;
  pipeline.bind_observability(hub);
  const obs::MetricsSnapshot snap = hub.metrics().snapshot();
  bool found = false;
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name != "dsp_simd_level") continue;
    found = true;
    EXPECT_EQ(g.value,
              static_cast<double>(signal::simd::active_level_value()));
  }
  EXPECT_TRUE(found) << "dsp_simd_level gauge missing from snapshot";
}

// --- pipeline event-log identity gates --------------------------------------

core::SoakConfig dsp_soak(std::uint64_t seed) {
  core::SoakConfig cfg;
  cfg.n_users = 4;
  cfg.tags_per_user = 2;
  cfg.duration_s = 120.0;
  cfg.chaos = core::ChaosConfig::composite(seed);
  return cfg;
}

void expect_same_samples(const std::vector<signal::TimedSample>& a,
                         const std::vector<signal::TimedSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

void expect_same_analysis(const core::UserAnalysis& a,
                          const core::UserAnalysis& b) {
  EXPECT_EQ(a.user_id, b.user_id);
  EXPECT_EQ(a.antenna_used, b.antenna_used);
  EXPECT_EQ(a.reads_used, b.reads_used);
  EXPECT_EQ(a.streams_used, b.streams_used);
  EXPECT_EQ(a.window_s, b.window_s);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.last_read_s, b.last_read_s);
  EXPECT_EQ(a.tail_gap_s, b.tail_gap_s);
  EXPECT_EQ(a.max_gap_s, b.max_gap_s);
  EXPECT_EQ(a.coverage, b.coverage);
  expect_same_samples(a.fused_track, b.fused_track);
  EXPECT_EQ(a.track_rate_hz, b.track_rate_hz);
  expect_same_samples(a.breath.samples, b.breath.samples);
  EXPECT_EQ(a.breath.sample_rate_hz, b.breath.sample_rate_hz);
  EXPECT_EQ(a.rate.rate_bpm, b.rate.rate_bpm);
  EXPECT_EQ(a.rate.reliable, b.rate.reliable);
  ASSERT_EQ(a.rate.instantaneous.size(), b.rate.instantaneous.size());
  for (std::size_t i = 0; i < a.rate.instantaneous.size(); ++i) {
    EXPECT_EQ(a.rate.instantaneous[i].time_s, b.rate.instantaneous[i].time_s);
    EXPECT_EQ(a.rate.instantaneous[i].rate_bpm,
              b.rate.instantaneous[i].rate_bpm);
  }
  ASSERT_EQ(a.rate.crossings.size(), b.rate.crossings.size());
  for (std::size_t i = 0; i < a.rate.crossings.size(); ++i) {
    EXPECT_EQ(a.rate.crossings[i].time_s, b.rate.crossings[i].time_s);
    EXPECT_EQ(a.rate.crossings[i].direction, b.rate.crossings[i].direction);
  }
  ASSERT_EQ(a.antenna_scores.size(), b.antenna_scores.size());
  for (std::size_t i = 0; i < a.antenna_scores.size(); ++i) {
    EXPECT_EQ(a.antenna_scores[i].antenna_id, b.antenna_scores[i].antenna_id);
    EXPECT_EQ(a.antenna_scores[i].read_rate_hz,
              b.antenna_scores[i].read_rate_hz);
    EXPECT_EQ(a.antenna_scores[i].mean_rssi_dbm,
              b.antenna_scores[i].mean_rssi_dbm);
    EXPECT_EQ(a.antenna_scores[i].score, b.antenna_scores[i].score);
  }
}

// The batch a user is analysed in must never change a single output
// bit: analyze_users over seven users in one call, one by one and in
// batches of three (through one reused scratch) agree field for field.
// Users 1-5 breathe on one to three tags over one or two antennas, user
// 6 has one read per tag and user 7 none at all.
TEST(PipelineIdentity, EventLogByteIdenticalAcrossBatchSizes) {
  core::StreamDemux demux;
  for (std::uint64_t user = 1; user <= 6; ++user) {
    const double step = user == 6 ? 60.0 : 0.1 + 0.02 * static_cast<double>(user);
    for (std::uint32_t tag = 1; tag <= 1 + user % 3; ++tag) {
      for (double t = 0.0; t < 30.0; t += step) {
        core::TagRead r;
        r.time_s = t + 0.01 * static_cast<double>(tag);
        r.epc = rfid::Epc96::from_user_tag(user, tag);
        r.antenna_id = static_cast<std::uint8_t>(1 + (tag + user) % 2);
        r.frequency_hz = 920.625e6;
        r.rssi_dbm = -50.0 - static_cast<double>(user);
        r.phase_rad = common::wrap_phase_2pi(
            0.5 * static_cast<double>(tag) +
            0.3 * std::sin(common::kTwoPi * (0.15 + 0.02 * static_cast<double>(user)) * t));
        demux.add(r);
      }
    }
  }
  const std::vector<std::uint64_t> ids = {1, 2, 3, 4, 5, 6, 7};
  const core::BreathMonitor monitor;
  core::AnalysisScratch scratch;
  std::vector<core::UserAnalysis> whole(ids.size());
  monitor.analyze_users(demux, ids, 0.0, 30.0, &scratch, whole);
  ASSERT_FALSE(whole[0].breath.samples.empty());
  ASSERT_TRUE(whole[6].fused_track.empty());
  for (const std::size_t batch : {1u, 3u}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    std::vector<core::UserAnalysis> chunked(ids.size());
    for (std::size_t begin = 0; begin < ids.size(); begin += batch) {
      const std::size_t count = std::min(batch, ids.size() - begin);
      monitor.analyze_users(
          demux, std::span<const std::uint64_t>(&ids[begin], count), 0.0,
          30.0, &scratch,
          std::span<core::UserAnalysis>(&chunked[begin], count));
    }
    for (std::size_t i = 0; i < ids.size(); ++i)
      expect_same_analysis(whole[i], chunked[i]);
  }
}

// Flipping the kernel table between scalar and the machine's vector
// unit must leave the event log byte-identical — the realtime proof of
// the kernel-level bit-equivalence contract.
TEST(PipelineIdentity, EventLogByteIdenticalAcrossSimdLevels) {
  if (vector_table() == nullptr)
    GTEST_SKIP() << "no vector unit on this build/machine";
  DispatchRestore restore;
  signal::simd::override_level_for_testing(SimdLevel::Scalar);
  const auto scalar = core::run_soak(dsp_soak(0x51D));
  signal::simd::override_level_for_testing(signal::simd::detected_level());
  const auto vector = core::run_soak(dsp_soak(0x51D));
  EXPECT_TRUE(scalar.ok()) << scalar.violations.front();
  EXPECT_TRUE(vector.ok()) << vector.violations.front();
  ASSERT_GT(scalar.event_log.size(), 0u);
  EXPECT_EQ(scalar.event_log, vector.event_log);
}

}  // namespace
}  // namespace tagbreathe
