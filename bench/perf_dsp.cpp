// google-benchmark microbenchmarks of the DSP kernels on the TagBreathe
// hot path: FFT, FIR design/filtering, preprocessing, fusion, the ACF
// fundamental search, the batched extraction sweep with its band-path
// stages, and the band/full crossover sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/breath_extractor.hpp"
#include "core/fusion.hpp"
#include "core/phase_preprocess.hpp"
#include "signal/fft.hpp"
#include "signal/filters.hpp"
#include "signal/fir.hpp"
#include "signal/simd/dispatch.hpp"
#include "signal/simd/kernels.hpp"
#include "signal/spectrum.hpp"

using namespace tagbreathe;

namespace {

std::vector<double> noise_signal(std::size_t n, std::uint64_t seed = 3) {
  common::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  return x;
}

std::vector<signal::cdouble> noise_complex(std::size_t n, std::uint64_t seed = 1) {
  common::Rng rng(seed);
  std::vector<signal::cdouble> data(n);
  for (auto& c : data) c = {rng.normal(), rng.normal()};
  return data;
}

void BM_FftPow2(benchmark::State& state) {
  // Legacy planless kernel alone: a forward/inverse round trip in place
  // keeps the data bounded without a per-iteration vector copy polluting
  // the timing (items/iteration = 2 transforms).
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = noise_complex(n);
  for (auto _ : state) {
    signal::fft_pow2(data, /*inverse=*/false);
    signal::fft_pow2(data, /*inverse=*/true);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(2 * state.iterations());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftPow2)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

void BM_FftPow2Planned(benchmark::State& state) {
  // Plan-based kernel alone: precomputed bit-reversal + twiddles,
  // out-of-place into a warm buffer, zero steady-state allocation.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = noise_complex(n);
  const auto plan = signal::FftPlan::get(n, signal::FftDirection::Forward);
  signal::FftScratch scratch;
  std::vector<signal::cdouble> out(n);
  for (auto _ : state) {
    plan->execute(data, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftPow2Planned)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

void BM_FftBluestein(benchmark::State& state) {
  // Non-power-of-two length exercises the chirp-z path; this is the
  // planless one-shot shape (allocates the result each call).
  const auto n = static_cast<std::size_t>(state.range(0)) + 1;
  const auto data = noise_complex(n);
  for (auto _ : state) {
    auto out = signal::fft(data);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftBluestein)->RangeMultiplier(4)->Range(256, 16384);

void BM_FftBluesteinPlanned(benchmark::State& state) {
  // Chirp-z with the chirp and kernel spectrum precomputed in the plan
  // and the convolution buffer reused from caller scratch.
  const auto n = static_cast<std::size_t>(state.range(0)) + 1;
  const auto data = noise_complex(n);
  const auto plan = signal::FftPlan::get(n, signal::FftDirection::Forward);
  signal::FftScratch scratch;
  std::vector<signal::cdouble> out(n);
  for (auto _ : state) {
    plan->execute(data, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftBluesteinPlanned)->RangeMultiplier(4)->Range(256, 16384);

void BM_FftRealWiden(benchmark::State& state) {
  // Real input through the full complex transform (widen + N-point FFT).
  const auto x = noise_signal(static_cast<std::size_t>(state.range(0)));
  std::vector<signal::cdouble> wide(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); ++i) wide[i] = {x[i], 0.0};
    auto out = signal::fft(wide);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftRealWiden)->Arg(600)->Arg(2400)->Arg(9600);

void BM_FftRealPacked(benchmark::State& state) {
  // Even/odd packing: one N/2-point transform plus untangling.
  const auto x = noise_signal(static_cast<std::size_t>(state.range(0)));
  signal::FftScratch scratch;
  std::vector<signal::cdouble> out;
  for (auto _ : state) {
    signal::fft_real_into(x, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftRealPacked)->Arg(600)->Arg(2400)->Arg(9600);

void BM_FirFiltFilt(benchmark::State& state) {
  const auto x = noise_signal(static_cast<std::size_t>(state.range(0)));
  const auto taps = signal::design_lowpass(0.67, 20.0, 101);
  for (auto _ : state) {
    auto y = signal::filtfilt(x, taps);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FirFiltFilt)->Arg(600)->Arg(2400);

std::vector<double> breathing_signal(std::size_t n, std::uint64_t seed = 3) {
  // 20 Hz track with a 10 bpm oscillation + noise.
  std::vector<double> x = noise_signal(n, seed);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.01 * std::sin(2.0 * 3.14159 * 0.1667 * static_cast<double>(i) / 20.0) +
           0.003 * x[i];
  return x;
}

void BM_AcfFundamental(benchmark::State& state) {
  // range(0) samples at 20 Hz: 600 is the realtime engine's 30 s window
  // (the adaptive-band seed), 2400 a 120 s offline track. The seed reads
  // every D-th sample (D = 4 here), as extract_many hands it over, through
  // one warm workspace.
  const auto x = breathing_signal(static_cast<std::size_t>(state.range(0)));
  const std::size_t stride = signal::acf_decimation(20.0, 0.67);
  std::vector<double> y;
  for (std::size_t i = 0; i < x.size(); i += stride) y.push_back(x[i]);
  signal::FftWorkspace ws;
  for (auto _ : state) {
    const double f = signal::autocorrelation_fundamental(y, 20.0, stride,
                                                         0.075, 0.67, ws);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_AcfFundamental)->Arg(600)->Arg(2400);

// --- SIMD dispatch: scalar baseline vs the active vector level --------------
//
// range(0) selects the kernel table: 0 pins the scalar reference, 1 the
// level the hardware probe picked (on a machine without AVX2/NEON the
// override falls back to scalar, so the two rows simply coincide). The
// label records which table actually ran. Outputs are bit-identical
// across rows by the dispatch contract — only the time differs.

struct LevelGuard {
  explicit LevelGuard(benchmark::State& state) {
    const bool vector = state.range(0) != 0;
    const auto want = vector ? signal::simd::detected_level()
                             : signal::simd::SimdLevel::Scalar;
    const auto got = signal::simd::override_level_for_testing(want);
    state.SetLabel(signal::simd::simd_level_name(got));
  }
  ~LevelGuard() { signal::simd::reset_dispatch_for_testing(); }
};

void BM_PhaseDeltasKernel(benchmark::State& state) {
  // The Eq. 3 delta loop alone: wrap-to-(-pi, pi] plus per-channel
  // scaling over one preprocessed stream's worth of samples.
  LevelGuard guard(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto dphase = noise_signal(n, 21);
  std::vector<double> scale(n, 0.0259);
  std::vector<double> out(n);
  const auto& k = signal::simd::kernels();
  for (auto _ : state) {
    k.phase_deltas(dphase.data(), scale.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PhaseDeltasKernel)
    ->ArgNames({"vector", "n"})
    ->ArgsProduct({{0, 1}, {64, 1024, 16384}});

void BM_ButterflyKernel(benchmark::State& state) {
  // One mid-size butterfly stage (half = n/4: strided blocks, the shape
  // most stages take) over a pow2 array.
  LevelGuard guard(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  auto data = noise_complex(n, 22);
  const auto tw = noise_complex(n / 4, 23);
  const auto& k = signal::simd::kernels();
  for (auto _ : state) {
    k.butterfly_stage(data.data(), n, n / 4, tw.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ButterflyKernel)
    ->ArgNames({"vector", "n"})
    ->ArgsProduct({{0, 1}, {1024, 16384}});

void BM_FftPlannedLevel(benchmark::State& state) {
  // The planned transform at the realtime engine's track lengths:
  // 600 (Bluestein, the 30 s fused track) and 1024 (pure pow2).
  LevelGuard guard(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto data = noise_complex(n, 24);
  const auto plan = signal::FftPlan::get(n, signal::FftDirection::Forward);
  signal::FftScratch scratch;
  std::vector<signal::cdouble> out(n);
  for (auto _ : state) {
    plan->execute(data, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FftPlannedLevel)
    ->ArgNames({"vector", "n"})
    ->ArgsProduct({{0, 1}, {600, 1024}});

void BM_ExtractManyBatch(benchmark::State& state) {
  // The realtime extraction stage as one shard chunk runs it: 16 tracks
  // through one extract_many sweep with the default config (adaptive
  // band on, FFT low-pass), warm workspace and scratch. range(0) is the
  // track length at 20 Hz: 600 samples is 30 s; the pipeline's 30 s
  // fusion grid includes both window ends, so its tracks have 601.
  // Items are tracks.
  constexpr std::size_t kTracks = 16;
  const auto samples = static_cast<std::size_t>(state.range(0));
  constexpr double kRate = 20.0;
  std::vector<std::vector<signal::TimedSample>> tracks(kTracks);
  for (std::size_t j = 0; j < kTracks; ++j) {
    const auto x = breathing_signal(samples, 41 + j);
    for (std::size_t i = 0; i < samples; ++i)
      tracks[j].push_back(
          signal::TimedSample{static_cast<double>(i) / kRate, x[i]});
  }
  const core::BreathExtractor extractor;
  std::vector<core::BreathSignal> outs(kTracks);
  std::vector<core::ExtractJob> jobs;
  for (std::size_t j = 0; j < kTracks; ++j)
    jobs.push_back(core::ExtractJob{tracks[j], kRate, &outs[j]});
  signal::FftWorkspace ws;
  core::ExtractScratch scratch;
  for (auto _ : state) {
    extractor.extract_many(jobs, ws, scratch);
    benchmark::DoNotOptimize(outs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTracks));
}
BENCHMARK(BM_ExtractManyBatch)->Arg(600)->Arg(601)->Unit(benchmark::kMicrosecond);

void BM_ExtractStage(benchmark::State& state) {
  // One stage of the band-path extraction of the BM_ExtractManyBatch/601
  // tracks, so the stages' shares of that row can be read off: 0 = the
  // forward transform (bins 0..20), 1 = the coarse synthesis (bins
  // 1..20, every D-th sample), 2 = the ACF seed on those samples, 3 = the
  // main synthesis (the adaptive band around the seed). Items are tracks.
  constexpr std::size_t kTracks = 16;
  constexpr std::size_t kSamples = 601;
  constexpr double kRate = 20.0;
  const core::ExtractorConfig config;
  const double floor_hz =
      std::max(config.low_cut_hz, config.peak_search_floor_hz);
  const std::size_t top =
      signal::band_top_bin(kSamples, kRate, config.cutoff_hz);
  const auto plan = signal::BandPlan::get(kSamples, top);
  const std::size_t stride = signal::acf_decimation(kRate, config.cutoff_hz);
  signal::FftWorkspace ws;
  std::vector<std::vector<double>> values(kTracks);
  std::vector<std::vector<signal::cdouble>> bins(
      kTracks, std::vector<signal::cdouble>(top + 1));
  std::vector<std::vector<double>> coarse(kTracks);
  std::vector<double> lo(kTracks), hi(kTracks);
  for (std::size_t j = 0; j < kTracks; ++j) {
    values[j] = breathing_signal(kSamples, 41 + j);
    signal::detrend_linear(values[j]);
    plan->forward(values[j], bins[j], ws.scratch);
    signal::band_synthesize(*plan, bins[j], kRate, signal::kDcRejectHz,
                            config.cutoff_hz, coarse[j], ws, stride);
    const double f0 = signal::autocorrelation_fundamental(
        coarse[j], kRate, stride, floor_hz, config.cutoff_hz, ws);
    lo[j] = std::max(config.low_cut_hz, config.adaptive_lo_frac * f0);
    hi[j] = std::min(config.cutoff_hz, config.adaptive_hi_frac * f0);
  }
  std::vector<double> out;
  const auto stage = state.range(0);
  for (auto _ : state) {
    for (std::size_t j = 0; j < kTracks; ++j) {
      switch (stage) {
        case 0: plan->forward(values[j], bins[j], ws.scratch); break;
        case 1:
          signal::band_synthesize(*plan, bins[j], kRate, signal::kDcRejectHz,
                                  config.cutoff_hz, out, ws, stride);
          break;
        case 2:
          benchmark::DoNotOptimize(signal::autocorrelation_fundamental(
              coarse[j], kRate, stride, floor_hz, config.cutoff_hz, ws));
          break;
        default:
          signal::band_synthesize(*plan, bins[j], kRate, lo[j], hi[j], out,
                                  ws);
          break;
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTracks));
}
BENCHMARK(BM_ExtractStage)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

// The band/full crossover sweep behind signal::BandPlan::preferred. Both
// rows run one extraction's transforms on an N-sample track whose
// cutoff keeps bins 0..K: the forward transform, the coarse low-pass
// (bins 1..K; the band path synthesizes only the seed's every D-th
// sample) and a main band filter over the middle third of them.
// range(0) = N, range(1) = K; the track is 20 Hz noise.
struct CrossoverCase {
  std::vector<double> x;
  double f_hi = 0.0;
  double main_lo = 0.0;
  double main_hi = 0.0;
  static constexpr double kRate = 20.0;

  explicit CrossoverCase(const benchmark::State& state)
      : x(noise_signal(static_cast<std::size_t>(state.range(0)))) {
    const double bin = kRate / static_cast<double>(x.size());
    f_hi = (static_cast<double>(state.range(1)) + 0.5) * bin;
    main_lo = f_hi / 3.0;
    main_hi = 2.0 * f_hi / 3.0;
  }
};

void BM_BandRoundTrip(benchmark::State& state) {
  const CrossoverCase c(state);
  const auto top = static_cast<std::size_t>(state.range(1));
  const auto plan = signal::BandPlan::get(c.x.size(), top);
  signal::FftWorkspace ws;
  std::vector<signal::cdouble> bins(top + 1);
  std::vector<double> coarse;
  std::vector<double> filtered;
  for (auto _ : state) {
    plan->forward(c.x, bins, ws.scratch);
    signal::band_synthesize(*plan, bins, c.kRate, signal::kDcRejectHz,
                            c.f_hi, coarse, ws,
                            signal::acf_decimation(c.kRate, c.f_hi));
    signal::band_synthesize(*plan, bins, c.kRate, c.main_lo, c.main_hi,
                            filtered, ws);
    benchmark::DoNotOptimize(filtered.data());
  }
}

void BM_FullRoundTrip(benchmark::State& state) {
  const CrossoverCase c(state);
  signal::FftWorkspace ws;
  std::vector<signal::cdouble> spectrum;
  std::vector<signal::cdouble> copy;
  std::vector<double> coarse;
  std::vector<double> filtered;
  for (auto _ : state) {
    signal::fft_real_into(c.x, spectrum, ws.scratch);
    copy.assign(spectrum.begin(), spectrum.end());
    const signal::BandMaskJob jobs[2] = {
        {&copy, c.kRate, signal::kDcRejectHz, c.f_hi, &coarse},
        {&spectrum, c.kRate, c.main_lo, c.main_hi, &filtered}};
    signal::bandlimit_inverse_many(jobs, ws);
    benchmark::DoNotOptimize(filtered.data());
  }
}

void crossover_args(benchmark::internal::Benchmark* b) {
  for (const int n : {64, 128, 256, 512, 601, 1024, 1200, 2048, 2400, 4096})
    for (const int k : {2, 5, 10, 20, 40, 50, 60, 70, 80, 160})
      if (2 * k < n) b->Args({n, k});
}
BENCHMARK(BM_BandRoundTrip)->Apply(crossover_args)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FullRoundTrip)->Apply(crossover_args)
    ->Unit(benchmark::kMicrosecond);

void BM_FuseStreams(benchmark::State& state) {
  // Three 120 s delta streams at ~60 Hz each.
  common::Rng rng(5);
  std::vector<std::vector<signal::TimedSample>> streams(3);
  for (auto& s : streams) {
    double t = 0.0;
    while (t < 120.0) {
      t += rng.exponential(60.0);
      s.push_back(signal::TimedSample{t, rng.normal() * 1e-3});
    }
  }
  for (auto _ : state) {
    auto fused = core::fuse_streams(streams);
    benchmark::DoNotOptimize(fused.track.data());
  }
}
BENCHMARK(BM_FuseStreams);

}  // namespace

// Custom main: alongside the normal console output, mirror results as
// JSON into BENCH_dsp.json (override the path with the
// TAGBREATHE_BENCH_JSON environment variable, or pass an explicit
// --benchmark_out, which takes precedence) so CI can check the rows.
int main(int argc, char** argv) {
  const char* json_path = std::getenv("TAGBREATHE_BENCH_JSON");
  std::string out_flag = std::string("--benchmark_out=") +
                         (json_path != nullptr ? json_path : "BENCH_dsp.json");
  std::string format_flag = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  args.push_back(out_flag.data());
  args.push_back(format_flag.data());
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
