// Multi-core analysis engine tests: FFT plan cache vs the legacy
// one-shot path (pow2, Bluestein, prime lengths), the real-signal
// packing transform, allocation-free steady-state filtering (counting
// operator-new hook), concurrent plan lookups (run under TSan via the
// `concurrency` ctest label), the AnalysisPool contract, dirty-window
// coasting, and serial-vs-parallel pipeline determinism (byte-identical
// chaos-soak event logs).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "core/analysis_pool.hpp"
#include "core/chaos.hpp"
#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "obs/observability.hpp"
#include "signal/fft.hpp"
#include "signal/spectrum.hpp"

// --- counting operator-new hook ---------------------------------------------
// Replaces the global allocation functions for this binary so the
// steady-state zero-allocation claim is asserted, not assumed. The
// counter is always live (cheap relaxed increment); tests read deltas.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

// GCC pairs call sites against the *default* operator new and warns that
// std::free mismatches it; our replacement new allocates with malloc, so
// the pairing is in fact correct.
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

std::vector<cdouble> test_signal(std::size_t n, double stride = 0.37) {
  std::vector<cdouble> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = stride * static_cast<double>(i);
    x[i] = cdouble(std::sin(1.3 * t) + 0.2 * std::cos(5.1 * t),
                   0.4 * std::sin(2.9 * t));
  }
  return x;
}

/// O(n^2) reference DFT.
std::vector<cdouble> naive_dft(const std::vector<cdouble>& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<cdouble> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    cdouble sum(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * common::kTwoPi * static_cast<double>(k) *
                           static_cast<double>(j) / static_cast<double>(n);
      sum += x[j] * cdouble(std::cos(angle), std::sin(angle));
    }
    out[k] = inverse ? sum / static_cast<double>(n) : sum;
  }
  return out;
}

// --- next_pow2 contract -----------------------------------------------------

TEST(NextPow2, DocumentedContract) {
  EXPECT_EQ(signal::next_pow2(0), 1u);  // trivial size by contract
  EXPECT_EQ(signal::next_pow2(1), 1u);
  EXPECT_EQ(signal::next_pow2(2), 2u);
  EXPECT_EQ(signal::next_pow2(3), 4u);
  EXPECT_EQ(signal::next_pow2(4096), 4096u);
  EXPECT_EQ(signal::next_pow2(4097), 8192u);
  const std::size_t max_pow2 =
      (std::numeric_limits<std::size_t>::max() >> 1) + 1;
  EXPECT_EQ(signal::next_pow2(max_pow2), max_pow2);
  EXPECT_THROW(signal::next_pow2(max_pow2 + 1), std::overflow_error);
  EXPECT_THROW(signal::next_pow2(std::numeric_limits<std::size_t>::max()),
               std::overflow_error);
}

// --- plan output vs legacy / reference paths --------------------------------

class PlanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanSizes, PlanMatchesNaiveDftAndRoundTrips) {
  const std::size_t n = GetParam();
  const auto x = test_signal(n);
  const auto expected = naive_dft(x, /*inverse=*/false);

  FftScratch scratch;
  std::vector<cdouble> out(n);
  FftPlan::get(n, FftDirection::Forward)->execute(x, out, scratch);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(out[k].real(), expected[k].real(), 1e-8) << "n=" << n << " k=" << k;
    EXPECT_NEAR(out[k].imag(), expected[k].imag(), 1e-8) << "n=" << n << " k=" << k;
  }

  // Inverse plan round-trips to the input.
  std::vector<cdouble> back(n);
  FftPlan::get(n, FftDirection::Inverse)->execute(out, back, scratch);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(back[k].real(), x[k].real(), 1e-9);
    EXPECT_NEAR(back[k].imag(), x[k].imag(), 1e-9);
  }

  // One-shot API (which delegates to the cache) agrees with the plan.
  const auto one_shot = signal::fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(one_shot[k].real(), out[k].real(), 1e-10);
    EXPECT_NEAR(one_shot[k].imag(), out[k].imag(), 1e-10);
  }
}

TEST_P(PlanSizes, InPlaceExecutionMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  const auto x = test_signal(n, 0.21);
  FftScratch scratch;
  std::vector<cdouble> out(n);
  const auto plan = FftPlan::get(n, FftDirection::Forward);
  plan->execute(x, out, scratch);
  std::vector<cdouble> in_place = x;
  plan->execute(in_place, scratch);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_DOUBLE_EQ(in_place[k].real(), out[k].real());
    EXPECT_DOUBLE_EQ(in_place[k].imag(), out[k].imag());
  }
}

// Pow2, Bluestein composites, and primes (worst case for chirp-z).
INSTANTIATE_TEST_SUITE_P(Sizes, PlanSizes,
                         ::testing::Values(1, 2, 3, 4, 8, 13, 16, 31, 60, 64,
                                           97, 100, 127, 128, 251, 360));

TEST(PlanPow2, MatchesLegacyFftPow2Kernel) {
  for (const std::size_t n : {2u, 16u, 256u, 1024u}) {
    const auto x = test_signal(n, 0.11);
    std::vector<cdouble> legacy = x;
    signal::fft_pow2(legacy);

    FftScratch scratch;
    std::vector<cdouble> planned(n);
    FftPlan::get(n, FftDirection::Forward)->execute(x, planned, scratch);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(planned[k].real(), legacy[k].real(), 1e-9 * static_cast<double>(n));
      EXPECT_NEAR(planned[k].imag(), legacy[k].imag(), 1e-9 * static_cast<double>(n));
    }
  }
}

TEST(RealFft, PackedEvenLengthMatchesComplexTransform) {
  // Even lengths exercise the N/2 packing trick (including 2*odd, where
  // the half-size transform itself is Bluestein); odd lengths the pruned
  // Bluestein.
  for (const std::size_t n : {2u, 6u, 30u, 31u, 64u, 97u, 100u, 240u}) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = std::sin(0.41 * static_cast<double>(i)) +
             0.3 * std::cos(1.7 * static_cast<double>(i));
    std::vector<cdouble> wide(n);
    for (std::size_t i = 0; i < n; ++i) wide[i] = cdouble(x[i], 0.0);
    const auto expected = signal::fft(wide);
    const auto packed = signal::fft_real(x);
    ASSERT_EQ(packed.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(packed[k].real(), expected[k].real(), 1e-9) << "n=" << n;
      EXPECT_NEAR(packed[k].imag(), expected[k].imag(), 1e-9) << "n=" << n;
    }
    // Round trip back to the real signal.
    FftScratch scratch;
    std::vector<double> back(n);
    RealFftPlan::get(n)->execute_inverse(packed, back, scratch);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST(PlanCache, SharedAcrossLookupsAndClearable) {
  FftPlan::clear_cache();
  RealFftPlan::clear_cache();
  const auto a = FftPlan::get(48, FftDirection::Forward);
  const auto b = FftPlan::get(48, FftDirection::Forward);
  EXPECT_EQ(a.get(), b.get());  // one shared plan per (size, direction)
  EXPECT_NE(a.get(), FftPlan::get(48, FftDirection::Inverse).get());
  EXPECT_GE(FftPlan::cache_size(), 2u);
  FftPlan::clear_cache();
  EXPECT_EQ(FftPlan::cache_size(), 0u);
  // Plans held by callers survive a cache clear.
  FftScratch scratch;
  std::vector<cdouble> out(48);
  EXPECT_NO_THROW(a->execute(test_signal(48), out, scratch));
}

// --- filters: zero-allocation steady state ----------------------------------

TEST(PlannedFilters, SteadyStateLowpassPerformsZeroAllocations) {
  // Both a pow2 window and a Bluestein (non-pow2) window: the chirp and
  // kernel spectrum come from the plan, the convolution buffer from the
  // caller's workspace.
  for (const std::size_t n : {256u, 240u, 250u}) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = std::sin(0.05 * static_cast<double>(i));
    signal::FftWorkspace ws;
    std::vector<cdouble> spectrum;
    std::vector<double> out;
    // The full-path low-pass: forward transform, then mask and inverse.
    const auto lowpass = [&] {
      signal::fft_real_into(x, spectrum, ws.scratch);
      const signal::BandMaskJob job{&spectrum, 20.0, signal::kDcRejectHz,
                                    0.67, &out};
      signal::bandlimit_inverse_many({&job, 1}, ws);
    };
    // Warm-up: builds/fetches plans, grows workspace buffers.
    lowpass();
    lowpass();

    const std::uint64_t before = g_allocations.load();
    lowpass();
    lowpass();
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u) << "n=" << n;
  }
}

TEST(PlannedFilters, SteadyStatePlanExecuteIsAllocationFree) {
  for (const std::size_t n : {1024u, 251u}) {
    const auto x = test_signal(n);
    const auto plan = FftPlan::get(n, FftDirection::Forward);
    FftScratch scratch;
    std::vector<cdouble> out(n);
    plan->execute(x, out, scratch);  // warm scratch

    const std::uint64_t before = g_allocations.load();
    plan->execute(x, out, scratch);
    plan->execute(x, out, scratch);
    EXPECT_EQ(g_allocations.load() - before, 0u) << "n=" << n;
  }
}

// --- concurrent plan lookups (TSan gate) ------------------------------------

TEST(PlanCacheConcurrency, RacingLookupsAndExecutionsAreSafe) {
  FftPlan::clear_cache();
  RealFftPlan::clear_cache();
  constexpr std::size_t kThreads = 8;
  const std::vector<std::size_t> sizes = {16, 60, 64, 97, 128, 240, 251, 256};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FftScratch scratch;
      for (std::size_t round = 0; round < 6; ++round) {
        const std::size_t n = sizes[(t + round) % sizes.size()];
        const auto plan = FftPlan::get(
            n, round % 2 == 0 ? FftDirection::Forward : FftDirection::Inverse);
        const auto x = test_signal(n);
        std::vector<cdouble> out(n);
        plan->execute(x, out, scratch);
        // Sanity: DC bin of the forward transform is the sum.
        if (plan->direction() == FftDirection::Forward) {
          cdouble sum(0.0, 0.0);
          for (const auto& v : x) sum += v;
          if (std::abs(out[0] - sum) > 1e-6) failures.fetch_add(1);
        }
        std::vector<double> real_in(n, 1.0);
        std::vector<cdouble> real_out(n);
        RealFftPlan::get(n)->execute(real_in, real_out, scratch);
        if (std::abs(real_out[0].real() - static_cast<double>(n)) > 1e-9)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- AnalysisPool contract --------------------------------------------------

TEST(AnalysisPool, RunsEveryIndexExactlyOnceAcrossThreadCounts) {
  for (const std::size_t threads : {0u, 1u, 3u}) {
    core::AnalysisPool pool(threads);
    EXPECT_EQ(pool.slots(), threads + 1);
    constexpr std::size_t kJobs = 200;
    std::vector<std::atomic<int>> hits(kJobs);
    for (auto& h : hits) h.store(0);
    std::atomic<int> bad_slot{0};
    for (int round = 0; round < 3; ++round) {
      pool.run(kJobs, [&](std::size_t i, std::size_t slot) {
        hits[i].fetch_add(1);
        if (slot >= pool.slots()) bad_slot.fetch_add(1);
      });
    }
    for (std::size_t i = 0; i < kJobs; ++i)
      EXPECT_EQ(hits[i].load(), 3) << "threads=" << threads << " i=" << i;
    EXPECT_EQ(bad_slot.load(), 0);
    pool.run(0, [&](std::size_t, std::size_t) { bad_slot.fetch_add(1); });
    EXPECT_EQ(bad_slot.load(), 0);
  }
}

TEST(AnalysisPool, PropagatesTheFirstJobException) {
  core::AnalysisPool pool(2);
  EXPECT_THROW(
      pool.run(16,
               [](std::size_t i, std::size_t) {
                 if (i == 7) throw std::runtime_error("job failed");
               }),
      std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> count{0};
  pool.run(8, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

// --- analysis scratch does not change results -------------------------------

TEST(AnalysisScratch, ScratchedAnalysisIsBitIdenticalToScratchless) {
  core::StreamDemux demux;
  for (std::uint64_t user = 1; user <= 2; ++user) {
    for (double t = 0.0; t < 30.0; t += 0.125) {
      core::TagRead r;
      r.time_s = t;
      r.epc = rfid::Epc96::from_user_tag(user, 1);
      r.antenna_id = 1;
      r.frequency_hz = 920.625e6;
      r.rssi_dbm = -55.0;
      r.phase_rad = common::wrap_phase_2pi(
          1.0 + 0.35 * std::sin(common::kTwoPi * 0.2 * t +
                                static_cast<double>(user)));
      demux.add(r);
    }
  }
  core::BreathMonitor monitor;
  core::AnalysisScratch scratch;
  for (std::uint64_t user = 1; user <= 2; ++user) {
    const auto plain = monitor.analyze_user(demux, user, 0.0, 30.0);
    const auto scratched = monitor.analyze_user(demux, user, 0.0, 30.0,
                                                &scratch);
    EXPECT_EQ(plain.health, scratched.health);
    EXPECT_DOUBLE_EQ(plain.rate.rate_bpm, scratched.rate.rate_bpm);
    ASSERT_EQ(plain.breath.samples.size(), scratched.breath.samples.size());
    for (std::size_t i = 0; i < plain.breath.samples.size(); ++i)
      EXPECT_DOUBLE_EQ(plain.breath.samples[i].value,
                       scratched.breath.samples[i].value);
  }
}

// --- dirty-window coasting --------------------------------------------------

TEST(DirtyWindow, CleanUsersSkipReanalysisAndCoast) {
  core::PipelineConfig cfg;
  cfg.window_s = 12.0;
  cfg.warmup_s = 4.0;
  cfg.update_period_s = 1.0;
  cfg.signal_loss_s = 30.0;  // keep the quiet user tracked, not Lost
  cfg.skip_clean_users = true;
  core::RealtimePipeline pipeline(cfg);

  const auto feed = [&](std::uint64_t user, double t) {
    core::TagRead r;
    r.time_s = t;
    r.epc = rfid::Epc96::from_user_tag(user, 1);
    r.antenna_id = 1;
    r.frequency_hz = 920.625e6;
    r.rssi_dbm = -55.0;
    r.phase_rad = common::wrap_phase_2pi(
        1.0 + 0.3 * std::sin(common::kTwoPi * 0.25 * t));
    pipeline.push(r);
  };

  // Both users stream to t=10; user 2 then falls silent while user 1
  // continues to t=20.
  for (double t = 0.0; t <= 10.0; t += 0.125) {
    feed(1, t);
    feed(2, t + 0.01);
  }
  const std::size_t run_at_10 = pipeline.analyses_run();
  EXPECT_GT(run_at_10, 0u);
  for (double t = 10.125; t <= 20.0; t += 0.125) feed(1, t);

  // User 2 received no reads after t=10, so each later tick coasted on
  // its rate summary instead of re-running the Fig. 10 workflow.
  EXPECT_GT(pipeline.analyses_skipped(), 5u);
  EXPECT_NE(pipeline.rate_summary(2), nullptr);
  // User 1 kept being re-analysed.
  EXPECT_GT(pipeline.analyses_run(), run_at_10);
}

// A coasting user's apnea check still moves with the clock: each coasted
// tick's recent window covers less of the breath signal the last
// analysis saw. The
// user breathes deeply to t=33, then shallowly (still crossing zero) until
// the tag falls silent at t=41.875. The t=42 analysis still sees deep
// breaths in its recent 10 s; the coasted ticks after it do not, so the
// amplitude collapse (not crossing silence) raises the alert before
// signal loss fires at t=47. Reusing the analysis tick's recent peak on
// the coasted ticks would miss the alert.
TEST(DirtyWindow, ApneaFiresOnCoastedTick) {
  core::PipelineConfig cfg;
  cfg.skip_clean_users = true;
  std::vector<std::string> log;
  std::vector<std::size_t> skipped_at;
  const core::RealtimePipeline* observed = nullptr;
  core::RealtimePipeline pipeline(cfg, [&](const core::PipelineEvent& e) {
    log.push_back(core::format_soak_event(e));
    skipped_at.push_back(observed->analyses_skipped());
  });
  observed = &pipeline;

  for (double t = 0.0; t < 41.9; t += 0.125) {
    core::TagRead r;
    r.time_s = t;
    r.epc = rfid::Epc96::from_user_tag(1, 1);
    r.antenna_id = 1;
    r.frequency_hz = 920.625e6;
    r.rssi_dbm = -55.0;
    const double depth = t < 33.0 ? 0.3 : 0.075;
    r.phase_rad = common::wrap_phase_2pi(
        1.0 + depth * std::sin(common::kTwoPi * 0.25 * t));
    pipeline.push(r);
  }
  pipeline.advance_to(50.0);

  const std::vector<std::string> tail = {
      "t=000041.000 user=001 rate-update rate=014.881 reliable=1 health=ok",
      "t=000042.000 user=001 rate-update rate=015.014 reliable=1 health=ok",
      "t=000043.000 user=001 rate-update rate=015.014 reliable=1 health=ok",
      "t=000044.000 user=001 apnea-alert rate=000.000 reliable=0 health=ok",
      "t=000047.000 user=001 signal-lost rate=000.000 reliable=0 health=lost",
  };
  ASSERT_EQ(log.size(), 36u);
  for (std::size_t i = 0; i + tail.size() < log.size(); ++i)
    EXPECT_NE(log[i].find("rate-update"), std::string::npos) << log[i];
  EXPECT_EQ(std::vector<std::string>(log.end() - 5, log.end()), tail);
  // t=42 re-analysed the last reads; t=43 and the alert tick coasted.
  const std::size_t alert = log.size() - 2;
  EXPECT_EQ(skipped_at[alert - 2], skipped_at[alert - 3]);
  EXPECT_EQ(skipped_at[alert - 1], skipped_at[alert - 2] + 1);
  EXPECT_EQ(skipped_at[alert], skipped_at[alert - 1] + 1);
}

// --- serial vs parallel determinism (chaos-soak invariant gate) -------------

core::SoakConfig engine_soak(std::size_t threads, bool skip_clean,
                             std::uint64_t seed) {
  core::SoakConfig cfg;
  cfg.n_users = 4;
  cfg.tags_per_user = 2;
  cfg.duration_s = 150.0;
  cfg.chaos = core::ChaosConfig::composite(seed);
  cfg.pipeline.analysis_threads = threads;
  cfg.pipeline.skip_clean_users = skip_clean;
  return cfg;
}

TEST(ParallelEngine, EventLogByteIdenticalToSerialEngine) {
  const auto serial = core::run_soak(engine_soak(0, false, 0xBEEF));
  const auto parallel = core::run_soak(engine_soak(3, false, 0xBEEF));
  EXPECT_TRUE(serial.ok()) << serial.violations.front();
  EXPECT_TRUE(parallel.ok()) << parallel.violations.front();
  ASSERT_GT(serial.event_log.size(), 0u);
  ASSERT_EQ(serial.event_log.size(), parallel.event_log.size());
  EXPECT_EQ(serial.event_log, parallel.event_log);
}

TEST(ParallelEngine, DeterministicWithDirtyWindowSkipEnabled) {
  const auto serial = core::run_soak(engine_soak(0, true, 0xF00D));
  const auto parallel = core::run_soak(engine_soak(4, true, 0xF00D));
  EXPECT_TRUE(serial.ok()) << serial.violations.front();
  EXPECT_TRUE(parallel.ok()) << parallel.violations.front();
  ASSERT_GT(serial.event_log.size(), 0u);
  EXPECT_EQ(serial.event_log, parallel.event_log);
}

TEST(ParallelEngine, ConfigValidationBoundsThreadCount) {
  core::PipelineConfig cfg;
  cfg.analysis_threads = 257;
  EXPECT_THROW(core::RealtimePipeline{cfg}, std::invalid_argument);
  cfg.analysis_threads = 2;
  EXPECT_NO_THROW(core::RealtimePipeline{cfg});
}

// --- observability zero-allocation gate -------------------------------------
// Instrument *updates* (Gauge::set, Histogram::observe,
// TraceRing::record) must never allocate; only registration may. The
// direct test asserts the primitive contract; the pipeline test drives
// a bound and an unbound pipeline through the identical feed and
// requires the bound one to allocate not a single call more —
// instrumentation rides the hot path for free after bind.

TEST(ObsZeroAlloc, InstrumentUpdatesAreAllocationFree) {
  obs::Observability hub(256);
  obs::Gauge& g = hub.metrics().gauge("gate_depth");
  obs::Histogram& h =
      hub.metrics().histogram("gate_seconds", obs::default_latency_bounds());
  const std::uint16_t stage = hub.trace().register_stage("gate");

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    g.set(static_cast<double>(i));
    h.observe(1e-4 * static_cast<double>(i));
    hub.trace().record(stage, obs::SpanKind::Instant,
                       static_cast<double>(i), 7);
    (void)hub.now();
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(ObsZeroAlloc, InstrumentedPipelineAllocatesNoMoreThanBare) {
  const auto drive = [](core::RealtimePipeline& pipeline, double from,
                        double to) {
    for (double t = from; t < to; t += 0.125) {
      for (std::uint64_t user = 1; user <= 2; ++user) {
        core::TagRead r;
        r.time_s = t + 0.01 * static_cast<double>(user);
        r.epc = rfid::Epc96::from_user_tag(user, 1);
        r.antenna_id = 1;
        r.frequency_hz = 920.625e6;
        r.rssi_dbm = -55.0;
        r.phase_rad = common::wrap_phase_2pi(
            1.0 + 0.3 * std::sin(common::kTwoPi * 0.2 * t +
                                 static_cast<double>(user)));
        pipeline.push(r);
      }
    }
  };

  core::PipelineConfig cfg;
  cfg.window_s = 12.0;
  cfg.warmup_s = 4.0;
  cfg.update_period_s = 1.0;

  obs::Observability hub(1 << 12);
  hub.use_deterministic_clock();
  core::RealtimePipeline bare(cfg);
  core::RealtimePipeline bound(cfg);
  bound.bind_observability(hub);

  // Warm both to steady state (windows full, scratch arenas sized).
  drive(bare, 0.0, 30.0);
  drive(bound, 0.0, 30.0);

  // Identical feeds from here on: any allocation difference is the
  // instrumentation's fault.
  const std::uint64_t before_bare = g_allocations.load();
  drive(bare, 30.0, 45.0);
  const std::uint64_t bare_allocs = g_allocations.load() - before_bare;

  const std::uint64_t before_bound = g_allocations.load();
  drive(bound, 30.0, 45.0);
  const std::uint64_t bound_allocs = g_allocations.load() - before_bound;

  EXPECT_EQ(bound_allocs, bare_allocs);
}

}  // namespace
}  // namespace tagbreathe
