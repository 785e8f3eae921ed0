// Parameterised property sweeps across the system's operating envelope.
//
// These are coarser-grained than the unit suites: each case asserts an
// invariant over a grid point of the (rate, distance, population, ...)
// space rather than one hand-picked input.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/fusion.hpp"
#include "core/monitor.hpp"
#include "core/phase_preprocess.hpp"
#include "experiments/runner.hpp"
#include "rfid/gen2_mac.hpp"

namespace tagbreathe {
namespace {

// --- end-to-end accuracy over the (rate, distance) grid ------------------------

class RateDistanceGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RateDistanceGrid, AccuracyAboveNinetyPercent) {
  const auto [rate_bpm, distance_m] = GetParam();
  experiments::ScenarioConfig cfg;
  cfg.distance_m = distance_m;
  cfg.users[0].rate_bpm = rate_bpm;
  cfg.seed = 9000 + static_cast<std::uint64_t>(rate_bpm * 10 + distance_m);
  // Average three trials: single 2-minute trials at the band edges are
  // legitimately noisy (see EXPERIMENTS.md).
  const auto agg = experiments::run_trials(cfg, 3);
  EXPECT_GT(agg.accuracy.mean(), 0.90)
      << rate_bpm << " bpm @ " << distance_m << " m";
}

INSTANTIATE_TEST_SUITE_P(
    TableOneEnvelope, RateDistanceGrid,
    ::testing::Combine(::testing::Values(6.0, 10.0, 14.0, 19.0),
                       ::testing::Values(1.0, 3.0, 5.0)));

// --- MAC throughput properties over population sizes ----------------------------

class MacPopulation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MacPopulation, ThroughputAndFairness) {
  const std::size_t n = GetParam();
  rfid::Gen2Mac mac(n);
  common::Rng rng(1000 + n);
  std::vector<int> reads(n, 0);
  double t = 0.0;
  while (t < 8.0) {
    const auto slot = mac.step(std::vector<bool>(n, true),
                               [](std::size_t) { return 1.0; }, rng);
    t += slot.duration_s;
    if (slot.kind == rfid::SlotKind::Success)
      ++reads[static_cast<std::size_t>(slot.tag_index)];
  }
  int total = 0, lo = reads[0], hi = reads[0];
  for (int r : reads) {
    total += r;
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  // Saturated total throughput: between 40 and 120 reads/s for any
  // population in the evaluated range.
  const double rate = total / 8.0;
  EXPECT_GT(rate, 40.0) << n << " tags";
  EXPECT_LT(rate, 120.0) << n << " tags";
  // No starvation: the slowest tag gets at least a third of the fastest.
  EXPECT_GT(lo * 3, hi) << n << " tags";
}

INSTANTIATE_TEST_SUITE_P(Populations, MacPopulation,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// --- preprocessor exact recovery across channel plans and rates ------------------

class PreprocessRecovery
    : public ::testing::TestWithParam<std::tuple<bool, double>> {};

TEST_P(PreprocessRecovery, NoiseFreeTrackMatchesTruth) {
  const auto [us_plan, rate_bpm] = GetParam();
  const rfid::ChannelPlan plan = us_plan ? rfid::ChannelPlan::us_plan()
                                         : rfid::ChannelPlan::paper_plan();
  rfid::HopSchedule hops(plan, 5);
  rfid::PhaseModel phase{rfid::PhaseModelConfig{}};
  const double f = common::bpm_to_hz(rate_bpm);

  std::vector<core::TagRead> reads;
  for (double t = 0.0; t < 30.0; t += 1.0 / 60.0) {
    const auto ch = hops.channel_at(t);
    core::TagRead r;
    r.epc = rfid::Epc96::from_user_tag(1, 1);
    r.time_s = t;
    r.channel_index = static_cast<std::uint16_t>(ch);
    r.frequency_hz = plan.frequency_hz(ch);
    const double d = 3.0 + 0.005 * std::sin(common::kTwoPi * f * t);
    r.phase_rad = phase.ideal_phase(d, plan.wavelength_m(ch), ch, 9);
    reads.push_back(r);
  }
  core::PhasePreprocessor pre;
  const auto deltas = pre.process(reads);
  ASSERT_GT(deltas.size(), 500u);
  const auto track = core::integrate_displacement(deltas);
  double max_err = 0.0;
  for (const auto& s : track) {
    const double truth = 0.005 * std::sin(common::kTwoPi * f * s.time_s) -
                         0.005 * std::sin(0.0);
    max_err = std::max(max_err, std::abs(s.value - truth));
  }
  EXPECT_LT(max_err, 0.0025) << plan.region() << " @ " << rate_bpm;
}

INSTANTIATE_TEST_SUITE_P(
    PlansAndRates, PreprocessRecovery,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(6.0, 12.0, 20.0)));

// --- fusion invariances -----------------------------------------------------------

TEST(FusionProperties, StreamOrderInvariant) {
  common::Rng rng(4);
  std::vector<std::vector<signal::TimedSample>> streams(3);
  for (auto& s : streams) {
    double t = 0.0;
    while (t < 20.0) {
      t += rng.exponential(30.0);
      s.push_back({t, rng.normal(0.0, 1e-3)});
    }
  }
  core::FusionConfig cfg;
  cfg.align_signs = false;  // sign alignment is order-independent too,
                            // but keep this check purely about binning
  const auto a = core::fuse_streams(streams, 0.0, 20.0, cfg);
  std::swap(streams[0], streams[2]);
  const auto b = core::fuse_streams(streams, 0.0, 20.0, cfg);
  ASSERT_EQ(a.track.size(), b.track.size());
  for (std::size_t i = 0; i < a.track.size(); ++i)
    EXPECT_NEAR(a.track[i].value, b.track[i].value, 1e-12);
}

TEST(FusionProperties, GlobalSignFlipIsRecovered) {
  // Flipping EVERY stream's sign flips the fused track (alignment fixes
  // relative signs, not the arbitrary global one) — downstream rate
  // estimation is sign-blind, so only |track| must match.
  common::Rng rng(5);
  std::vector<std::vector<signal::TimedSample>> streams(3);
  for (auto& s : streams) {
    double t = 0.0;
    double prev = 0.0;
    while (t < 30.0) {
      t += 1.0 / 40.0;
      const double v = 0.005 * std::sin(common::kTwoPi * 0.2 * t);
      s.push_back({t, v - prev + rng.normal(0.0, 1e-4)});
      prev = v;
    }
  }
  auto flipped = streams;
  for (auto& s : flipped)
    for (auto& d : s) d.value = -d.value;
  const auto a = core::fuse_streams(streams);
  const auto b = core::fuse_streams(flipped);
  ASSERT_EQ(a.track.size(), b.track.size());
  for (std::size_t i = 0; i < a.track.size(); ++i)
    EXPECT_NEAR(std::abs(a.track[i].value), std::abs(b.track[i].value),
                1e-9);
}

// --- determinism across the public surface ----------------------------------------

class SeedDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedDeterminism, IdenticalSeedsIdenticalResults) {
  experiments::ScenarioConfig cfg;
  cfg.duration_s = 20.0;
  cfg.seed = GetParam();
  const auto a = experiments::run_trial(cfg);
  const auto b = experiments::run_trial(cfg);
  ASSERT_EQ(a.users.size(), b.users.size());
  EXPECT_DOUBLE_EQ(a.users[0].estimated_bpm, b.users[0].estimated_bpm);
  EXPECT_EQ(a.total_reads, b.total_reads);
  EXPECT_DOUBLE_EQ(a.mean_rssi_dbm, b.mean_rssi_dbm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedDeterminism,
                         ::testing::Values(1, 7, 42, 1000, 99999));

}  // namespace
}  // namespace tagbreathe
