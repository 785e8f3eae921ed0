// Unit tests: stream demux and phase preprocessing (Eqs. 3-4).
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/demux.hpp"
#include "core/phase_preprocess.hpp"
#include "rfid/channel_plan.hpp"
#include "rfid/phase_model.hpp"

namespace tagbreathe::core {
namespace {

TagRead make_read(std::uint64_t user, std::uint32_t tag,
                  std::uint8_t antenna, double t, std::uint16_t channel = 0,
                  double phase = 0.0) {
  TagRead r;
  r.epc = rfid::Epc96::from_user_tag(user, tag);
  r.antenna_id = antenna;
  r.time_s = t;
  r.channel_index = channel;
  r.frequency_hz = 922.25e6;
  r.phase_rad = phase;
  r.rssi_dbm = -55.0;
  return r;
}

// --- demux ----------------------------------------------------------------

TEST(Demux, GroupsByUserTagAntenna) {
  StreamDemux demux;
  demux.add(make_read(1, 1, 1, 0.0));
  demux.add(make_read(1, 1, 1, 0.1));
  demux.add(make_read(1, 2, 1, 0.2));
  demux.add(make_read(1, 1, 2, 0.3));
  demux.add(make_read(2, 1, 1, 0.4));

  EXPECT_EQ(demux.users(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(demux.streams_for_user(1).size(), 3u);  // (1,1), (2,1), (1,2)
  EXPECT_EQ(demux.streams_for_user(2).size(), 1u);
  EXPECT_EQ(demux.streams_for_user_antenna(1, 1).size(), 2u);
  EXPECT_EQ(demux.antennas_for_user(1),
            (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(demux.accepted_reads(), 5u);
}

TEST(Demux, FiltersUnmonitoredUsers) {
  StreamDemux demux({1, 3});
  demux.add(make_read(1, 1, 1, 0.0));
  demux.add(make_read(2, 1, 1, 0.1));  // item tag: not monitored
  demux.add(make_read(3, 1, 1, 0.2));
  EXPECT_EQ(demux.accepted_reads(), 2u);
  EXPECT_EQ(demux.ignored_reads(), 1u);
  EXPECT_EQ(demux.users(), (std::vector<std::uint64_t>{1, 3}));
}

TEST(Demux, EvictBeforeDropsOldReads) {
  StreamDemux demux;
  for (int i = 0; i < 10; ++i) demux.add(make_read(1, 1, 1, i * 1.0));
  demux.evict_before(5.0);
  const auto streams = demux.streams_for_user(1);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0]->size(), 5u);
  EXPECT_DOUBLE_EQ(streams[0]->front().time_s, 5.0);
}

TEST(Demux, ClearResets) {
  StreamDemux demux;
  demux.add(make_read(1, 1, 1, 0.0));
  demux.clear();
  EXPECT_TRUE(demux.users().empty());
  EXPECT_EQ(demux.total_reads(), 0u);
}

// --- preprocessing -----------------------------------------------------------

/// Builds a synthetic noise-free stream: a tag oscillating radially with
/// known displacement, read at `fs` Hz on a hopping channel plan, using
/// the exact Eq. 1 phase.
std::vector<TagRead> synthetic_stream(
    const std::function<double(double)>& displacement, double fs,
    double duration_s) {
  const rfid::ChannelPlan plan = rfid::ChannelPlan::paper_plan();
  rfid::HopSchedule hops(plan, 3);
  rfid::PhaseModel phase{rfid::PhaseModelConfig{}};
  std::vector<TagRead> reads;
  for (double t = 0.0; t < duration_s; t += 1.0 / fs) {
    const auto ch = hops.channel_at(t);
    TagRead r = make_read(1, 1, 1, t, static_cast<std::uint16_t>(ch));
    r.frequency_hz = plan.frequency_hz(ch);
    const double d = 3.0 + displacement(t);
    r.phase_rad = phase.ideal_phase(d, plan.wavelength_m(ch), ch, 99);
    reads.push_back(r);
  }
  return reads;
}

/// Feeds one read through the batch path. process() keeps channel state
/// across calls, so successive calls walk a stream read by read. Returns
/// true and fills `delta` when the read completes a valid pair.
bool push_one(PhasePreprocessor& pre, const TagRead& read,
              signal::TimedSample& delta) {
  const auto out = pre.process(std::span<const TagRead>(&read, 1));
  if (out.empty()) return false;
  delta = out.front();
  return true;
}

TEST(Preprocess, RecoversDisplacementExactlyWithoutNoise) {
  const auto disp = [](double t) {
    return 0.005 * std::sin(common::kTwoPi * 0.2 * t);
  };
  const auto reads = synthetic_stream(disp, 60.0, 20.0);
  PhasePreprocessor pre;
  const auto deltas = pre.process(reads);
  const auto track = integrate_displacement(deltas);
  ASSERT_GT(track.size(), 500u);
  // The integrated track must match the true displacement *change* to
  // numerical precision wherever the chain is unbroken within dwells.
  // Accumulated hop-gap losses are bounded by breathing motion during
  // the dropped inter-dwell deltas.
  double max_err = 0.0;
  for (const auto& s : track) {
    const double truth = disp(s.time_s) - disp(reads.front().time_s);
    max_err = std::max(max_err, std::abs(s.value - truth));
  }
  EXPECT_LT(max_err, 0.002);  // sub-2mm track fidelity, no noise
}

TEST(Preprocess, Eq3SignAndScale) {
  // Two same-channel readings with a known distance change: Δd must be
  // λ/(4π)·Δθ.
  const double lambda = common::wavelength_m(922.25e6);
  rfid::PhaseModel phase{rfid::PhaseModelConfig{}};
  const double d0 = 2.0, d1 = 2.0 + 0.004;
  TagRead a = make_read(1, 1, 1, 0.0, 5,
                        phase.ideal_phase(d0, lambda, 5, 1));
  TagRead b = make_read(1, 1, 1, 0.016, 5,
                        phase.ideal_phase(d1, lambda, 5, 1));
  // A 4 mm step in 16 ms is a deliberate unphysical jump to exercise the
  // arithmetic; switch off the despike gate that exists to reject it.
  PreprocessConfig cfg;
  cfg.spike_floor_m = 0.0;
  PhasePreprocessor pre(cfg);
  signal::TimedSample delta;
  EXPECT_FALSE(push_one(pre, a, delta));  // first reading in channel
  ASSERT_TRUE(push_one(pre, b, delta));
  EXPECT_NEAR(delta.value, 0.004, 1e-9);
  EXPECT_DOUBLE_EQ(delta.time_s, 0.016);
}

TEST(Preprocess, ChannelChangeDoesNotProduceDelta) {
  PhasePreprocessor pre;
  signal::TimedSample delta;
  EXPECT_FALSE(push_one(pre, make_read(1, 1, 1, 0.0, 1, 1.0), delta));
  EXPECT_FALSE(push_one(pre, make_read(1, 1, 1, 0.016, 2, 2.0), delta));
  EXPECT_EQ(pre.stats().first_in_channel, 2u);
  // Back on channel 1 shortly after: pairs with the first reading.
  EXPECT_TRUE(push_one(pre, make_read(1, 1, 1, 0.032, 1, 1.1), delta));
}

TEST(Preprocess, WrapsPhaseDeltaAcross2Pi) {
  // The wrapped step maps to ~3.4 mm in 16 ms — over the despike budget,
  // which is not what this test is about.
  PreprocessConfig cfg;
  cfg.spike_floor_m = 0.0;
  PhasePreprocessor pre(cfg);
  signal::TimedSample delta;
  // 6.2 -> 0.05 is a +0.133 rad step through the wrap, not -6.15.
  EXPECT_FALSE(push_one(pre, make_read(1, 1, 1, 0.0, 0, 6.2), delta));
  ASSERT_TRUE(push_one(pre, make_read(1, 1, 1, 0.016, 0, 0.05), delta));
  const double lambda = 299792458.0 / 922.25e6;
  EXPECT_NEAR(delta.value,
              lambda / (4.0 * common::kPi) *
                  common::wrap_phase_pi(0.05 - 6.2),
              1e-12);
  EXPECT_GT(delta.value, 0.0);
}

TEST(Preprocess, DropsLongGaps) {
  PreprocessConfig cfg;
  cfg.adaptive_gap = false;
  cfg.max_same_channel_gap_s = 0.3;
  PhasePreprocessor pre(cfg);
  signal::TimedSample delta;
  EXPECT_FALSE(push_one(pre, make_read(1, 1, 1, 0.0, 0, 1.0), delta));
  // Gap of 1 s.
  EXPECT_FALSE(push_one(pre, make_read(1, 1, 1, 1.0, 0, 1.1), delta));
  EXPECT_EQ(pre.stats().dropped_gap, 1u);
  // The new reading still updates the anchor: a quick follow-up pairs.
  EXPECT_TRUE(push_one(pre, make_read(1, 1, 1, 1.016, 0, 1.15), delta));
}

TEST(Preprocess, DropsOutlierSpeeds) {
  PreprocessConfig cfg;
  cfg.adaptive_gap = false;
  PhasePreprocessor pre(cfg);
  signal::TimedSample delta;
  EXPECT_FALSE(push_one(pre, make_read(1, 1, 1, 0.0, 0, 0.0), delta));
  // Phase jump of ~3 rad in 16 ms -> ~0.5 m/s apparent speed: outlier.
  EXPECT_FALSE(push_one(pre, make_read(1, 1, 1, 0.016, 0, 3.0), delta));
  EXPECT_EQ(pre.stats().dropped_outlier, 1u);
}

TEST(Preprocess, AdaptiveGapFastStreamUsesStrictWindow) {
  PreprocessConfig cfg;  // adaptive on
  PhasePreprocessor pre(cfg);
  signal::TimedSample delta;
  // 60 Hz stream: after warm-up the effective gap must be the strict one.
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    push_one(pre, make_read(1, 1, 1, t, static_cast<std::uint16_t>(0), 1.0),
             delta);
    t += 1.0 / 60.0;
  }
  EXPECT_DOUBLE_EQ(pre.effective_gap_s(), cfg.max_same_channel_gap_s);
}

TEST(Preprocess, AdaptiveGapSlowStreamUsesFallback) {
  PreprocessConfig cfg;
  PhasePreprocessor pre(cfg);
  signal::TimedSample delta;
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    push_one(pre,
             make_read(1, 1, 1, t, static_cast<std::uint16_t>(i % 10), 1.0),
             delta);
    t += 0.4;  // 2.5 Hz stream
  }
  EXPECT_DOUBLE_EQ(pre.effective_gap_s(), cfg.fallback_gap_s);
}

TEST(Preprocess, ResetClearsState) {
  PhasePreprocessor pre;
  signal::TimedSample delta;
  push_one(pre, make_read(1, 1, 1, 0.0, 0, 1.0), delta);
  pre.reset();
  EXPECT_EQ(pre.stats().reads_in, 0u);
  // First read after reset is first-in-channel again.
  EXPECT_FALSE(push_one(pre, make_read(1, 1, 1, 0.016, 0, 1.1), delta));
}

TEST(Preprocess, IntegrationIsCumulative) {
  std::vector<signal::TimedSample> deltas{
      {0.1, 1.0}, {0.2, -0.5}, {0.3, 0.25}};
  const auto track = integrate_displacement(deltas);
  ASSERT_EQ(track.size(), 3u);
  EXPECT_DOUBLE_EQ(track[0].value, 1.0);
  EXPECT_DOUBLE_EQ(track[1].value, 0.5);
  EXPECT_DOUBLE_EQ(track[2].value, 0.75);
}

}  // namespace
}  // namespace tagbreathe::core
