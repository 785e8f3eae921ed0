// Unit + integration tests: recording/replay and breath-to-breath
// statistics.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "common/units.hpp"
#include "core/breath_stats.hpp"
#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "experiments/scenario.hpp"

namespace tagbreathe::core {
namespace {

// --- replay -----------------------------------------------------------------

ReadStream capture_short() {
  experiments::ScenarioConfig cfg;
  cfg.duration_s = 10.0;
  cfg.seed = 51;
  experiments::Scenario scenario(cfg);
  return scenario.run();
}

TEST(Replay, CsvRoundTripIsLossless) {
  const ReadStream original = capture_short();
  ASSERT_GT(original.size(), 100u);

  std::stringstream buffer;
  save_reads_csv(buffer, original);
  const ReadStream back = load_reads_csv(buffer);

  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].time_s, original[i].time_s);
    EXPECT_EQ(back[i].epc, original[i].epc);
    EXPECT_EQ(back[i].antenna_id, original[i].antenna_id);
    EXPECT_EQ(back[i].channel_index, original[i].channel_index);
    EXPECT_DOUBLE_EQ(back[i].frequency_hz, original[i].frequency_hz);
    EXPECT_DOUBLE_EQ(back[i].rssi_dbm, original[i].rssi_dbm);
    EXPECT_DOUBLE_EQ(back[i].phase_rad, original[i].phase_rad);
    EXPECT_DOUBLE_EQ(back[i].doppler_hz, original[i].doppler_hz);
  }
}

TEST(Replay, AnalysisOfReplayedCaptureMatchesLive) {
  experiments::ScenarioConfig cfg;
  cfg.duration_s = 60.0;
  cfg.seed = 52;
  experiments::Scenario scenario(cfg);
  const ReadStream live = scenario.run();

  std::stringstream buffer;
  save_reads_csv(buffer, live);
  const ReadStream replayed = load_reads_csv(buffer);

  BreathMonitor monitor;
  const auto a = monitor.analyze(live);
  const auto b = monitor.analyze(replayed);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0].rate.rate_bpm, b[0].rate.rate_bpm);
}

TEST(Replay, FileRoundTripAndRecorder) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "tb_replay_test.csv").string();
  const ReadStream original = capture_short();

  {
    ReadRecorder recorder(path);
    for (const auto& r : original) recorder.record(r);
    EXPECT_EQ(recorder.recorded(), original.size());
  }
  const ReadStream back = load_reads_csv(path);
  EXPECT_EQ(back.size(), original.size());
  std::filesystem::remove(path);
}

TEST(Replay, RejectsMalformedInput) {
  std::stringstream no_header("garbage\n1,2,3\n");
  EXPECT_THROW(load_reads_csv(no_header), std::runtime_error);

  std::stringstream short_row;
  short_row << kReplayCsvHeader << "\n1.0,abc\n";
  EXPECT_THROW(load_reads_csv(short_row), std::runtime_error);

  std::stringstream bad_epc;
  bad_epc << kReplayCsvHeader
          << "\n1.0,nothex,1,0,920e6,-55,1.0,0.0\n";
  EXPECT_THROW(load_reads_csv(bad_epc), std::runtime_error);

  EXPECT_THROW(load_reads_csv("/nonexistent/path.csv"), std::runtime_error);
}

TEST(Replay, ReplaySortsByTime) {
  ReadStream shuffled = capture_short();
  std::swap(shuffled.front(), shuffled.back());
  double last = -1.0;
  const std::size_t n =
      replay_reads(shuffled, [&last](const TagRead& r) {
        EXPECT_GE(r.time_s, last);
        last = r.time_s;
      });
  EXPECT_EQ(n, shuffled.size());
}

// --- breath statistics ---------------------------------------------------------

std::vector<signal::TimedSample> breath_wave(
    const std::function<double(double)>& period_at, double duration,
    double fs = 20.0) {
  // Frequency-modulated sine: instantaneous period = period_at(t).
  std::vector<signal::TimedSample> out;
  double phase = 0.0;
  for (double t = 0.0; t < duration; t += 1.0 / fs) {
    phase += common::kTwoPi / period_at(t) / fs;
    out.push_back({t, 0.01 * std::sin(phase)});
  }
  return out;
}

BreathStats stats_of(std::span<const signal::TimedSample> wave) {
  ZeroCrossingRateEstimator estimator;
  const RateEstimate est = estimator.estimate(wave);
  return analyze_breaths(wave, est);
}

TEST(BreathStats, RegularBreathingHasLowVariability) {
  const auto wave = breath_wave([](double) { return 5.0; }, 120.0);
  const auto stats = stats_of(wave);
  ASSERT_GT(stats.breaths.size(), 15u);
  EXPECT_NEAR(stats.mean_rate_bpm, 12.0, 0.5);
  EXPECT_LT(stats.interval_cv, 0.05);
  EXPECT_FALSE(is_irregular(stats));
  EXPECT_TRUE(detect_pauses(stats).empty());
  EXPECT_NEAR(stats.mean_amplitude, 0.01, 0.002);
}

TEST(BreathStats, AlternatingFastSlowIsIrregular) {
  // The intro's pattern: alternating fast (2.5 s) and slow (6 s) breaths.
  const auto wave = breath_wave(
      [](double t) { return std::fmod(t, 17.0) < 8.5 ? 2.5 : 6.0; }, 150.0);
  const auto stats = stats_of(wave);
  ASSERT_GT(stats.breaths.size(), 20u);
  EXPECT_GT(stats.interval_cv, 0.25);
  EXPECT_TRUE(is_irregular(stats));
}

TEST(BreathStats, DetectsPause) {
  // Regular 4 s breaths with one 12 s gap in the middle.
  std::vector<signal::TimedSample> wave;
  double phase = 0.0;
  for (double t = 0.0; t < 120.0; t += 0.05) {
    const bool paused = t > 60.0 && t < 72.0;
    if (!paused) phase += common::kTwoPi / 4.0 * 0.05;
    wave.push_back({t, 0.01 * std::sin(phase)});
  }
  const auto stats = stats_of(wave);
  const auto pauses = detect_pauses(stats);
  ASSERT_GE(pauses.size(), 1u);
  EXPECT_NEAR(pauses[0].start_s, 62.0, 6.0);
  EXPECT_GT(pauses[0].duration_s, 5.0);
}

TEST(BreathStats, AmplitudeTrendCaptured) {
  // Breaths getting deeper over time.
  std::vector<signal::TimedSample> wave;
  for (double t = 0.0; t < 60.0; t += 0.05) {
    const double amp = 0.005 + 0.0001 * t;
    wave.push_back({t, amp * std::sin(common::kTwoPi * t / 4.0)});
  }
  const auto stats = stats_of(wave);
  ASSERT_GT(stats.breaths.size(), 8u);
  EXPECT_GT(stats.amplitude_range_ratio, 1.5);
  // Breaths are sorted by time; last deeper than first.
  EXPECT_GT(stats.breaths.back().amplitude,
            stats.breaths.front().amplitude);
}

TEST(BreathStats, EmptyInputs) {
  const auto stats = analyze_breaths({}, RateEstimate{});
  EXPECT_TRUE(stats.breaths.empty());
  EXPECT_FALSE(is_irregular(stats));
  EXPECT_TRUE(detect_pauses(stats).empty());
}

TEST(BreathStats, EndToEndOnSimulatedIrregularBreathing) {
  experiments::ScenarioConfig cfg;
  cfg.duration_s = 150.0;
  cfg.seed = 53;
  cfg.users[0].schedule = {{0.0, 8.0}, {50.0, 18.0}, {100.0, 8.0}};
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();
  BreathMonitor monitor;
  const auto analyses = monitor.analyze(reads);
  ASSERT_EQ(analyses.size(), 1u);
  const auto stats =
      analyze_breaths(analyses[0].breath.samples, analyses[0].rate);
  ASSERT_GT(stats.breaths.size(), 10u);
  // Rate alternates 8 <-> 18 bpm: clearly irregular over the window.
  EXPECT_GT(stats.interval_cv, 0.2);
}

}  // namespace
}  // namespace tagbreathe::core
