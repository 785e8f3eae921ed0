// Unit + integration tests: antenna selection, baselines, the
// BreathMonitor facade and the realtime pipeline (including apnea and
// signal-loss events).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "core/antenna_selector.hpp"
#include "core/baselines.hpp"
#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "experiments/runner.hpp"
#include "rfid/channel_plan.hpp"
#include "rfid/phase_model.hpp"

namespace tagbreathe::core {
namespace {

// --- antenna selection -------------------------------------------------------

std::vector<TagRead> reads_on_antenna(std::uint8_t antenna, int count,
                                      double rssi, double duration_s) {
  std::vector<TagRead> out;
  for (int i = 0; i < count; ++i) {
    TagRead r;
    r.epc = rfid::Epc96::from_user_tag(1, 1);
    r.antenna_id = antenna;
    r.time_s = duration_s * i / count;
    r.rssi_dbm = rssi;
    out.push_back(r);
  }
  return out;
}

TEST(AntennaSelector, PrefersHigherReadRate) {
  const auto busy = reads_on_antenna(1, 600, -60.0, 10.0);
  const auto quiet = reads_on_antenna(2, 60, -60.0, 10.0);
  std::vector<const std::vector<TagRead>*> streams{&busy, &quiet};
  const auto scored = score_antennas(streams, 10.0);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].antenna_id, 1);
  EXPECT_NEAR(scored[0].read_rate_hz, 60.0, 1e-9);
  EXPECT_NEAR(scored[1].read_rate_hz, 6.0, 1e-9);
}

TEST(AntennaSelector, RssiBreaksTies) {
  const auto strong = reads_on_antenna(1, 300, -50.0, 10.0);
  const auto weak = reads_on_antenna(2, 300, -75.0, 10.0);
  std::vector<const std::vector<TagRead>*> streams{&weak, &strong};
  EXPECT_EQ(score_antennas(streams, 10.0).front().antenna_id, 1);
}

TEST(AntennaSelector, EmptyStreams) {
  std::vector<const std::vector<TagRead>*> none;
  EXPECT_TRUE(score_antennas(none, 10.0).empty());
}

// Reference scorer: one std::map accumulator per antenna, fed read by
// read in stream order, then ranked by score with ties to the lower id.
std::vector<AntennaQuality> reference_scores(
    std::span<const std::vector<TagRead>* const> streams, double window_s,
    const AntennaSelectorConfig& config) {
  struct Accum {
    std::size_t reads = 0;
    double rssi_sum = 0.0;
  };
  std::map<std::uint8_t, Accum> by_antenna;
  for (const auto* stream : streams) {
    for (const TagRead& r : *stream) {
      Accum& a = by_antenna[r.antenna_id];
      ++a.reads;
      a.rssi_sum += r.rssi_dbm;
    }
  }
  std::vector<AntennaQuality> out;
  for (const auto& [antenna, acc] : by_antenna) {
    AntennaQuality q;
    q.antenna_id = antenna;
    q.read_rate_hz = static_cast<double>(acc.reads) / window_s;
    q.mean_rssi_dbm = acc.rssi_sum / static_cast<double>(acc.reads);
    const double rate_norm =
        std::clamp(q.read_rate_hz / config.rate_ceil_hz, 0.0, 1.0);
    const double rssi_norm = std::clamp(
        (q.mean_rssi_dbm - config.rssi_floor_dbm) /
            (config.rssi_ceil_dbm - config.rssi_floor_dbm),
        0.0, 1.0);
    q.score = config.rate_weight * rate_norm + config.rssi_weight * rssi_norm;
    out.push_back(q);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const AntennaQuality& a, const AntennaQuality& b) {
                     return a.score > b.score;
                   });
  return out;
}

void expect_same_scores(const std::vector<AntennaQuality>& got,
                        const std::vector<AntennaQuality>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].antenna_id, want[i].antenna_id) << "rank " << i;
    EXPECT_EQ(got[i].read_rate_hz, want[i].read_rate_hz) << "rank " << i;
    EXPECT_EQ(got[i].mean_rssi_dbm, want[i].mean_rssi_dbm) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

TEST(AntennaSelector, MatchesMapReferenceOnInterleavedAntennas) {
  // Streams whose antenna ids interleave read by read (a reader that
  // round-robins ports into one buffer), runs of equal ids of varying
  // length, ids revisited across streams, and RSSI values whose sums
  // depend on addition order.
  std::mt19937_64 rng(0x5eed);
  std::uniform_int_distribution<int> antenna(1, 6);
  std::uniform_int_distribution<int> run_len(1, 5);
  std::uniform_real_distribution<double> rssi(-85.0, -35.0);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<TagRead>> data(1 + trial % 4);
    for (auto& stream : data) {
      const int runs = 1 + static_cast<int>(rng() % 40);
      for (int k = 0; k < runs; ++k) {
        const auto id = static_cast<std::uint8_t>(antenna(rng));
        for (int j = run_len(rng); j > 0; --j) {
          TagRead r;
          r.antenna_id = id;
          r.rssi_dbm = rssi(rng);
          r.time_s = static_cast<double>(stream.size()) * 0.05;
          stream.push_back(r);
        }
      }
    }
    std::vector<const std::vector<TagRead>*> streams;
    for (const auto& s : data) streams.push_back(&s);
    const AntennaSelectorConfig config;
    SCOPED_TRACE(trial);
    expect_same_scores(score_antennas(streams, 7.5, config),
                       reference_scores(streams, 7.5, config));
  }
}

TEST(AntennaSelector, ExactTiesGoToTheLowerAntennaId) {
  // Identical read counts and RSSI give bit-equal scores. The ranking
  // must still be total: lower id first, whatever order the streams
  // arrive in and however many antennas tie (past 16 elements std::sort
  // stops being an insertion sort, so only the comparator can decide).
  for (const int ports : {2, 3, 20}) {
    SCOPED_TRACE(ports);
    std::vector<std::vector<TagRead>> data;
    for (int a = ports; a >= 1; --a)
      data.push_back(
          reads_on_antenna(static_cast<std::uint8_t>(a), 100, -60.0, 10.0));
    std::vector<const std::vector<TagRead>*> streams;
    for (const auto& s : data) streams.push_back(&s);
    const auto scored = score_antennas(streams, 10.0);
    ASSERT_EQ(scored.size(), static_cast<std::size_t>(ports));
    for (int i = 0; i < ports; ++i) {
      EXPECT_EQ(static_cast<int>(scored[static_cast<std::size_t>(i)].antenna_id),
                i + 1);
      EXPECT_EQ(scored[static_cast<std::size_t>(i)].score, scored[0].score);
    }
    EXPECT_EQ(scored.front().antenna_id, 1);
  }
}

// --- monitor on synthetic scenarios ----------------------------------------------

experiments::ScenarioConfig default_scenario(std::uint64_t seed) {
  experiments::ScenarioConfig cfg;
  cfg.seed = seed;
  return cfg;
}

TEST(Monitor, EmptyInput) {
  BreathMonitor monitor;
  EXPECT_TRUE(monitor.analyze({}).empty());
}

TEST(Monitor, AnalysisArtefactsAreConsistent) {
  experiments::Scenario scenario(default_scenario(31));
  const auto reads = scenario.run();
  BreathMonitor monitor;
  const auto analyses = monitor.analyze(reads);
  ASSERT_EQ(analyses.size(), 1u);
  const auto& a = analyses[0];
  EXPECT_EQ(a.user_id, 1u);
  EXPECT_EQ(a.streams_used, 3u);  // 3 tags, one antenna
  EXPECT_GT(a.reads_used, 1000u);
  EXPECT_EQ(a.antenna_used, 1);
  EXPECT_DOUBLE_EQ(a.track_rate_hz, 20.0);
  // Breath signal lives on the same grid as the fused track.
  EXPECT_EQ(a.breath.samples.size(), a.fused_track.size());
  // Crossing count consistent with the estimated rate over the window.
  EXPECT_TRUE(a.rate.reliable);
  ASSERT_FALSE(a.rate.instantaneous.empty());
  EXPECT_FALSE(a.antenna_scores.empty());
}

TEST(Monitor, SeparatesConcurrentUsers) {
  experiments::ScenarioConfig cfg = default_scenario(32);
  cfg.users.clear();
  for (int u = 0; u < 3; ++u) {
    experiments::UserSpec spec;
    spec.rate_bpm = 8.0 + 4.0 * u;  // 8, 12, 16 bpm
    cfg.users.push_back(spec);
  }
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();
  BreathMonitor monitor;
  const auto analyses = monitor.analyze(reads);
  ASSERT_EQ(analyses.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_NEAR(analyses[u].rate.rate_bpm, 8.0 + 4.0 * u, 1.0)
        << "user " << u + 1;
  }
}

TEST(Monitor, SingleTagModeUsesBusiestStream) {
  experiments::Scenario scenario(default_scenario(33));
  const auto reads = scenario.run();
  MonitorConfig mc;
  mc.fuse_tags = false;
  BreathMonitor monitor(mc);
  const auto analyses = monitor.analyze(reads);
  ASSERT_EQ(analyses.size(), 1u);
  EXPECT_EQ(analyses[0].streams_used, 1u);
  EXPECT_NEAR(analyses[0].rate.rate_bpm, 10.0, 1.5);
}

// --- signal-health scan contract ---------------------------------------------
//
// analyze_user judges health from the sorted in-window read times of
// all of a user's streams. The reference below gathers those times and
// std::sorts them, then scans them with the monitor's rules; the five
// health fields must match it bit for bit, however the monitor orders
// the times internally.

struct HealthFields {
  SignalHealth health = SignalHealth::Lost;
  double last_read_s = -1.0;
  double tail_gap_s = 0.0;
  double max_gap_s = 0.0;
  double coverage = 0.0;
};

HealthFields reference_health(const StreamDemux& demux, std::uint64_t user,
                              double t0, double t1, const MonitorConfig& c) {
  std::vector<double> times;
  for (const auto* stream : demux.streams_for_user(user))
    for (const TagRead& r : *stream)
      if (r.time_s >= t0 && r.time_s <= t1) times.push_back(r.time_s);
  std::sort(times.begin(), times.end());
  HealthFields h;
  if (times.empty()) return h;
  const double window = t1 - t0;
  h.last_read_s = times.back();
  h.tail_gap_s = t1 - times.back();
  const double lead_gap = times.front() - t0;
  h.max_gap_s = std::max(lead_gap, h.tail_gap_s);
  double gap_time = lead_gap > c.stale_after_s ? lead_gap : 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap = times[i] - times[i - 1];
    h.max_gap_s = std::max(h.max_gap_s, gap);
    if (gap > c.stale_after_s) gap_time += gap;
  }
  if (h.tail_gap_s > c.stale_after_s) gap_time += h.tail_gap_s;
  h.coverage = std::clamp(1.0 - gap_time / window, 0.0, 1.0);
  if (h.tail_gap_s >= c.lost_after_s) {
    h.health = SignalHealth::Lost;
  } else if (h.tail_gap_s >= c.stale_after_s || h.coverage < c.min_coverage ||
             h.max_gap_s >= c.max_gap_for_ok_s) {
    h.health = SignalHealth::Stale;
  } else {
    h.health = SignalHealth::Ok;
  }
  return h;
}

/// One user's read pattern: `tags` x `antennas` streams reading from
/// t0 - 2 to t1 + 1 at ~17 Hz each, times on a 1/128 s grid (so streams
/// collide on identical timestamps), silent through every `silent`
/// interval. `scramble` swaps two reads of the last stream, so that
/// stream is no longer time-ordered. `verdict` is the health the shape
/// is built to reach.
struct BedShape {
  const char* name;
  SignalHealth verdict;
  std::vector<std::pair<double, double>> silent;
  std::uint32_t tags = 3;
  std::uint8_t antennas = 4;
};

constexpr double kHealthT0 = 5.0;
constexpr double kHealthT1 = 35.0;

void add_bed(StreamDemux& demux, std::uint64_t user, const BedShape& shape,
             bool scramble, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> step(0.04, 0.075);
  for (std::uint32_t tag = 1; tag <= shape.tags; ++tag) {
    for (std::uint8_t ant = 1; ant <= shape.antennas; ++ant) {
      std::vector<TagRead> stream;
      for (double t = kHealthT0 - 2.0 + step(rng); t < kHealthT1 + 1.0;
           t += step(rng)) {
        const double q = std::round(t * 128.0) / 128.0;
        const bool quiet = std::any_of(
            shape.silent.begin(), shape.silent.end(),
            [q](const auto& s) { return q >= s.first && q < s.second; });
        if (quiet) continue;
        TagRead r;
        r.time_s = q;
        r.epc = rfid::Epc96::from_user_tag(user, tag);
        r.antenna_id = ant;
        r.frequency_hz = 920.625e6;
        r.rssi_dbm = -50.0 - ant;
        r.phase_rad = common::wrap_phase_2pi(
            1.0 + 0.3 * std::sin(common::kTwoPi * 0.25 * q));
        stream.push_back(r);
      }
      if (scramble && tag == shape.tags && ant == shape.antennas &&
          stream.size() > 20)
        std::swap(stream[stream.size() / 2], stream[stream.size() / 2 + 7]);
      demux.add(stream);
    }
  }
}

std::vector<BedShape> health_shapes() {
  const double t0 = kHealthT0;
  const double t1 = kHealthT1;
  constexpr auto Ok = SignalHealth::Ok;
  constexpr auto Stale = SignalHealth::Stale;
  constexpr auto Lost = SignalHealth::Lost;
  return {
      {"steady", Ok, {}},
      {"gap_below_stale", Ok, {{15.0, 16.3}}},
      {"gap_above_stale", Ok, {{15.0, 16.7}}},
      {"gap_below_max_gap", Ok, {{20.0, 22.8}}},
      {"gap_above_max_gap", Stale, {{20.0, 23.3}}},
      {"lead_gap", Ok, {{t0 - 3.0, t0 + 2.0}}},
      {"tail_below_stale", Ok, {{t1 - 1.3, t1 + 2.0}}},
      {"tail_above_stale", Stale, {{t1 - 1.7, t1 + 2.0}}},
      {"tail_lost", Lost, {{t1 - 5.5, t1 + 2.0}}},
      {"low_coverage", Stale,
       {{7.0, 9.6}, {11.0, 13.6}, {15.0, 17.6}, {19.0, 21.6}, {23.0, 25.6}}},
      {"outside_window_only", Lost, {{t0, t1 + 0.5}}},
      {"one_stream", Ok, {{15.0, 16.7}}, 1, 1},
      {"one_tag_four_antennas", Stale, {{t1 - 1.7, t1 + 2.0}}, 1, 4},
  };
}

TEST(MonitorHealth, MatchesSortedReferenceOnMultiStreamUsers) {
  const MonitorConfig config;
  const BreathMonitor monitor(config);
  // One scratch for every case, so sizes shrink and grow through it.
  AnalysisScratch scratch;
  std::mt19937_64 rng(0xbed5);
  for (const bool scramble : {false, true}) {
    for (const BedShape& shape : health_shapes()) {
      SCOPED_TRACE(std::string(shape.name) + (scramble ? " scrambled" : ""));
      StreamDemux demux;
      add_bed(demux, 1, shape, scramble, rng);
      // A neighbour whose reads must not leak into user 1's scan.
      add_bed(demux, 2, {"neighbour", SignalHealth::Stale, {{10.0, 30.0}}},
              false, rng);
      const HealthFields want =
          reference_health(demux, 1, kHealthT0, kHealthT1, config);
      const UserAnalysis got =
          monitor.analyze_user(demux, 1, kHealthT0, kHealthT1, &scratch);
      EXPECT_EQ(got.health, want.health);
      EXPECT_EQ(got.last_read_s, want.last_read_s);
      EXPECT_EQ(got.tail_gap_s, want.tail_gap_s);
      EXPECT_EQ(got.max_gap_s, want.max_gap_s);
      EXPECT_EQ(got.coverage, want.coverage);
      EXPECT_EQ(want.health, shape.verdict);

      // The batched entry point shares the scan.
      const std::uint64_t ids[] = {2, 1};
      UserAnalysis batch[2];
      monitor.analyze_users(demux, ids, kHealthT0, kHealthT1, &scratch, batch);
      EXPECT_EQ(batch[1].health, want.health);
      EXPECT_EQ(batch[1].last_read_s, want.last_read_s);
      EXPECT_EQ(batch[1].tail_gap_s, want.tail_gap_s);
      EXPECT_EQ(batch[1].max_gap_s, want.max_gap_s);
      EXPECT_EQ(batch[1].coverage, want.coverage);
    }
  }
}

// --- baselines -----------------------------------------------------------------

TEST(Baselines, RunAndAreWorseThanPhase) {
  experiments::Scenario scenario(default_scenario(34));
  const auto reads = scenario.run();

  BreathMonitor monitor;
  const auto phase = monitor.analyze(reads);
  ASSERT_EQ(phase.size(), 1u);
  const double phase_err = std::abs(phase[0].rate.rate_bpm - 10.0);

  BaselineConfig rssi_cfg;
  rssi_cfg.kind = BaselineKind::Rssi;
  const auto rssi = analyze_baseline(reads, rssi_cfg);
  ASSERT_EQ(rssi.size(), 1u);
  EXPECT_GT(rssi[0].reads_used, 0u);

  BaselineConfig dop_cfg;
  dop_cfg.kind = BaselineKind::Doppler;
  const auto dop = analyze_baseline(reads, dop_cfg);
  ASSERT_EQ(dop.size(), 1u);

  // The paper's characterisation: RSSI is too coarse and Doppler too
  // noisy; phase wins. (Not a tautology: all three see the same reads.)
  const double rssi_err = std::abs(rssi[0].rate_bpm - 10.0);
  const double dop_err = std::abs(dop[0].rate_bpm - 10.0);
  EXPECT_LT(phase_err, 1.0);
  EXPECT_GT(std::min(rssi_err, dop_err), phase_err);
}

TEST(Baselines, KindNamesAndEmptyInput) {
  EXPECT_STREQ(baseline_kind_name(BaselineKind::Rssi), "rssi");
  EXPECT_STREQ(baseline_kind_name(BaselineKind::Doppler), "doppler");
  EXPECT_TRUE(analyze_baseline({}, BaselineConfig{}).empty());
}

// --- realtime pipeline -------------------------------------------------------------

TEST(Pipeline, EmitsRateUpdatesAfterWarmup) {
  experiments::ScenarioConfig cfg = default_scenario(35);
  cfg.duration_s = 60.0;
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();

  std::vector<PipelineEvent> events;
  PipelineConfig pcfg;
  RealtimePipeline pipeline(
      pcfg, [&events](const PipelineEvent& e) { events.push_back(e); });
  for (const auto& r : reads) pipeline.push(r);

  std::size_t updates = 0;
  double last_rate = 0.0;
  for (const auto& e : events) {
    if (e.kind == PipelineEventKind::RateUpdate) {
      ++updates;
      last_rate = e.rate_bpm;
      EXPECT_GE(e.time_s, pcfg.warmup_s - 1.0);
    }
  }
  EXPECT_GT(updates, 30u);  // ~1 per second after warm-up
  EXPECT_NEAR(last_rate, 10.0, 1.5);
  EXPECT_NE(pipeline.rate_summary(1), nullptr);
}

TEST(Pipeline, DetectsApnea) {
  // Breathing stops (breath hold) from t = 40 s for 20 s.
  experiments::ScenarioConfig cfg = default_scenario(36);
  cfg.duration_s = 80.0;
  cfg.users[0].apneas = {{40.0, 20.0}};
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();

  std::vector<PipelineEvent> events;
  RealtimePipeline pipeline(
      PipelineConfig{}, [&events](const PipelineEvent& e) {
        events.push_back(e);
      });
  for (const auto& r : reads) pipeline.push(r);

  bool apnea_seen = false;
  double apnea_time = 0.0;
  for (const auto& e : events) {
    if (e.kind == PipelineEventKind::ApneaAlert && !apnea_seen) {
      apnea_seen = true;
      apnea_time = e.time_s;
    }
  }
  ASSERT_TRUE(apnea_seen);
  // The alert fires during the hold, after the silence threshold.
  EXPECT_GT(apnea_time, 45.0);
  EXPECT_LT(apnea_time, 62.0);
}

TEST(Pipeline, TracksTheBreathingPeriodBeforeTheHold) {
  // DetectsApnea's run, read before the hold. Its 20-38 s windows sit on
  // a knife edge between the 10 bpm period and its double: an ACF seed
  // that lifts long lags (the n/(n-lag) bias correction) centres the
  // band on ~5 bpm there. Every vouched rate before the hold must be
  // near the truth, and most of the updates from 20 to 38 s must be.
  experiments::ScenarioConfig cfg = default_scenario(36);
  cfg.duration_s = 80.0;
  cfg.users[0].apneas = {{40.0, 20.0}};
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();

  std::vector<PipelineEvent> events;
  RealtimePipeline pipeline(
      PipelineConfig{}, [&events](const PipelineEvent& e) {
        events.push_back(e);
      });
  for (const auto& r : reads) pipeline.push(r);

  std::size_t updates = 0;
  std::size_t near_truth = 0;
  for (const auto& e : events) {
    if (e.kind != PipelineEventKind::RateUpdate || e.time_s >= 40.0) continue;
    const bool near = std::abs(e.rate_bpm - 10.0) <= 3.0;
    if (e.reliable) {
      EXPECT_TRUE(near) << "t=" << e.time_s << " " << e.rate_bpm;
    }
    if (e.time_s < 19.5 || e.time_s > 38.5) continue;  // ticks 20..38 s
    ++updates;
    if (near) ++near_truth;
  }
  EXPECT_EQ(updates, 19u);
  EXPECT_GE(2 * near_truth, updates) << near_truth << " of " << updates;
}

TEST(Pipeline, DetectsSignalLossAndRecovery) {
  // Subject turns away (blocked) between 30 s and 45 s: no reads at all.
  experiments::ScenarioConfig cfg = default_scenario(37);
  cfg.duration_s = 30.0;
  experiments::Scenario scenario(cfg);
  auto reads = scenario.run();
  // Synthesize the outage by shifting a second capture by 45 s.
  experiments::ScenarioConfig cfg2 = default_scenario(38);
  cfg2.duration_s = 20.0;
  experiments::Scenario scenario2(cfg2);
  for (auto r : scenario2.run()) {
    r.time_s += 45.0;
    reads.push_back(r);
  }

  std::vector<PipelineEvent> events;
  RealtimePipeline pipeline(
      PipelineConfig{}, [&events](const PipelineEvent& e) {
        events.push_back(e);
      });
  for (const auto& r : reads) pipeline.push(r);

  bool lost = false, recovered = false;
  for (const auto& e : events) {
    if (e.kind == PipelineEventKind::SignalLost) lost = true;
    if (e.kind == PipelineEventKind::SignalRecovered) {
      EXPECT_TRUE(lost);
      recovered = true;
    }
  }
  EXPECT_TRUE(lost);
  EXPECT_TRUE(recovered);
}

TEST(Pipeline, EventNames) {
  EXPECT_STREQ(pipeline_event_name(PipelineEventKind::RateUpdate),
               "rate-update");
  EXPECT_STREQ(pipeline_event_name(PipelineEventKind::ApneaAlert),
               "apnea-alert");
  EXPECT_STREQ(pipeline_event_name(PipelineEventKind::SignalLost),
               "signal-lost");
}

// --- experiments harness -------------------------------------------------------

TEST(Experiments, ScenarioValidation) {
  experiments::ScenarioConfig cfg;
  cfg.users.clear();
  EXPECT_THROW(experiments::Scenario{cfg}, std::invalid_argument);
  cfg = experiments::ScenarioConfig{};
  cfg.tags_per_user = 0;
  EXPECT_THROW(experiments::Scenario{cfg}, std::invalid_argument);
}

TEST(Experiments, TrialProducesPerUserResults) {
  experiments::ScenarioConfig cfg = default_scenario(40);
  cfg.duration_s = 60.0;
  const auto trial = experiments::run_trial(cfg);
  ASSERT_EQ(trial.users.size(), 1u);
  EXPECT_DOUBLE_EQ(trial.users[0].true_bpm, 10.0);
  EXPECT_GT(trial.users[0].accuracy, 0.9);
  EXPECT_GT(trial.read_rate_hz, 30.0);
}

TEST(Experiments, TrialsAreDeterministicPerSeed) {
  experiments::ScenarioConfig cfg = default_scenario(41);
  cfg.duration_s = 30.0;
  const auto a = experiments::run_trial(cfg);
  const auto b = experiments::run_trial(cfg);
  ASSERT_EQ(a.users.size(), b.users.size());
  EXPECT_DOUBLE_EQ(a.users[0].estimated_bpm, b.users[0].estimated_bpm);
  EXPECT_EQ(a.total_reads, b.total_reads);
}

TEST(Experiments, AggregateCombinesTrials) {
  experiments::ScenarioConfig cfg = default_scenario(42);
  cfg.duration_s = 30.0;
  const auto agg = experiments::run_trials(cfg, 3);
  EXPECT_EQ(agg.trials, 3u);
  EXPECT_EQ(agg.accuracy.count(), 3u);
  EXPECT_GT(agg.accuracy.mean(), 0.8);
}

TEST(Experiments, ContendingTagsAreNotUsers) {
  experiments::ScenarioConfig cfg = default_scenario(43);
  cfg.duration_s = 30.0;
  cfg.contending_tags = 10;
  const auto trial = experiments::run_trial(cfg);
  EXPECT_EQ(trial.users.size(), 1u);  // item tags excluded from results
  EXPECT_GT(trial.read_rate_hz, trial.monitor_read_rate_hz);
}

}  // namespace
}  // namespace tagbreathe::core
