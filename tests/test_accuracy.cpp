// The paper's accuracy claims (Eq. 8) as tier-1 gates.
//
// Each test re-runs one figure bench's scenario grid with the bench's
// own seeds and trial counts (bench/fig12_distance.cpp and friends) and
// asserts a per-row floor about 0.01 below the value measured when the
// floors were set. The rows are deterministic, so a floor only trips
// when a change to the simulator or the analysis moves a row's mean
// accuracy by more than that margin. Rows well below the rest keep
// their own floor: the 60 deg orientation dip and the 90 deg edge of
// the LOS cone (Fig. 16).
//
// A mean accuracy can hide a few confident and badly wrong events, so
// the vouched-rate gate at the end counts them one by one through the
// realtime pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "body/subject.hpp"
#include "common/stats.hpp"
#include "core/pipeline.hpp"
#include "experiments/runner.hpp"
#include "experiments/scenario.hpp"

namespace tagbreathe {
namespace {

using experiments::ScenarioConfig;
using experiments::UserSpec;

void expect_floor(const std::string& row, double accuracy, double floor) {
  EXPECT_GE(accuracy, floor) << row << ": accuracy " << accuracy
                             << " fell below its floor " << floor;
}

// Fig. 12: one user at 1-6 m, rates 5/10/15/20 bpm, 3 trials per rate.
TEST(AccuracyFloors, Fig12Distance) {
  const double floors[] = {0.986, 0.986, 0.987, 0.980, 0.980, 0.979};
  const double rates[] = {5.0, 10.0, 15.0, 20.0};
  for (int d = 1; d <= 6; ++d) {
    common::RunningStats acc;
    for (double rate : rates) {
      ScenarioConfig cfg;
      cfg.distance_m = d;
      UserSpec user;
      user.rate_bpm = rate;
      cfg.users = {user};
      cfg.seed = 5000 + static_cast<std::uint64_t>(d) * 100 +
                 static_cast<std::uint64_t>(rate);
      acc.merge(experiments::run_trials(cfg, 3).accuracy);
    }
    expect_floor(std::to_string(d) + " m", acc.mean(), floors[d - 1]);
  }
}

// Fig. 13: 1-4 users side by side, 3 tags each, 6 trials.
TEST(AccuracyFloors, Fig13MultiUser) {
  const double floors[] = {0.983, 0.983, 0.985, 0.983};
  for (int users = 1; users <= 4; ++users) {
    ScenarioConfig cfg;
    cfg.users.clear();
    for (int u = 0; u < users; ++u) {
      UserSpec spec;
      spec.rate_bpm = 8.0 + 3.0 * u;
      spec.chest_style = 0.3 + 0.15 * u;
      cfg.users.push_back(spec);
    }
    cfg.seed = 6100 + static_cast<std::uint64_t>(users);
    const auto agg = experiments::run_trials(cfg, 6);
    expect_floor(std::to_string(users) + " users", agg.accuracy.mean(),
                 floors[users - 1]);
  }
}

// Fig. 14: one user at 2 m with 0-30 contending item tags, 6 trials.
TEST(AccuracyFloors, Fig14ContendingTags) {
  const int contending[] = {0, 5, 10, 15, 20, 25, 30};
  const double floors[] = {0.984, 0.984, 0.987, 0.984,
                          0.985, 0.981, 0.980};
  for (int i = 0; i < 7; ++i) {
    ScenarioConfig cfg;
    cfg.distance_m = 2.0;
    cfg.contending_tags = contending[i];
    cfg.seed = 6200 + static_cast<std::uint64_t>(contending[i]);
    const auto agg = experiments::run_trials(cfg, 6);
    expect_floor(std::to_string(contending[i]) + " contending",
                 agg.accuracy.mean(), floors[i]);
  }
}

// Fig. 16: orientation 0-90 deg with a LOS path, 8 trials. 60 deg is a
// known dip and 90 deg sits at the edge of the readable cone; each
// keeps its own floor.
TEST(AccuracyFloors, Fig16Orientation) {
  const int degrees[] = {0, 15, 30, 45, 60, 75, 90};
  const double floors[] = {0.986, 0.984, 0.983, 0.980,
                          0.849, 0.981, 0.908};
  for (int i = 0; i < 7; ++i) {
    ScenarioConfig cfg;
    cfg.users = {UserSpec()};
    cfg.users[0].orientation_deg = degrees[i];
    cfg.seed = 6400 + static_cast<std::uint64_t>(degrees[i]);
    const auto agg = experiments::run_trials(cfg, 8);
    expect_floor(std::to_string(degrees[i]) + " deg", agg.accuracy.mean(),
                 floors[i]);
  }
}

// Fig. 17: sitting, standing and lying, 8 trials.
TEST(AccuracyFloors, Fig17Postures) {
  const body::Posture postures[] = {body::Posture::Sitting,
                                    body::Posture::Standing,
                                    body::Posture::Lying};
  const double floors[] = {0.986, 0.983, 0.975};
  for (int i = 0; i < 3; ++i) {
    ScenarioConfig cfg;
    cfg.users = {UserSpec()};
    cfg.users[0].posture = postures[i];
    cfg.seed = 6500 + static_cast<std::uint64_t>(postures[i]);
    const auto agg = experiments::run_trials(cfg, 8);
    expect_floor(body::posture_name(postures[i]), agg.accuracy.mean(),
                 floors[i]);
  }
}

// Vouched must mean right: 60 breathing-only runs of the default
// scenario (seeds 100-159, 60 s, rates 6.0, 6.2, ..., 17.8 bpm) through
// the realtime pipeline. A RateUpdate marked reliable more than 3 bpm
// from the run's true rate is a vouched-wrong rate; no run holds its
// breath, so every ApneaAlert is a false alarm. Each bound is the count
// measured when it was set; the failure message lists every event. With
// the padded, bias-corrected ACF seed the counts were 4 and 1; the
// decimated raw ACF seed brought both to 0.
TEST(VouchedRates, BreathingOnlyRunsVouchForNoWrongRate) {
  constexpr std::size_t kMaxVouchedWrong = 0;
  constexpr std::size_t kMaxFalseApnea = 0;
  std::size_t vouched = 0;
  std::size_t vouched_wrong = 0;
  std::size_t false_apnea = 0;
  std::ostringstream events;
  for (int i = 0; i < 60; ++i) {
    ScenarioConfig cfg;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    cfg.duration_s = 60.0;
    cfg.users[0].rate_bpm = 6.0 + 0.2 * i;
    experiments::Scenario scenario(cfg);
    const auto reads = scenario.run();
    const double truth = scenario.true_rate_bpm(0);
    core::RealtimePipeline pipeline(
        core::PipelineConfig{}, [&](const core::PipelineEvent& e) {
          if (e.kind == core::PipelineEventKind::ApneaAlert) {
            ++false_apnea;
            events << "\n  apnea alert: seed " << cfg.seed << " t=" << e.time_s;
          }
          if (e.kind != core::PipelineEventKind::RateUpdate || !e.reliable)
            return;
          ++vouched;
          if (std::abs(e.rate_bpm - truth) > 3.0) {
            ++vouched_wrong;
            events << "\n  vouched wrong: seed " << cfg.seed
                   << " t=" << e.time_s << " rate=" << e.rate_bpm
                   << " truth=" << truth;
          }
        });
    for (const auto& read : reads) pipeline.push(read);
  }
  EXPECT_GT(vouched, 1500u);  // the gate must see rates to judge
  EXPECT_LE(vouched_wrong, kMaxVouchedWrong) << events.str();
  EXPECT_LE(false_apnea, kMaxFalseApnea) << events.str();
}

}  // namespace
}  // namespace tagbreathe
