// Unit tests: two-ray ground multipath and dynamic tag presence.
#include <gtest/gtest.h>

#include <memory>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "core/monitor.hpp"
#include "rfid/link_budget.hpp"
#include "rfid/reader.hpp"

namespace tagbreathe {
namespace {

constexpr double kFreq = 922.25e6;

// --- two-ray ground model ---------------------------------------------------

TEST(TwoRay, DisabledMatchesExponentModel) {
  rfid::LinkBudget link{rfid::LinkBudgetConfig{}};
  const common::Vec3 a{0.0, 0.0, 1.0};
  const common::Vec3 b{4.0, 0.0, 1.2};
  const double d = common::distance(a, b);
  EXPECT_DOUBLE_EQ(link.path_loss_db(a, b, kFreq),
                   link.path_loss_db(d, kFreq));
}

TEST(TwoRay, ProducesFadesAndAverageDecay) {
  rfid::LinkBudgetConfig cfg;
  cfg.two_ray_ground = true;
  rfid::LinkBudget link{cfg};
  const common::Vec3 a{0.0, 0.0, 1.0};

  // Scan distance: the floor-bounce delay is sub-metre, so fades cycle
  // slowly (a full constructive/destructive cycle every few metres).
  // Measure the deviation from the smooth free-space trend.
  rfid::LinkBudgetConfig fs_cfg;
  fs_cfg.path_loss_exponent = 2.0;
  rfid::LinkBudget free_space{fs_cfg};
  double residual_lo = 1e9, residual_hi = -1e9;
  for (double d = 1.0; d <= 8.0; d += 0.02) {
    const common::Vec3 b{d, 0.0, 1.2};
    const double residual = link.path_loss_db(a, b, kFreq) -
                            free_space.path_loss_db(
                                common::distance(a, b), kFreq);
    residual_lo = std::min(residual_lo, residual);
    residual_hi = std::max(residual_hi, residual);
  }
  // Interference with |G| = 0.6 spans roughly -4 dB (constructive) to
  // +8 dB (destructive) around free space.
  EXPECT_LT(residual_lo, -2.0);
  EXPECT_GT(residual_hi, 3.0);
}

TEST(TwoRay, FrequencySelectiveNearNulls) {
  // A sub-metre bounce delay makes the channel nearly flat across the
  // 26 MHz band in benign geometry, but near a destructive null small
  // frequency changes move the null — which is exactly why regulators'
  // frequency hopping rescues faded geometries (Sec. IV-A.3).
  rfid::LinkBudgetConfig cfg;
  cfg.two_ray_ground = true;
  rfid::LinkBudget link{cfg};
  const common::Vec3 a{0.0, 0.0, 1.0};

  // Find the deepest-fade distance in the working range.
  double worst_d = 1.0, worst_pl = -1e9;
  for (double d = 1.0; d <= 8.0; d += 0.01) {
    const double pl = link.path_loss_db(a, {d, 0.0, 1.2}, kFreq);
    if (pl > worst_pl) {
      worst_pl = pl;
      worst_d = d;
    }
  }
  double lo = 1e9, hi = -1e9;
  for (double f = 902e6; f < 928e6; f += 0.5e6) {
    const double pl = link.path_loss_db(a, {worst_d, 0.0, 1.2}, f);
    lo = std::min(lo, pl);
    hi = std::max(hi, pl);
  }
  EXPECT_GT(hi - lo, 0.3);  // hopping sees measurably different fades
}

TEST(TwoRay, EndToEndStillTracksBreathing) {
  // The pipeline must survive multipath: channel hopping averages the
  // per-channel fades exactly as the paper argues.
  body::SubjectConfig sc;
  sc.user_id = 1;
  sc.position = {3.0, 0.0, 0.0};
  sc.heading_rad = common::kPi;
  auto subject = std::make_unique<body::Subject>(
      sc, body::BreathingModel(body::MetronomeSchedule(12.0), {}));
  std::vector<std::unique_ptr<rfid::TagBehavior>> tags;
  for (int i = 0; i < 3; ++i)
    tags.push_back(std::make_unique<rfid::BodyTag>(
        rfid::Epc96::from_user_tag(1, static_cast<std::uint32_t>(i + 1)),
        subject.get(),
        body::Subject::all_sites()[static_cast<std::size_t>(i)]));
  rfid::ReaderConfig rc;
  rc.link.two_ray_ground = true;
  rc.seed = 31;
  rfid::ReaderSim sim(rc, std::move(tags));
  const auto reads = sim.run(120.0);
  ASSERT_GT(reads.size(), 2000u);

  core::BreathMonitor monitor;
  const auto analyses = monitor.analyze(reads);
  ASSERT_EQ(analyses.size(), 1u);
  EXPECT_NEAR(analyses[0].rate.rate_bpm, 12.0, 1.5);
}

// --- dynamic tag presence ------------------------------------------------------

TEST(Presence, StaticTagWindowLimitsReads) {
  body::SubjectConfig sc;
  sc.user_id = 1;
  sc.position = {2.0, 0.0, 0.0};
  sc.heading_rad = common::kPi;
  auto subject = std::make_unique<body::Subject>(
      sc, body::BreathingModel(body::MetronomeSchedule(10.0), {}));
  std::vector<std::unique_ptr<rfid::TagBehavior>> tags;
  tags.push_back(std::make_unique<rfid::BodyTag>(
      rfid::Epc96::from_user_tag(1, 1), subject.get(),
      body::TagSite::Chest));
  auto item = std::make_unique<rfid::StaticTag>(
      rfid::Epc96::from_user_tag(0xFFFF, 1), common::Vec3{1.5, 1.0, 0.8});
  item->set_presence_window(5.0, 10.0);
  tags.push_back(std::move(item));

  rfid::ReaderConfig rc;
  rc.seed = 32;
  rfid::ReaderSim sim(rc, std::move(tags));
  const auto reads = sim.run(15.0);

  double item_first = 1e9, item_last = -1.0;
  std::size_t item_reads = 0;
  for (const auto& r : reads) {
    if (r.epc.user_id() == 0xFFFF) {
      item_first = std::min(item_first, r.time_s);
      item_last = std::max(item_last, r.time_s);
      ++item_reads;
    }
  }
  ASSERT_GT(item_reads, 10u);
  EXPECT_GE(item_first, 5.0);
  EXPECT_LT(item_last, 10.0 + 0.05);
}

TEST(Presence, WindowValidation) {
  rfid::StaticTag tag(rfid::Epc96::from_user_tag(1, 1), {});
  EXPECT_TRUE(tag.present_at(-1e9));  // default: always present
  EXPECT_THROW(tag.set_presence_window(5.0, 5.0), std::invalid_argument);
}

}  // namespace
}  // namespace tagbreathe
