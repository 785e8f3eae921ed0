// Coverage for the remaining small surfaces: BreathSignal accessors,
// reader statistics and pipeline edge cases.
#include <gtest/gtest.h>

#include <memory>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "core/breath_extractor.hpp"
#include "core/pipeline.hpp"
#include "experiments/scenario.hpp"
#include "rfid/reader.hpp"

namespace tagbreathe {
namespace {

// --- BreathSignal accessors ----------------------------------------------------

TEST(BreathSignal, ValueAndTimeViews) {
  core::BreathSignal sig;
  sig.sample_rate_hz = 20.0;
  sig.samples = {{0.0, 1.0}, {0.05, 2.0}, {0.10, 3.0}};
  EXPECT_EQ(sig.values(), (std::vector<double>{1.0, 2.0, 3.0}));
}

// --- reader statistics -----------------------------------------------------------

TEST(ReaderStats, CountersAreConsistent) {
  body::SubjectConfig sc;
  sc.user_id = 1;
  sc.position = {2.0, 0.0, 0.0};
  sc.heading_rad = common::kPi;
  auto subject = std::make_unique<body::Subject>(
      sc, body::BreathingModel(body::MetronomeSchedule(10.0), {}));
  std::vector<std::unique_ptr<rfid::TagBehavior>> tags;
  for (int i = 0; i < 2; ++i)
    tags.push_back(std::make_unique<rfid::BodyTag>(
        rfid::Epc96::from_user_tag(1, static_cast<std::uint32_t>(i + 1)),
        subject.get(),
        body::Subject::all_sites()[static_cast<std::size_t>(i)]));
  rfid::ReaderConfig rc;
  rc.seed = 71;
  rfid::ReaderSim sim(rc, std::move(tags));
  const auto reads = sim.run(5.0);

  // now_s advanced, per-tag counters sum to the report count.
  EXPECT_NEAR(sim.now_s(), 5.0, 0.05);
  std::uint64_t total = 0;
  for (auto c : sim.reads_per_tag()) total += c;
  EXPECT_EQ(total, reads.size());
  EXPECT_EQ(sim.tag_count(), 2u);
  EXPECT_EQ(sim.mac_stats().successes, total);

  // Running again continues monotonically.
  const auto more = sim.run(2.0);
  EXPECT_NEAR(sim.now_s(), 7.0, 0.05);
  if (!more.empty()) {
    EXPECT_GE(more.front().time_s, reads.back().time_s);
  }
}

TEST(ReaderStats, ConstructionValidation) {
  EXPECT_THROW(
      rfid::ReaderSim(rfid::ReaderConfig{},
                      std::vector<std::unique_ptr<rfid::TagBehavior>>{}),
      std::invalid_argument);
  rfid::ReaderConfig no_antennas;
  no_antennas.antennas.clear();
  std::vector<std::unique_ptr<rfid::TagBehavior>> one;
  one.push_back(std::make_unique<rfid::StaticTag>(
      rfid::Epc96::from_user_tag(1, 1), common::Vec3{1.0, 0.0, 1.0}));
  EXPECT_THROW(rfid::ReaderSim(no_antennas, std::move(one)),
               std::invalid_argument);
}

// --- pipeline edges ------------------------------------------------------------

TEST(PipelineEdges, AdvanceBeforeAnyReadIsNoop) {
  core::RealtimePipeline pipeline(core::PipelineConfig{}, nullptr);
  pipeline.advance_to(100.0);  // no reads yet: must not crash or emit
  EXPECT_EQ(pipeline.tracked_users(), 0u);
  EXPECT_DOUBLE_EQ(pipeline.now_s(), 0.0);
}

TEST(PipelineEdges, NoEventsBeforeWarmup) {
  experiments::ScenarioConfig cfg;
  cfg.duration_s = 8.0;  // shorter than the 10 s warm-up
  cfg.seed = 72;
  experiments::Scenario scenario(cfg);
  std::size_t events = 0;
  core::RealtimePipeline pipeline(
      core::PipelineConfig{},
      [&events](const core::PipelineEvent&) { ++events; });
  for (const auto& r : scenario.run()) pipeline.push(r);
  EXPECT_EQ(events, 0u);
}

}  // namespace
}  // namespace tagbreathe
