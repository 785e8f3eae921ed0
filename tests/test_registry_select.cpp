// Unit + integration tests: the EPC mapping table (Sec. IV-C fallback)
// and Gen2 SELECT masking.
#include <gtest/gtest.h>

#include <memory>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "core/demux.hpp"
#include "core/monitor.hpp"
#include "core/tag_registry.hpp"
#include "experiments/runner.hpp"
#include "rfid/reader.hpp"

namespace tagbreathe {
namespace {

// --- registry ------------------------------------------------------------

TEST(TagRegistry, RegisterLookupUnregister) {
  core::TagRegistry registry;
  const auto factory =
      *rfid::Epc96::from_hex("e28011700000020f12345678");
  EXPECT_FALSE(registry.lookup(factory).has_value());

  registry.register_tag(factory, 42, 3);
  const auto id = registry.lookup(factory);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->user_id, 42u);
  EXPECT_EQ(id->tag_id, 3u);
  EXPECT_EQ(registry.size(), 1u);

  // Re-registration overwrites (tag moved to another user).
  registry.register_tag(factory, 7, 1);
  EXPECT_EQ(registry.lookup(factory)->user_id, 7u);
  EXPECT_EQ(registry.size(), 1u);

  registry.clear();
  EXPECT_TRUE(registry.empty());
  EXPECT_FALSE(registry.lookup(factory).has_value());
}

TEST(TagRegistry, DemuxResolvesThroughRegistry) {
  core::TagRegistry registry;
  const auto tag_a = *rfid::Epc96::from_hex("e280117000000000000000aa");
  const auto tag_b = *rfid::Epc96::from_hex("e280117000000000000000bb");
  const auto unknown = *rfid::Epc96::from_hex("e280117000000000000000cc");
  registry.register_tag(tag_a, 1, 1);
  registry.register_tag(tag_b, 1, 2);

  core::StreamDemux demux;
  demux.set_registry(&registry);
  auto push = [&demux](const rfid::Epc96& epc, double t) {
    core::TagRead r;
    r.epc = epc;
    r.time_s = t;
    r.antenna_id = 1;
    demux.add(r);
  };
  push(tag_a, 0.0);
  push(tag_b, 0.1);
  push(unknown, 0.2);  // unregistered item tag: ignored
  push(tag_a, 0.3);

  EXPECT_EQ(demux.accepted_reads(), 3u);
  EXPECT_EQ(demux.ignored_reads(), 1u);
  EXPECT_EQ(demux.users(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(demux.streams_for_user(1).size(), 2u);  // two mapped tags
}

TEST(TagRegistry, EndToEndWithFactoryEpcs) {
  // Tags keep arbitrary factory EPCs; only the registry knows who wears
  // what. The pipeline must work identically to the Fig. 9 scheme.
  body::SubjectConfig sc;
  sc.user_id = 1;  // the simulator still needs an identity for geometry
  sc.position = {3.0, 0.0, 0.0};
  sc.heading_rad = common::kPi;
  auto subject = std::make_unique<body::Subject>(
      sc, body::BreathingModel(body::MetronomeSchedule(11.0), {}));

  const rfid::Epc96 factory[3] = {
      *rfid::Epc96::from_hex("30395dfa833114a000000001"),
      *rfid::Epc96::from_hex("30395dfa833114a0000e4d02"),
      *rfid::Epc96::from_hex("30395dfa833114a0007a1c03"),
  };
  core::TagRegistry registry;
  std::vector<std::unique_ptr<rfid::TagBehavior>> tags;
  for (int i = 0; i < 3; ++i) {
    tags.push_back(std::make_unique<rfid::BodyTag>(
        factory[i], subject.get(),
        body::Subject::all_sites()[static_cast<std::size_t>(i)]));
    registry.register_tag(factory[i], /*user=*/55,
                          static_cast<std::uint32_t>(i + 1));
  }
  rfid::ReaderConfig rc;
  rc.seed = 61;
  rfid::ReaderSim sim(rc, std::move(tags));
  const auto reads = sim.run(90.0);

  core::StreamDemux demux;
  demux.set_registry(&registry);
  demux.add(reads);
  core::BreathMonitor monitor;
  const auto analysis = monitor.analyze_user(demux, 55, reads.front().time_s,
                                             reads.back().time_s);
  EXPECT_EQ(analysis.user_id, 55u);
  EXPECT_EQ(analysis.streams_used, 3u);
  EXPECT_NEAR(analysis.rate.rate_bpm, 11.0, 1.0);
}

// --- Gen2 SELECT ------------------------------------------------------------

TEST(Select, MaskedTagsNeverReply) {
  rfid::Gen2Mac mac(4);
  mac.set_select_mask({true, false, true, false});
  common::Rng rng(5);
  std::vector<int> reads(4, 0);
  double t = 0.0;
  while (t < 5.0) {
    const auto slot = mac.step(std::vector<bool>(4, true),
                               [](std::size_t) { return 1.0; }, rng);
    t += slot.duration_s;
    if (slot.kind == rfid::SlotKind::Success)
      ++reads[static_cast<std::size_t>(slot.tag_index)];
  }
  EXPECT_GT(reads[0], 50);
  EXPECT_GT(reads[2], 50);
  EXPECT_EQ(reads[1], 0);
  EXPECT_EQ(reads[3], 0);
}

TEST(Select, MaskValidationAndClear) {
  rfid::Gen2Mac mac(2);
  EXPECT_THROW(mac.set_select_mask({true}), std::invalid_argument);
  mac.set_select_mask({false, false});
  common::Rng rng(6);
  // Nothing selected: pure idle.
  const auto slot = mac.step({true, true}, [](std::size_t) { return 1.0; },
                             rng);
  EXPECT_EQ(slot.kind, rfid::SlotKind::Idle);
  // Empty mask selects everything again.
  mac.set_select_mask({});
  const auto slot2 = mac.step({true, true}, [](std::size_t) { return 1.0; },
                              rng);
  EXPECT_EQ(slot2.kind, rfid::SlotKind::Query);
}

TEST(Select, RestoresMonitoringRateUnderContention) {
  experiments::ScenarioConfig cfg;
  cfg.distance_m = 2.0;
  cfg.contending_tags = 30;
  cfg.duration_s = 30.0;
  cfg.seed = 62;

  cfg.select_monitoring_only = false;
  const auto open = experiments::run_trial(cfg);
  cfg.select_monitoring_only = true;
  const auto masked = experiments::run_trial(cfg);

  EXPECT_LT(open.monitor_read_rate_hz, 15.0);
  EXPECT_GT(masked.monitor_read_rate_hz, 45.0);
  // And the item tags truly vanish from the air.
  EXPECT_NEAR(masked.read_rate_hz, masked.monitor_read_rate_hz, 1e-9);
}

}  // namespace
}  // namespace tagbreathe
