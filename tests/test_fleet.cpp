// ReaderFleet + fleet chaos soak (ISSUE 6): config validation, the
// Up/Degraded/Dead health ladder, cross-reader handoff with overlap
// duplicate suppression, bounded rebalancing off dead readers (with
// parked-state restore and journal tail replay), alarm-only
// degradation, merged-stream determinism across shard counts and shard
// thread counts, and the >= 16-reader / >= 10k-user acceptance soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/chaos.hpp"
#include "core/demux.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_soak.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "rfid/epc.hpp"
#include "soak_invariants.hpp"

namespace fs = std::filesystem;
using namespace tagbreathe;
using namespace tagbreathe::fleet;

namespace {

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static std::atomic<unsigned> counter{0};
    path = fs::temp_directory_path() /
           ("tagbreathe_fleet_" + std::to_string(::getpid()) + "_" + tag +
            "_" + std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

core::TagRead make_read(double t, std::uint64_t user, std::uint32_t tag = 1,
                        std::uint8_t antenna = 1) {
  core::TagRead r;
  r.time_s = t;
  r.epc = rfid::Epc96::from_user_tag(user, tag);
  r.antenna_id = antenna;
  r.frequency_hz = 920.625e6;
  r.phase_rad = 1.0 + 0.001 * t;  // distinct phases defeat dedup heuristics
  return r;
}

/// Small fleet with a fast health ladder: Degraded after 1 silent pump,
/// Dead after 2.
FleetConfig fast_fleet(std::size_t n_readers, std::size_t n_shards) {
  FleetConfig fc;
  fc.n_readers = n_readers;
  fc.n_shards = n_shards;
  fc.ingest.max_users = 0;
  fc.degraded_after_windows = 1;
  fc.dead_after_windows = 2;
  return fc;
}

// ---------------------------------------------------------------------------
// Configuration validation

TEST(FleetConfigValidation, RejectsNonsense) {
  const auto expect_throw = [](auto mutate) {
    FleetConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  expect_throw([](FleetConfig& c) { c.n_readers = 0; });
  expect_throw([](FleetConfig& c) { c.n_shards = 0; });
  expect_throw([](FleetConfig& c) { c.degraded_after_windows = 0; });
  expect_throw([](FleetConfig& c) {
    c.degraded_after_windows = 4;
    c.dead_after_windows = 4;  // must strictly exceed
  });
  expect_throw([](FleetConfig& c) { c.rebalance_deadline_s = 0.0; });
  expect_throw([](FleetConfig& c) { c.rebalance_batch = 0; });
  expect_throw([](FleetConfig& c) { c.handoff_suppress_s = -0.1; });
  expect_throw([](FleetConfig& c) { c.ingest.queue_capacity = 0; });
  expect_throw([](FleetConfig& c) { c.pipeline.window_s = -1.0; });
  FleetConfig ok;
  EXPECT_NO_THROW(ok.validate());
}

TEST(FleetConfigValidation, SoakConfigRejectsNonsense) {
  const auto expect_throw = [](auto mutate) {
    FleetSoakConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  expect_throw([](FleetSoakConfig& c) { c.n_users = 0; });
  expect_throw([](FleetSoakConfig& c) { c.duration_s = 0.0; });
  expect_throw([](FleetSoakConfig& c) { c.roaming_users = c.n_users + 1; });
  expect_throw([](FleetSoakConfig& c) {
    // Chaos script naming a reader the fleet does not have.
    c.reader_chaos.push_back(
        core::ReaderChaosConfig::blackout(c.n_readers, 1.0, 1.0, 7));
  });
  FleetSoakConfig ok;
  EXPECT_NO_THROW(ok.validate());
}

TEST(FleetConfigValidation, HealthNamesAreStable) {
  EXPECT_STREQ(reader_health_name(ReaderHealth::Up), "Up");
  EXPECT_STREQ(reader_health_name(ReaderHealth::Degraded), "Degraded");
  EXPECT_STREQ(reader_health_name(ReaderHealth::Dead), "Dead");
}

// ---------------------------------------------------------------------------
// Reader-scoped chaos scenarios (satellite: core/chaos)

TEST(ReaderChaos, BlackoutWindowDropsAndCounts) {
  auto cfg = core::ReaderChaosConfig::blackout(/*reader=*/2, /*start_s=*/10.0,
                                               /*duration_s=*/5.0, /*seed=*/1);
  core::ReaderChaos chaos(cfg);
  EXPECT_EQ(chaos.reader(), 2u);
  EXPECT_FALSE(chaos.offline(9.999));
  EXPECT_TRUE(chaos.offline(10.0));
  EXPECT_TRUE(chaos.offline(14.999));
  EXPECT_FALSE(chaos.offline(15.0));

  std::vector<core::TagRead> out;
  chaos.feed(make_read(12.0, 1), out);  // inside the outage
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(chaos.outage_dropped(), 1u);
  chaos.feed(make_read(16.0, 1), out);  // after it
  chaos.flush(out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(chaos.outage_dropped(), 1u);
}

TEST(ReaderChaos, FlapSchedulesRepeatedOutages) {
  // 3 cycles of 4 s up / 2 s down starting at t=1: dark in [5,7), [11,13),
  // [17,19).
  auto cfg = core::ReaderChaosConfig::flap(0, 1.0, 4.0, 2.0, 3, 7);
  core::ReaderChaos chaos(cfg);
  EXPECT_EQ(cfg.outages.size(), 3u);
  EXPECT_FALSE(chaos.offline(4.9));
  EXPECT_TRUE(chaos.offline(5.5));
  EXPECT_FALSE(chaos.offline(8.0));
  EXPECT_TRUE(chaos.offline(12.9));
  EXPECT_TRUE(chaos.offline(17.0));
  EXPECT_FALSE(chaos.offline(19.0));
}

TEST(ReaderChaos, BurstOverloadConfiguresReplay) {
  auto cfg = core::ReaderChaosConfig::burst_overload(1, 5.0, 3, 42);
  EXPECT_TRUE(cfg.outages.empty());
  EXPECT_EQ(cfg.chaos.burst_period_s, 5.0);
  EXPECT_EQ(cfg.chaos.burst_copies, 3u);
  EXPECT_NO_THROW(cfg.validate());

  auto bad = cfg;
  bad.outages.push_back({-1.0, 2.0});
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Routing, merge order, handoff

TEST(ReaderFleet, RoutesUsersToTheirHashShard) {
  ReaderFleet fleet(fast_fleet(2, 3));
  // Time-ordered interleave: each reader's validator sees a
  // nondecreasing clock, as a real inventory round would deliver.
  for (int i = 0; i < 4; ++i) {
    for (std::uint64_t u = 1; u <= 6; ++u)
      fleet.offer((u - 1) % 2, make_read(0.1 * (i + 1), u));
  }
  fleet.pump(1.0);

  EXPECT_EQ(fleet.counters().admitted, 24u);
  EXPECT_EQ(fleet.counters().routed, 24u);
  EXPECT_EQ(fleet.counters().quarantined, 0u);
  EXPECT_EQ(fleet.tracked_users(), 6u);
  for (std::uint64_t u = 1; u <= 6; ++u) {
    const std::size_t shard = fleet.shard_of(u);
    ASSERT_LT(shard, 3u);
    EXPECT_TRUE(fleet.shard_pipeline(shard).tracks(u))
        << "user " << u << " missing from shard " << shard;
    ASSERT_TRUE(fleet.covering_reader(u).has_value());
    EXPECT_EQ(*fleet.covering_reader(u), (u - 1) % 2);
  }
  EXPECT_EQ(fleet.users_on_reader(0) + fleet.users_on_reader(1), 6u);
}

TEST(ReaderFleet, OutOfRangeReaderIsRefused) {
  ReaderFleet fleet(fast_fleet(2, 1));
  EXPECT_EQ(fleet.offer(2, make_read(0.1, 1)), core::EnqueueResult::Closed);
  EXPECT_EQ(fleet.offer(0, make_read(0.1, 1)), core::EnqueueResult::Enqueued);
}

TEST(ReaderFleet, MergedEventsArriveInTimeUserOrder) {
  core::SoakConfig pop;
  pop.n_users = 4;
  pop.tags_per_user = 1;
  pop.duration_s = 12.0;
  pop.read_rate_hz = 4.0;

  FleetConfig fc = fast_fleet(2, 2);
  fc.pipeline.window_s = 8.0;
  fc.pipeline.update_period_s = 1.0;
  fc.pipeline.warmup_s = 2.0;

  std::vector<FleetEvent> events;
  ReaderFleet fleet(fc, [&](const FleetEvent& fe) { events.push_back(fe); });
  double next_pump = 0.25;
  for (const core::TagRead& read : core::make_soak_population(pop)) {
    while (read.time_s >= next_pump) {
      fleet.pump(next_pump);
      next_pump += 0.25;
    }
    fleet.offer((read.epc.user_id() - 1) % 2, read);
  }
  fleet.pump(pop.duration_s);

  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    const auto& a = events[i - 1].event;
    const auto& b = events[i].event;
    EXPECT_TRUE(a.time_s < b.time_s ||
                (a.time_s == b.time_s && a.user_id <= b.user_id))
        << "merge order violated at event " << i;
  }
  EXPECT_EQ(fleet.counters().events, events.size());
}

TEST(ReaderFleet, OverlapDuplicateIsSuppressed) {
  ReaderFleet fleet(fast_fleet(2, 1));
  // Both antennas hear the same inventory round: one read delivered by
  // reader 0 and reader 1 with (near-)identical timestamps.
  fleet.offer(0, make_read(1.0, 7));
  fleet.offer(1, make_read(1.01, 7));
  fleet.pump(1.25);

  EXPECT_EQ(fleet.counters().admitted, 2u);
  EXPECT_EQ(fleet.counters().routed, 1u);
  EXPECT_EQ(fleet.counters().handoff_suppressed, 1u);
  EXPECT_EQ(fleet.counters().handoffs, 0u);
  ASSERT_TRUE(fleet.covering_reader(7).has_value());
  EXPECT_EQ(*fleet.covering_reader(7), 0u);  // first heard wins
}

TEST(ReaderFleet, HandoffBeyondSuppressionWindowMigratesStream) {
  ReaderFleet fleet(fast_fleet(2, 1));
  fleet.offer(0, make_read(1.0, 7));
  fleet.pump(1.25);
  // The tag moved: the next read arrives from reader 1 well past the
  // 50 ms overlap window.
  fleet.offer(1, make_read(2.0, 7));
  fleet.offer(0, make_read(2.2, 8));  // reader 0 keeps feeding user 8
  fleet.pump(2.25);

  EXPECT_EQ(fleet.counters().handoffs, 1u);
  EXPECT_EQ(fleet.counters().handoff_suppressed, 0u);
  ASSERT_TRUE(fleet.covering_reader(7).has_value());
  EXPECT_EQ(*fleet.covering_reader(7), 1u);
  EXPECT_EQ(fleet.users_on_reader(0), 1u);  // user 8 stayed
  EXPECT_EQ(fleet.users_on_reader(1), 1u);
  // The pipeline kept one continuous stream: no state was dropped.
  EXPECT_TRUE(fleet.shard_pipeline(fleet.shard_of(7)).tracks(7));
}

// The overlap window is half-open: a cross-reader read at EXACTLY
// last_time + handoff_suppress_s is a migration, not a duplicate
// (suppression uses strict <). Both sides of the boundary in one test
// so the window can't silently widen or shrink.
TEST(ReaderFleet, HandoffAtExactOverlapBoundaryRoutes) {
  FleetConfig fc = fast_fleet(2, 1);
  fc.handoff_suppress_s = 0.5;  // exact in binary, no epsilon games
  ReaderFleet fleet(fc);
  fleet.offer(0, make_read(1.0, 7));
  fleet.pump(1.1);
  ASSERT_TRUE(fleet.covering_reader(7).has_value());
  ASSERT_EQ(*fleet.covering_reader(7), 0u);

  // Strictly inside the window: overlap duplicate, suppressed. (A
  // suppressed read must not refresh the window either — the boundary
  // below is still measured from the t = 1.0 read.)
  fleet.offer(1, make_read(1.25, 7));
  fleet.pump(1.3);
  EXPECT_EQ(fleet.counters().handoff_suppressed, 1u);
  EXPECT_EQ(fleet.counters().handoffs, 0u);
  EXPECT_EQ(*fleet.covering_reader(7), 0u);

  // t == 1.0 + 0.5: the boundary read routes and migrates coverage.
  fleet.offer(1, make_read(1.5, 7));
  fleet.pump(1.6);
  EXPECT_EQ(fleet.counters().handoffs, 1u);
  EXPECT_EQ(fleet.counters().handoff_suppressed, 1u);
  EXPECT_EQ(*fleet.covering_reader(7), 1u);
  EXPECT_TRUE(fleet.shard_pipeline(fleet.shard_of(7)).tracks(7));
}

// ---------------------------------------------------------------------------
// Reader death, bounded rebalance, cascading loss

TEST(ReaderFleet, SilentCoveringReaderWalksTheHealthLadder) {
  FleetConfig fc = fast_fleet(2, 1);
  fc.degraded_after_windows = 2;
  fc.dead_after_windows = 4;
  ReaderFleet fleet(fc);
  fleet.offer(0, make_read(0.5, 1));
  fleet.pump(1.0);
  EXPECT_EQ(fleet.reader_health(0), ReaderHealth::Up);

  fleet.pump(1.25);  // silence 1
  EXPECT_EQ(fleet.reader_health(0), ReaderHealth::Up);
  fleet.pump(1.5);  // silence 2
  EXPECT_EQ(fleet.reader_health(0), ReaderHealth::Degraded);
  fleet.pump(1.75);
  fleet.pump(2.0);  // silence 4: dead
  EXPECT_EQ(fleet.reader_health(0), ReaderHealth::Dead);
  EXPECT_EQ(fleet.counters().readers_died, 1u);
  // Reader 1 never covered anybody: an idle spare stays Up.
  EXPECT_EQ(fleet.reader_health(1), ReaderHealth::Up);

  // Traffic resumes through reader 0: it revives.
  fleet.offer(0, make_read(2.4, 1));
  fleet.pump(2.5);
  EXPECT_EQ(fleet.reader_health(0), ReaderHealth::Up);
  EXPECT_EQ(fleet.counters().readers_revived, 1u);
}

TEST(ReaderFleet, DeadReaderRebalancesUsersInBoundedBatches) {
  FleetConfig fc = fast_fleet(3, 2);
  fc.rebalance_batch = 2;
  ReaderFleet fleet(fc);
  // Users 1-4 on reader 0, user 5 on reader 1, reader 2 is a spare.
  for (std::uint64_t u = 1; u <= 4; ++u) fleet.offer(0, make_read(0.5, u));
  fleet.offer(1, make_read(0.5, 5));
  fleet.pump(1.0);
  ASSERT_EQ(fleet.users_on_reader(0), 4u);

  // Reader 0 goes silent; reader 1 keeps hearing user 5.
  fleet.offer(1, make_read(1.2, 5));
  fleet.pump(1.25);
  fleet.offer(1, make_read(1.45, 5));
  fleet.pump(1.5);  // 2nd silent window: reader 0 dies, batch of 2 moves
  EXPECT_EQ(fleet.reader_health(0), ReaderHealth::Dead);
  EXPECT_EQ(fleet.counters().users_rebalanced, 2u);
  EXPECT_EQ(fleet.pending_rebalances(), 2u);

  fleet.offer(1, make_read(1.7, 5));
  fleet.pump(1.75);  // next batch drains the backlog
  EXPECT_EQ(fleet.counters().users_rebalanced, 4u);
  EXPECT_EQ(fleet.pending_rebalances(), 0u);
  EXPECT_EQ(fleet.counters().rebalances, 2u);
  EXPECT_EQ(fleet.counters().rebalance_deadline_misses, 0u);

  // Every user stays covered by a live reader and keeps its shard state.
  EXPECT_EQ(fleet.users_on_reader(0), 0u);
  EXPECT_EQ(fleet.users_on_reader(1) + fleet.users_on_reader(2), 5u);
  for (std::uint64_t u = 1; u <= 5; ++u) {
    ASSERT_TRUE(fleet.covering_reader(u).has_value()) << "user " << u;
    EXPECT_NE(*fleet.covering_reader(u), 0u) << "user " << u;
    EXPECT_TRUE(fleet.shard_pipeline(fleet.shard_of(u)).tracks(u));
  }
}

TEST(ReaderFleet, CascadingReaderLossKeepsUserCovered) {
  ReaderFleet fleet(fast_fleet(3, 1));
  fleet.offer(0, make_read(0.5, 1));
  fleet.pump(1.0);

  fleet.pump(1.25);
  fleet.pump(1.5);  // reader 0 dead -> user 1 rebalanced (to reader 1)
  ASSERT_EQ(fleet.reader_health(0), ReaderHealth::Dead);
  ASSERT_EQ(fleet.counters().users_rebalanced, 1u);
  const std::size_t first_target = *fleet.covering_reader(1);
  ASSERT_NE(first_target, 0u);

  // The rescue reader dies too before hearing a single read.
  fleet.pump(1.75);
  fleet.pump(2.0);
  EXPECT_EQ(fleet.reader_health(first_target), ReaderHealth::Dead);
  EXPECT_EQ(fleet.counters().users_rebalanced, 2u);
  ASSERT_TRUE(fleet.covering_reader(1).has_value());
  const std::size_t second_target = *fleet.covering_reader(1);
  EXPECT_NE(second_target, 0u);
  EXPECT_NE(second_target, first_target);
  EXPECT_TRUE(fleet.shard_pipeline(fleet.shard_of(1)).tracks(1));
}

TEST(ReaderFleet, LinkProbeAcceleratesDeathAndRevivesInstantly) {
  ReaderFleet fleet(fast_fleet(2, 1));
  // Link down: the ladder runs even though reader 1 covers nobody.
  fleet.probe_reader(1, false, 0.0);
  fleet.pump(0.25);
  fleet.pump(0.5);
  EXPECT_EQ(fleet.reader_health(1), ReaderHealth::Dead);
  // Supervisor reports the link back: immediate revive, no traffic yet.
  fleet.probe_reader(1, true, 0.75);
  EXPECT_EQ(fleet.reader_health(1), ReaderHealth::Up);
  EXPECT_EQ(fleet.counters().readers_revived, 1u);
}

// ---------------------------------------------------------------------------
// Eviction parking, journal tail replay

TEST(ReaderFleet, ValidatorEvictionParksAndRestoresTheUser) {
  FleetConfig fc = fast_fleet(1, 1);
  fc.ingest.max_users = 1;  // per-reader admission cap forces LRU churn
  ReaderFleet fleet(fc);

  for (int i = 0; i < 4; ++i) fleet.offer(0, make_read(0.2 + 0.2 * i, 1));
  fleet.pump(1.0);
  ASSERT_TRUE(fleet.shard_pipeline(0).tracks(1));

  // User 2 arrives at the cap: user 1 is evicted and parked.
  fleet.offer(0, make_read(1.1, 2));
  fleet.pump(1.25);
  EXPECT_EQ(fleet.counters().users_parked, 1u);
  EXPECT_FALSE(fleet.shard_pipeline(0).tracks(1));
  EXPECT_FALSE(fleet.covering_reader(1).has_value());

  // User 1 re-admitted: its parked window is re-imported, not rebuilt.
  fleet.offer(0, make_read(1.6, 1));
  fleet.pump(1.75);
  EXPECT_EQ(fleet.counters().users_restored, 1u);
  EXPECT_TRUE(fleet.shard_pipeline(0).tracks(1));
  ASSERT_TRUE(fleet.covering_reader(1).has_value());
}

TEST(ReaderFleet, ParkRestoreChurnConvergesWithUninterruptedGoldenRun) {
  // A breathing-phase schedule for user 1 with a mid-run burst from
  // user 2. Under a 1-user admission cap the burst parks user 1's demux
  // window in the arena-backed lot and the next user-1 read restores
  // it; a golden fleet with no cap never parks anyone. Because parking
  // preserves the full buffered window, the restored run must converge:
  // the same RateUpdate values on the shared tick grid and the same
  // final analysis, byte for byte.
  auto breath_read = [](double t, std::uint64_t user) {
    core::TagRead r;
    r.time_s = t;
    r.epc = rfid::Epc96::from_user_tag(user, 1);
    r.antenna_id = 1;
    r.frequency_hz = 920.625e6;
    r.phase_rad = 0.5 * std::sin(2.0 * 3.14159265358979 * t / 4.0);
    return r;
  };

  struct RunResult {
    std::vector<std::pair<double, double>> tail_rates;  // (tick, bpm), t>=14
    double final_rate = 0.0;
    std::size_t parked = 0;
    std::size_t restored = 0;
  };
  auto run = [&](std::size_t admission_cap) {
    FleetConfig fc = fast_fleet(1, 1);
    fc.ingest.max_users = admission_cap;
    RunResult result;
    ReaderFleet fleet(fc, [&](const FleetEvent& e) {
      if (e.event.user_id == 1 &&
          e.event.kind == core::PipelineEventKind::RateUpdate &&
          e.event.time_s >= 14.0) {
        result.tail_rates.emplace_back(e.event.time_s, e.event.rate_bpm);
      }
    });
    for (double t = 0.0; t <= 24.0; t += 0.25) {
      const bool burst = t >= 10.0 && t < 11.5;
      fleet.offer(0, breath_read(t, burst ? 2 : 1));
      fleet.pump(t);
    }
    const core::RateSummary* final_summary =
        fleet.shard_pipeline(0).rate_summary(1);
    EXPECT_NE(final_summary, nullptr);
    if (final_summary != nullptr) {
      result.final_rate = final_summary->rate_bpm;
    }
    result.parked = fleet.counters().users_parked;
    result.restored = fleet.counters().users_restored;
    return result;
  };

  const RunResult golden = run(/*admission_cap=*/0);
  const RunResult pressure = run(/*admission_cap=*/1);

  EXPECT_EQ(golden.parked, 0u);
  EXPECT_GE(pressure.parked, 2u);    // user 1 at the burst, user 2 after it
  EXPECT_GE(pressure.restored, 1u);  // user 1's window came back from the lot

  ASSERT_FALSE(golden.tail_rates.empty());
  ASSERT_EQ(pressure.tail_rates.size(), golden.tail_rates.size());
  for (std::size_t i = 0; i < golden.tail_rates.size(); ++i) {
    EXPECT_DOUBLE_EQ(pressure.tail_rates[i].first, golden.tail_rates[i].first);
    EXPECT_DOUBLE_EQ(pressure.tail_rates[i].second,
                     golden.tail_rates[i].second)
        << "restored window diverged from golden at t="
        << golden.tail_rates[i].first;
  }
  EXPECT_DOUBLE_EQ(pressure.final_rate, golden.final_rate);
}

TEST(ReaderFleet, RebalanceReplaysJournalTailWhenShardStateWasLost) {
  TempDir dir("fleet_replay");
  FleetConfig fc = fast_fleet(2, 1);
  fc.durability_directory = dir.str();
  fc.pipeline.max_users = 1;  // per-shard cap silently drops the LRU user
  fc.parked_users_cap = 0;    // no parking: force the journal path
  ReaderFleet fleet(fc);

  for (int i = 0; i < 4; ++i) fleet.offer(0, make_read(0.2 + 0.2 * i, 1));
  fleet.pump(1.0);
  ASSERT_TRUE(fleet.shard_pipeline(0).tracks(1));
  // User 2 lands on the same shard: the pipeline cap evicts user 1's
  // state but the fleet still lists reader 0 as covering it.
  fleet.offer(1, make_read(1.2, 2));
  fleet.pump(1.25);
  ASSERT_FALSE(fleet.shard_pipeline(0).tracks(1));
  ASSERT_TRUE(fleet.covering_reader(1).has_value());

  // Reader 0 dies; the rebalance must resurrect user 1 from the shard
  // journal tail because no parked state exists.
  fleet.offer(1, make_read(1.45, 2));
  fleet.pump(1.5);
  fleet.offer(1, make_read(1.7, 2));
  fleet.pump(1.75);
  EXPECT_EQ(fleet.reader_health(0), ReaderHealth::Dead);
  EXPECT_EQ(fleet.counters().users_rebalanced, 1u);
  EXPECT_EQ(fleet.counters().journal_tail_replays, 1u);
  EXPECT_GT(fleet.counters().journal_reads_replayed, 0u);
  EXPECT_TRUE(fleet.shard_pipeline(0).tracks(1));
  EXPECT_EQ(*fleet.covering_reader(1), 1u);
}

TEST(StreamDemux, ExportImportRoundTripsOneUser) {
  core::StreamDemux source;
  source.add(make_read(1.0, 7, /*tag=*/1, /*antenna=*/1));
  source.add(make_read(1.5, 7, /*tag=*/1, /*antenna=*/2));
  source.add(make_read(2.0, 7, /*tag=*/2, /*antenna=*/1));
  source.add(make_read(1.0, 8));  // different user: must not travel

  const core::DemuxState state = source.export_user(7);
  ASSERT_EQ(state.streams.size(), 3u);
  for (const auto& stream : state.streams)
    EXPECT_EQ(stream.key.user_id, 7u);

  core::StreamDemux target;
  target.add(make_read(2.5, 7, /*tag=*/1, /*antenna=*/1));  // fresh head
  EXPECT_EQ(target.import_user(state), 3u);
  const auto streams = target.streams_for_user(7);
  ASSERT_EQ(streams.size(), 3u);
  // The replayed tail merged under the fresh read, time-ordered.
  std::size_t total = 0;
  for (const auto* s : streams) {
    total += s->size();
    for (std::size_t i = 1; i < s->size(); ++i)
      EXPECT_LE((*s)[i - 1].time_s, (*s)[i].time_s);
  }
  EXPECT_EQ(total, 4u);
  EXPECT_TRUE(target.streams_for_user(8).empty());
}

// ---------------------------------------------------------------------------
// Alarm-only degradation

TEST(ReaderFleet, AlarmOnlyModeSuppressesRoutineRateUpdates) {
  core::SoakConfig pop;
  pop.n_users = 3;
  pop.tags_per_user = 1;
  pop.duration_s = 10.0;
  pop.read_rate_hz = 4.0;

  FleetConfig fc = fast_fleet(1, 1);
  fc.alarm_only_above_users = 1;  // census of 3 exceeds it immediately
  fc.pipeline.window_s = 8.0;
  fc.pipeline.update_period_s = 1.0;
  fc.pipeline.warmup_s = 2.0;

  std::size_t rate_updates = 0;
  ReaderFleet fleet(fc, [&](const FleetEvent& fe) {
    if (fe.event.kind == core::PipelineEventKind::RateUpdate) ++rate_updates;
  });
  double next_pump = 0.25;
  for (const core::TagRead& read : core::make_soak_population(pop)) {
    while (read.time_s >= next_pump) {
      fleet.pump(next_pump);
      next_pump += 0.25;
    }
    fleet.offer(0, read);
  }
  fleet.pump(pop.duration_s);

  EXPECT_EQ(rate_updates, 0u);
  EXPECT_GT(fleet.counters().rate_updates_suppressed, 0u);
}

// ---------------------------------------------------------------------------
// Observability binding

TEST(ReaderFleet, BindsLabelledInstrumentsAndScrapesByteStably) {
  obs::Observability hub;
  FleetSoakConfig cfg;
  cfg.n_readers = 4;
  cfg.n_users = 6;
  cfg.duration_s = 8.0;
  cfg.read_rate_hz = 4.0;
  cfg.fleet.n_shards = 2;
  cfg.fleet.ingest.max_users = 0;
  cfg.fleet.pipeline.window_s = 6.0;
  cfg.fleet.pipeline.warmup_s = 2.0;
  cfg.observability = &hub;
  const FleetSoakReport report = run_fleet_soak(cfg);
  testutil::expect_no_violations(report.violations);

  const std::string scrape = obs::to_prometheus(hub.snapshot());
  EXPECT_NE(scrape.find("fleet_reader_health{reader=\"r000\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("fleet_reader_health{reader=\"r003\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("fleet_shard_users{shard=\"s01\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("fleet_admitted_total"), std::string::npos);
  // Two exports of the same snapshot are byte-identical.
  const auto snapshot = hub.snapshot();
  EXPECT_EQ(obs::to_prometheus(snapshot), obs::to_prometheus(snapshot));
}

// ---------------------------------------------------------------------------
// Fleet soak: determinism gates

FleetSoakConfig determinism_soak() {
  FleetSoakConfig cfg;
  cfg.n_readers = 4;
  cfg.n_users = 8;
  cfg.tags_per_user = 1;
  cfg.duration_s = 30.0;
  cfg.read_rate_hz = 2.0;
  cfg.fleet.n_shards = 2;
  cfg.fleet.ingest.max_users = 0;    // caps off: see determinism contract
  cfg.fleet.pipeline.max_users = 0;
  cfg.fleet.pipeline.window_s = 12.0;
  cfg.fleet.pipeline.update_period_s = 1.0;
  cfg.fleet.pipeline.warmup_s = 4.0;
  cfg.roaming_users = 2;
  cfg.roam_period_s = 8.0;
  cfg.reader_chaos.push_back(
      core::ReaderChaosConfig::blackout(1, 10.0, 5.0, 11));
  cfg.reader_chaos.push_back(core::ReaderChaosConfig::flap(2, 4.0, 6.0, 2.0,
                                                           2, 13));
  return cfg;
}

TEST(FleetSoakDeterminism, SameConfigTwiceProducesIdenticalMergedLog) {
  const FleetSoakConfig cfg = determinism_soak();
  const FleetSoakReport a = run_fleet_soak(cfg);
  const FleetSoakReport b = run_fleet_soak(cfg);
  testutil::expect_no_violations(a.violations);
  ASSERT_FALSE(a.event_log.empty());
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.event_log_hash, b.event_log_hash);
  EXPECT_GT(a.counters.handoffs, 0u);           // blackout forced failover
  EXPECT_GT(a.counters.handoff_suppressed, 0u); // roam overlap duplicates
  EXPECT_GT(a.counters.readers_died, 0u);
  EXPECT_GT(a.counters.readers_revived, 0u);
}

TEST(FleetSoakDeterminism, MergedLogIsInvariantAcrossShardCounts) {
  FleetSoakConfig one = determinism_soak();
  one.record_event_log = false;
  one.fleet.n_shards = 1;
  FleetSoakConfig four = determinism_soak();
  four.record_event_log = false;
  four.fleet.n_shards = 4;
  const FleetSoakReport a = run_fleet_soak(one);
  const FleetSoakReport b = run_fleet_soak(four);
  testutil::expect_no_violations(a.violations);
  testutil::expect_no_violations(b.violations);
  ASSERT_GT(a.events, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.event_log_hash, b.event_log_hash);
}

TEST(FleetSoakDeterminism, MergedLogIsInvariantAcrossShardThreads) {
  FleetSoakConfig serial = determinism_soak();
  serial.record_event_log = false;
  serial.fleet.n_shards = 4;
  serial.fleet.shard_threads = 0;
  FleetSoakConfig threaded = determinism_soak();
  threaded.record_event_log = false;
  threaded.fleet.n_shards = 4;
  threaded.fleet.shard_threads = 3;
  const FleetSoakReport a = run_fleet_soak(serial);
  const FleetSoakReport b = run_fleet_soak(threaded);
  testutil::expect_no_violations(a.violations);
  testutil::expect_no_violations(b.violations);
  ASSERT_GT(a.events, 0u);
  EXPECT_EQ(a.event_log_hash, b.event_log_hash);
}

// ---------------------------------------------------------------------------
// Acceptance soak: >= 16 readers, >= 10k users, kills + revives mid-run

TEST(FleetSoakAcceptance, WardScaleFleetSurvivesKillsAndRevives) {
  FleetSoakConfig cfg;
  cfg.n_readers = 16;
  cfg.n_users = 10000;
  cfg.tags_per_user = 1;
  cfg.duration_s = 20.0;
  cfg.read_rate_hz = 1.0;
  cfg.fleet.n_shards = 8;
  cfg.fleet.shard_threads = 4;
  cfg.fleet.ingest.max_users = 0;  // 625 users/reader >> default cap
  cfg.fleet.pipeline.max_users = 0;
  cfg.fleet.pipeline.window_s = 12.0;
  cfg.fleet.pipeline.update_period_s = 4.0;
  cfg.fleet.pipeline.warmup_s = 4.0;
  cfg.fleet.parked_users_cap = 16384;
  cfg.roaming_users = 200;
  cfg.roam_period_s = 6.0;
  cfg.record_event_log = false;  // hash-only at this census
  // Kill reader 3 for 6 s mid-run (dies at +3 s, revives on probe), and
  // flap reader 5 twice.
  cfg.reader_chaos.push_back(
      core::ReaderChaosConfig::blackout(3, 6.0, 6.0, 3));
  cfg.reader_chaos.push_back(core::ReaderChaosConfig::flap(5, 2.0, 4.0, 3.0,
                                                           2, 5));

  const FleetSoakReport report = run_fleet_soak(cfg);
  testutil::expect_no_violations(report.violations);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.events, 0u);
  EXPECT_GT(report.counters.readers_died, 0u);
  EXPECT_GT(report.counters.readers_revived, 0u);
  EXPECT_GT(report.counters.handoffs, 0u);
  EXPECT_GT(report.counters.handoff_suppressed, 0u);
  EXPECT_EQ(report.counters.rebalance_deadline_misses, 0u);
  // Conservation: every drained read was admitted or quarantined, and
  // every admitted read was routed or suppressed as an overlap dup.
  EXPECT_EQ(report.counters.admitted,
            report.counters.routed + report.counters.handoff_suppressed);
}

}  // namespace
