// Capacity engineering (ISSUE 10): the FlatMap open-addressing registry
// and SlabArena slab allocator that replaced the std::map user tables,
// plus the determinism gates that prove the swap is invisible at the
// byte level — randomized property tests against a std::map reference,
// generation-handle use-after-free detection, ASan poisoning of freed
// slots, ordered-iteration equivalence under shuffled insertion, the
// explicit eviction tie-break, a TSan-raced flat plan-cache lookup, and
// chaos-soak event-log hashes pinned to their pre-swap golden values.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/fnv.hpp"
#include "common/slab_arena.hpp"
#include "core/chaos.hpp"
#include "core/demux.hpp"
#include "core/pipeline.hpp"
#include "fleet/fleet_soak.hpp"
#include "signal/fft.hpp"

#if defined(TAGBREATHE_ASAN)
#include <sanitizer/asan_interface.h>
#endif

using namespace tagbreathe;

namespace {

core::TagRead make_read(std::uint64_t user, std::uint32_t tag,
                        std::uint8_t antenna, double t,
                        std::uint16_t channel = 0, double phase = 0.0) {
  core::TagRead r;
  r.epc = rfid::Epc96::from_user_tag(user, tag);
  r.antenna_id = antenna;
  r.time_s = t;
  r.channel_index = channel;
  r.frequency_hz = 922.25e6;
  r.phase_rad = phase;
  r.rssi_dbm = -55.0;
  return r;
}

// FNV-1a over formatted event lines, the same fold fleet_soak uses for
// FleetSoakReport::event_log_hash.
std::uint64_t fnv1a_lines(const std::vector<std::string>& lines) {
  std::uint64_t hash = common::kFnvOffset;
  for (const std::string& line : lines) hash = common::fnv1a_line(hash, line);
  return hash;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlatMap property tests vs a std::map reference.
// ---------------------------------------------------------------------------

TEST(FlatMapProperty, RandomizedOpsMatchStdMapReference) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    std::mt19937_64 rng(seed);
    common::FlatUserMap<std::uint64_t> flat;
    std::map<std::uint64_t, std::uint64_t> reference;
    std::uniform_int_distribution<std::uint64_t> key_dist(0, 1023);

    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t key = key_dist(rng);
      switch (rng() % 4) {
        case 0:
        case 1: {  // insert / assign
          const std::uint64_t value = rng();
          flat[key] = value;
          reference[key] = value;
          break;
        }
        case 2: {  // erase
          EXPECT_EQ(flat.erase(key), reference.erase(key) > 0);
          break;
        }
        case 3: {  // lookup
          const std::uint64_t* hit = flat.find(key);
          const auto it = reference.find(key);
          ASSERT_EQ(hit != nullptr, it != reference.end())
              << "seed " << seed << " op " << op << " key " << key;
          if (hit != nullptr) {
            EXPECT_EQ(*hit, it->second);
          }
          EXPECT_EQ(flat.contains(key), hit != nullptr);
          break;
        }
      }
      if (op % 1000 == 999) {
        ASSERT_EQ(flat.size(), reference.size());
        std::vector<std::uint64_t> expected;
        expected.reserve(reference.size());
        for (const auto& [k, v] : reference) expected.push_back(k);
        EXPECT_EQ(flat.sorted_keys(), expected);
      }
    }

    // Final full-content check through the ordered view.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
    flat.for_each_ordered([&](const std::uint64_t& k, const std::uint64_t& v) {
      got.emplace_back(k, v);
    });
    std::vector<std::pair<std::uint64_t, std::uint64_t>> expected(
        reference.begin(), reference.end());
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

TEST(FlatMapProperty, ShuffledInsertionCannotChangeOrderedView) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 500; ++k) keys.push_back(k * 977 % 4096);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<std::uint64_t> first_order;
  std::mt19937_64 rng(99);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::uint64_t> shuffled = keys;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    common::FlatUserMap<std::uint64_t> flat;
    for (const std::uint64_t k : shuffled) flat[k] = k * 3;

    std::vector<std::uint64_t> order;
    flat.for_each_ordered([&](const std::uint64_t& k, const std::uint64_t& v) {
      EXPECT_EQ(v, k * 3);
      order.push_back(k);
    });
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    if (round == 0) {
      first_order = order;
    } else {
      EXPECT_EQ(order, first_order) << "round " << round;
    }
  }
}

TEST(FlatMapProperty, ChurnReusesSlotsWithoutFurtherRehash) {
  common::FlatUserMap<std::uint64_t> flat;
  for (std::uint64_t k = 0; k < 1000; ++k) flat[k] = k;
  const std::size_t cap = flat.capacity();
  const std::size_t rehashes = flat.rehashes();

  // Steady-state churn: backward-shift deletion leaves no tombstones, so
  // a bounded live set can never force another rehash.
  std::mt19937_64 rng(5);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t victim = rng() % 1000;
    flat.erase(victim);
    flat[victim] = victim;
  }
  EXPECT_EQ(flat.size(), 1000u);
  EXPECT_EQ(flat.capacity(), cap);
  EXPECT_EQ(flat.rehashes(), rehashes);
}

TEST(FlatMap, EraseIfRemovesExactlyThePredicatedKeys) {
  common::FlatUserMap<int> flat;
  for (std::uint64_t k = 0; k < 2000; ++k) flat[k] = static_cast<int>(k % 7);
  const std::size_t removed = flat.erase_if(
      [](const std::uint64_t&, const int& v) { return v == 3; });
  std::size_t expected_removed = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    if (k % 7 == 3) ++expected_removed;
  }
  EXPECT_EQ(removed, expected_removed);
  EXPECT_EQ(flat.size(), 2000 - expected_removed);
  flat.for_each([](const std::uint64_t&, const int& v) { EXPECT_NE(v, 3); });
}

TEST(FlatMap, StructKeysWithCustomHash) {
  common::FlatMap<core::StreamKey, int, core::StreamKeyHash> flat;
  for (std::uint64_t user = 1; user <= 40; ++user) {
    for (std::uint32_t tag = 0; tag < 3; ++tag) {
      flat[core::StreamKey{user, tag, static_cast<std::uint8_t>(tag % 2)}] =
          static_cast<int>(user * 10 + tag);
    }
  }
  EXPECT_EQ(flat.size(), 120u);
  const int* hit = flat.find(core::StreamKey{7, 2, 0});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 72);

  // The ordered view walks StreamKey::operator< order (user, tag, antenna).
  std::vector<core::StreamKey> order;
  flat.for_each_ordered(
      [&](const core::StreamKey& k, const int&) { order.push_back(k); });
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.size(), 120u);

  EXPECT_TRUE(flat.erase(core::StreamKey{7, 2, 0}));
  EXPECT_FALSE(flat.contains(core::StreamKey{7, 2, 0}));
  EXPECT_EQ(flat.size(), 119u);
}

TEST(FlatMap, ProbeAndFootprintAccountingAreSane) {
  common::FlatUserMap<std::uint64_t> flat;
  EXPECT_EQ(flat.max_probe_length(), 0u);
  for (std::uint64_t k = 0; k < 5000; ++k) flat[k] = k;
  // Robin-hood at <= 13/16 load keeps probe chains short; a triple-digit
  // max probe would mean the displacement logic is broken.
  EXPECT_GE(flat.max_probe_length(), 1u);
  EXPECT_LT(flat.max_probe_length(), 64u);
  EXPECT_GE(flat.capacity(), flat.size());
  EXPECT_GT(flat.table_bytes(), flat.capacity() * sizeof(std::uint64_t));
}

// ---------------------------------------------------------------------------
// SlabArena: stable addresses, generation-tagged handles, slot reuse.
// ---------------------------------------------------------------------------

TEST(SlabArena, AddressesStayStableAcrossGrowth) {
  common::SlabArena<std::string> arena;
  std::vector<common::SlabHandle> handles;
  std::vector<const std::string*> addresses;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(arena.emplace("value-" + std::to_string(i)));
    addresses.push_back(arena.get(handles.back()));
  }
  // Growing by whole slabs must never move existing slots.
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(arena.emplace("late-" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(arena.get(handles[i]), addresses[i]) << "slot " << i << " moved";
    EXPECT_EQ(*arena.get(handles[i]), "value-" + std::to_string(i));
  }
  EXPECT_EQ(arena.live(), 2000u);
}

TEST(SlabArena, StaleHandlesAreDetectedNotDereferenced) {
  common::SlabArena<int> arena;
  const common::SlabHandle h = arena.emplace(41);
  ASSERT_NE(arena.get(h), nullptr);
  EXPECT_TRUE(arena.release(h));

  // The released handle is dead: get() refuses, at() throws, and a second
  // release is a no-op instead of a double free.
  EXPECT_EQ(arena.get(h), nullptr);
  EXPECT_THROW(arena.at(h), std::logic_error);
  EXPECT_FALSE(arena.release(h));

  // Reusing the slot bumps the generation, so the new handle works while
  // the old one stays dead even though both name the same slot.
  const common::SlabHandle h2 = arena.emplace(99);
  EXPECT_EQ(h2.index, h.index);
  EXPECT_NE(h2.generation, h.generation);
  ASSERT_NE(arena.get(h2), nullptr);
  EXPECT_EQ(*arena.get(h2), 99);
  EXPECT_EQ(arena.get(h), nullptr);
}

TEST(SlabArena, FreeListServesChurnWithoutNewSlots) {
  common::SlabArena<std::uint64_t> arena;
  std::vector<common::SlabHandle> handles;
  for (std::uint64_t i = 0; i < 300; ++i) handles.push_back(arena.emplace(i));
  const std::size_t slots_after_fill = arena.slots();
  const std::size_t slabs_after_fill = arena.slab_count();
  EXPECT_EQ(slabs_after_fill, 2u);  // 300 slots across 256-slot slabs

  for (const common::SlabHandle& h : handles) EXPECT_TRUE(arena.release(h));
  EXPECT_EQ(arena.live(), 0u);

  handles.clear();
  for (std::uint64_t i = 0; i < 300; ++i) handles.push_back(arena.emplace(i));
  EXPECT_EQ(arena.slots(), slots_after_fill);
  EXPECT_EQ(arena.slab_count(), slabs_after_fill);
  EXPECT_EQ(arena.reuses(), 300u);
  EXPECT_EQ(arena.live(), 300u);
  EXPECT_GT(arena.occupancy(), 0.5);
}

TEST(SlabArena, ClearKeepsSlabsMappedAndReusesAscending) {
  common::SlabArena<int> arena;
  for (int i = 0; i < 600; ++i) arena.emplace(i);
  const std::size_t slabs = arena.slab_count();
  arena.clear();
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.slab_count(), slabs);

  // clear() rebuilds the free list so reuse walks slots in ascending
  // order — the first slab refills before the second is touched.
  const common::SlabHandle first = arena.emplace(1);
  const common::SlabHandle second = arena.emplace(2);
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(second.index, 1u);
}

TEST(SlabArena, FreedSlotsArePoisonedUnderAsan) {
  if (!common::SlabArena<int>::poisons_freed_slots()) {
    GTEST_SKIP() << "not an ASan build; slot poisoning is compiled out";
  }
#if defined(TAGBREATHE_ASAN)
  // A 4-byte payload is smaller than ASan's 8-byte shadow granule, and
  // slot 1 would start mid-granule at a packed stride.
  common::SlabArena<int> arena;
  const common::SlabHandle h0 = arena.emplace(7);
  const common::SlabHandle h1 = arena.emplace(9);
  ASSERT_EQ(h1.index, 1u);
  for (const common::SlabHandle h : {h0, h1}) {
    const void* slot = arena.slot_address_for_testing(h.index);
    EXPECT_FALSE(__asan_address_is_poisoned(slot)) << "slot " << h.index;
    EXPECT_TRUE(arena.release(h));
    EXPECT_TRUE(__asan_address_is_poisoned(slot)) << "slot " << h.index;
  }
  // The neighbour's release left slot 0's poison in place.
  EXPECT_TRUE(__asan_address_is_poisoned(arena.slot_address_for_testing(0)));

  // Reuse unpoisons exactly the reused slot again (free list is LIFO).
  const common::SlabHandle h2 = arena.emplace(8);
  ASSERT_EQ(h2.index, h1.index);
  EXPECT_FALSE(__asan_address_is_poisoned(
      arena.slot_address_for_testing(h2.index)));
  EXPECT_TRUE(__asan_address_is_poisoned(arena.slot_address_for_testing(0)));
#endif
}

// ---------------------------------------------------------------------------
// StreamDemux on the arena: roster semantics and slot recycling.
// ---------------------------------------------------------------------------

TEST(DemuxCapacity, RosterTracksNonEmptyStreamsThroughEvictAndReappear) {
  core::StreamDemux demux;
  demux.add(make_read(1, 0, 0, 1.0));
  demux.add(make_read(2, 0, 0, 2.0));
  EXPECT_EQ(demux.users(), (std::vector<std::uint64_t>{1, 2}));

  // Aging out every read a user holds removes it from the roster even
  // though its registry entry (and arena slots) survive for reuse.
  demux.evict_before(1.5);
  EXPECT_EQ(demux.users(), (std::vector<std::uint64_t>{2}));

  // A fresh read brings the user straight back.
  demux.add(make_read(1, 0, 0, 3.0));
  EXPECT_EQ(demux.users(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(DemuxCapacity, DropUserRecyclesArenaSlots) {
  core::StreamDemux demux;
  for (std::uint64_t user = 1; user <= 50; ++user) {
    demux.add(make_read(user, 0, 0, 1.0));
    demux.add(make_read(user, 1, 1, 1.0));
  }
  const std::size_t footprint_full = demux.footprint_bytes();
  EXPECT_GT(footprint_full, 0u);
  EXPECT_GT(demux.arena_occupancy(), 0.0);

  for (std::uint64_t user = 1; user <= 25; ++user) {
    EXPECT_EQ(demux.drop_user(user), 2u);
  }
  EXPECT_EQ(demux.users().size(), 25u);

  // New users take the freed slots instead of growing the arena.
  const std::size_t reuses_before = demux.arena_reuses();
  for (std::uint64_t user = 100; user < 125; ++user) {
    demux.add(make_read(user, 0, 0, 2.0));
    demux.add(make_read(user, 1, 1, 2.0));
  }
  EXPECT_GT(demux.arena_reuses(), reuses_before);
  // The arena did not grow a new slab for the replacements; footprint
  // stays near the 50-user level (registry metadata may wobble a little,
  // a leak would roughly double it).
  EXPECT_LE(demux.footprint_bytes(), footprint_full + footprint_full / 4);
}

// ---------------------------------------------------------------------------
// Ordering contracts on the pipeline: emission order is a function of
// user ids, never of registry iteration or insertion order.
// ---------------------------------------------------------------------------

namespace {

// Runs a small pipeline over a fixed read schedule, pushing same-time
// reads in the given user permutation, and returns the formatted event
// log. Every permutation must produce byte-identical output.
std::vector<std::string> run_permuted_pipeline(
    const std::vector<std::uint64_t>& user_order, std::size_t max_users = 0) {
  core::PipelineConfig config;
  config.window_s = 12.0;
  config.update_period_s = 4.0;
  config.warmup_s = 4.0;
  config.max_users = max_users;
  std::vector<std::string> log;
  core::RealtimePipeline pipeline(config, [&](const core::PipelineEvent& e) {
    log.push_back(core::format_soak_event(e));
  });
  pipeline.start_at(0.0);
  for (double t = 0.0; t < 40.0; t += 0.25) {
    for (const std::uint64_t user : user_order) {
      const double phase = 0.4 * std::sin(2.0 * 3.14159265358979 * t / 4.0 +
                                          static_cast<double>(user));
      pipeline.push(make_read(user, 0, 0, t, 0, phase));
    }
  }
  pipeline.advance_to(41.0);
  return log;
}

}  // namespace

TEST(PipelineOrdering, ShuffledInsertionOrderCannotChangeEmissionOrder) {
  std::vector<std::uint64_t> users = {3, 9, 1, 7, 5, 2, 8};
  std::sort(users.begin(), users.end());
  const std::vector<std::string> golden = run_permuted_pipeline(users);
  ASSERT_FALSE(golden.empty());

  std::mt19937_64 rng(17);
  for (int round = 0; round < 4; ++round) {
    std::shuffle(users.begin(), users.end(), rng);
    EXPECT_EQ(run_permuted_pipeline(users), golden)
        << "emission order leaked registry insertion order (round " << round
        << ")";
  }
}

TEST(PipelineOrdering, EvictionPicksLeastRecentThenLowestUserId) {
  core::PipelineConfig config;
  config.window_s = 12.0;
  config.update_period_s = 4.0;
  config.warmup_s = 4.0;
  config.max_users = 2;

  // Whatever order users 5 and 9 were admitted in, both saw their last
  // read at the same instant — the tie must break to the LOWEST id.
  for (const std::vector<std::uint64_t>& admit_order :
       {std::vector<std::uint64_t>{5, 9}, std::vector<std::uint64_t>{9, 5}}) {
    core::RealtimePipeline pipeline(config);
    pipeline.start_at(0.0);
    for (const std::uint64_t user : admit_order) {
      pipeline.push(make_read(user, 0, 0, 1.0));
    }
    ASSERT_EQ(pipeline.tracked_users(), 2u);
    pipeline.push(make_read(42, 0, 0, 2.0));
    EXPECT_EQ(pipeline.tracked_users(), 2u);
    EXPECT_EQ(pipeline.users_evicted(), 1u);
    // User 5 (lowest id among the tied pair) is the victim.
    EXPECT_FALSE(pipeline.tracks(5));
    EXPECT_TRUE(pipeline.tracks(9));
    EXPECT_TRUE(pipeline.tracks(42));
  }
}

TEST(PipelineOrdering, ExportStateListsUsersAscendingAfterShuffledPushes) {
  core::PipelineConfig config;
  config.window_s = 12.0;
  config.update_period_s = 4.0;
  config.warmup_s = 4.0;
  core::RealtimePipeline pipeline(config);
  pipeline.start_at(0.0);
  const std::vector<std::uint64_t> users = {14, 3, 77, 21, 8, 55, 1};
  for (const std::uint64_t user : users) {
    pipeline.push(make_read(user, 0, 0, 1.0));
  }
  // Cross one update boundary so last_seen_reads_ has per-user entries.
  pipeline.advance_to(5.0);
  const core::PipelineState state = pipeline.export_state();
  ASSERT_EQ(state.users.size(), users.size());
  for (std::size_t i = 1; i < state.users.size(); ++i) {
    EXPECT_LT(state.users[i - 1].user_id, state.users[i].user_id);
  }
  ASSERT_EQ(state.last_seen_reads.size(), users.size());
  for (std::size_t i = 1; i < state.last_seen_reads.size(); ++i) {
    EXPECT_LT(state.last_seen_reads[i - 1].first,
              state.last_seen_reads[i].first);
  }
}

// ---------------------------------------------------------------------------
// FFT flat plan cache: racing lookups while the table grows (TSan gate).
// ---------------------------------------------------------------------------

TEST(FlatPlanCacheConcurrency, RacingLookupsAreSafeWhileTableGrows) {
  signal::FftPlan::clear_cache();
  signal::RealFftPlan::clear_cache();

  // Enough distinct sizes that the flat table rehashes mid-race; the
  // per-cache mutex has to make both the probe and the growth atomic.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 16; n <= 96; ++n) sizes.push_back(n);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      signal::FftScratch scratch;
      for (int round = 0; round < 4; ++round) {
        for (std::size_t i = 0; i < sizes.size(); ++i) {
          const std::size_t n = sizes[(i + static_cast<std::size_t>(t) * 11) %
                                      sizes.size()];
          const auto dir = (round + static_cast<int>(i)) % 2 == 0
                               ? signal::FftDirection::Forward
                               : signal::FftDirection::Inverse;
          const auto plan = signal::FftPlan::get(n, dir);
          if (plan == nullptr || plan->size() != n) {
            failures.fetch_add(1);
            continue;
          }
          std::vector<signal::cdouble> data(n, signal::cdouble{1.0, 0.0});
          plan->execute(data, scratch);
          // DC bin of an all-ones forward transform is N.
          if (dir == signal::FftDirection::Forward &&
              std::abs(data[0].real() - static_cast<double>(n)) > 1e-6) {
            failures.fetch_add(1);
          }
          const auto real_plan = signal::RealFftPlan::get(n);
          if (real_plan == nullptr || real_plan->size() != n) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(signal::FftPlan::cache_size(), 0u);
  EXPECT_LE(signal::FftPlan::cache_size(), 128u);
}

// ---------------------------------------------------------------------------
// Byte-identity gates: the container swap must be invisible in the
// event stream. Hashes below were captured on the pre-swap std::map
// build with the exact same configs; a mismatch means the flat
// registries or the arena changed observable ordering.
// ---------------------------------------------------------------------------

TEST(ByteIdentity, FleetChaosSoakEventHashMatchesPreSwapGolden) {
  fleet::FleetSoakConfig cfg;
  cfg.n_readers = 16;
  cfg.n_users = 10000;
  cfg.tags_per_user = 1;
  cfg.duration_s = 20.0;
  cfg.read_rate_hz = 1.0;
  cfg.fleet.n_shards = 8;
  cfg.fleet.shard_threads = 4;
  cfg.fleet.ingest.max_users = 0;
  cfg.fleet.pipeline.max_users = 0;
  cfg.fleet.pipeline.window_s = 12.0;
  cfg.fleet.pipeline.update_period_s = 4.0;
  cfg.fleet.pipeline.warmup_s = 4.0;
  cfg.fleet.parked_users_cap = 16384;
  cfg.roaming_users = 200;
  cfg.roam_period_s = 6.0;
  cfg.record_event_log = false;
  cfg.reader_chaos.push_back(core::ReaderChaosConfig::blackout(3, 6.0, 6.0, 3));
  cfg.reader_chaos.push_back(
      core::ReaderChaosConfig::flap(5, 2.0, 4.0, 3.0, 2, 5));

  // Re-pinned once, from 0xc1fe874d3796520b, when odd-length real
  // transforms moved to the pruned Bluestein (signal::RealFftPlan). The
  // container swap this test guards is still invisible; what moved is
  // the filter's rounding. The soak's sparse 1 Hz tracks leave a band
  // signal at the rounding floor, and the zero-crossing hysteresis
  // scales with that signal's own peak, so the crossings and the rates
  // of 933 of the 20000 events at t = 16 s and t = 20 s follow the
  // rounding. The core soak below did not move.
  const fleet::FleetSoakReport report = fleet::run_fleet_soak(cfg);
  EXPECT_TRUE(report.ok()) << "violations: " << report.violations.size();
  EXPECT_EQ(report.events, 50000u);
  EXPECT_EQ(report.event_log_hash, 0xd0e878228ca34400ull)
      << "10k-user fleet soak event log diverged from the pinned run";
}

TEST(ByteIdentity, CoreChaosSoakEventHashMatchesPreSwapGolden) {
  core::SoakConfig cfg;
  cfg.n_users = 8;
  cfg.tags_per_user = 2;
  cfg.duration_s = 120.0;
  cfg.read_rate_hz = 8.0;
  cfg.chaos = core::ChaosConfig::composite(0xC0FFEE);
  cfg.ingest.max_users = 0;
  for (std::uint64_t user = 1; user <= 8; ++user) {
    cfg.ingest.monitored_users.push_back(user);
  }

  const core::SoakReport report = core::run_soak(cfg);
  EXPECT_TRUE(report.violations.empty())
      << "violations: " << report.violations.size();
  EXPECT_EQ(report.events, 848u);
  EXPECT_EQ(fnv1a_lines(report.event_log), 0xcbfd80f95ec71b76ull)
      << "composite-chaos soak event log diverged from the pre-swap "
         "std::map golden run";
}

// The same soak with dirty-window coasting on: users whose streams saw
// no new read since their last analysis coast on what that analysis
// left behind, so this log pins the coasting path too.
TEST(ByteIdentity, CoreChaosSoakWithCoastingHashPinned) {
  core::SoakConfig cfg;
  cfg.n_users = 8;
  cfg.tags_per_user = 2;
  cfg.duration_s = 120.0;
  cfg.read_rate_hz = 8.0;
  cfg.chaos = core::ChaosConfig::composite(0xC0FFEE);
  cfg.ingest.max_users = 0;
  for (std::uint64_t user = 1; user <= 8; ++user) {
    cfg.ingest.monitored_users.push_back(user);
  }
  cfg.pipeline.skip_clean_users = true;

  const core::SoakReport report = core::run_soak(cfg);
  EXPECT_TRUE(report.violations.empty())
      << "violations: " << report.violations.size();
  EXPECT_EQ(report.events, 848u);
  EXPECT_EQ(fnv1a_lines(report.event_log), 0xe2b00ee9e8dd50b6ull)
      << "coasting composite-chaos soak event log diverged from the "
         "pinned run";
}
