// Unit tests of the benchmark's own measurement code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "generator.hpp"
#include "llrp/message.hpp"
#include "llrp/params.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

// --- percentile rule -------------------------------------------------------

TEST(TailQuantile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(100000), 0.99);  // capped at p99
  EXPECT_DOUBLE_EQ(tail_quantile(500), 0.98);
  EXPECT_DOUBLE_EQ(tail_quantile(100), 0.90);
  EXPECT_DOUBLE_EQ(tail_quantile(20), 0.5);
  EXPECT_DOUBLE_EQ(tail_quantile(19), 0.5);  // unresolvable: median
  EXPECT_DOUBLE_EQ(tail_quantile(0), 0.5);
}

TEST(TailQuantile, LeavesAtLeastTenSamplesAboveTheValue) {
  for (std::size_t n : {20u, 37u, 100u, 250u, 999u, 1000u, 5000u}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>((i * 7919) % n);
    const Percentile p = tail_of(v, 0.99);
    const auto beyond = std::count_if(v.begin(), v.end(),
                                      [&](double x) { return x > p.value; });
    EXPECT_GE(beyond, 10) << "n=" << n;
    EXPECT_EQ(p.n, n);
  }
}

TEST(WindowedTail, OneBurstMovesOneWindowOnly) {
  // Four windows of 100 samples; window 2 holds a burst.
  std::vector<double> v;
  std::vector<std::size_t> w;
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < 100; ++i) {
      v.push_back(k == 2 ? 1000.0 : static_cast<double>(i));
      w.push_back(k);
    }
  }
  const Percentile p = windowed_tail(v, w);
  EXPECT_DOUBLE_EQ(p.q, 0.9);  // 100 samples per window: p90 leaves 10
  EXPECT_EQ(p.n, 400u);
  EXPECT_NEAR(p.value, 89.1, 1e-9);
  std::vector<double> pooled = v;
  EXPECT_DOUBLE_EQ(tail_of(pooled).value, 1000.0);  // pooled: the burst
}

TEST(Quantile, InterpolatesAndHandlesEmpty) {
  std::vector<double> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0.0);
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
}

// --- due-time latency accounting ---------------------------------------------

/// Simulates a single server on an open-loop schedule: event k is due
/// at stream time k * period and takes `cost` to process once the
/// server is free. Returns each event's latency from its due time.
std::vector<double> simulate(std::size_t n, double period, double cost,
                             std::size_t stall_at, double stall) {
  const DueSchedule schedule(100.0, 0.0);  // stream 0 is due at wall 100
  std::vector<double> latency;
  double free_at = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double due = schedule.due_wall(static_cast<double>(k) * period);
    double start = std::max(due, free_at);
    if (k == stall_at) start += stall;
    free_at = start + cost;
    latency.push_back(schedule.latency(static_cast<double>(k) * period, free_at));
  }
  return latency;
}

TEST(DueSchedule, MapsStreamTimeToWallTime) {
  const DueSchedule s(50.0, 10.0);
  EXPECT_DOUBLE_EQ(s.due_wall(10.0), 50.0);
  EXPECT_DOUBLE_EQ(s.due_wall(14.0), 54.0);
  EXPECT_DOUBLE_EQ(s.latency(14.0, 54.5), 0.5);
}

TEST(DueSchedule, StallMakesLaterEventsLate) {
  const std::vector<double> calm = simulate(40, 0.1, 0.01, 1000, 0.0);
  for (double l : calm) EXPECT_NEAR(l, 0.01, 1e-9);
  const std::vector<double> stalled = simulate(40, 0.1, 0.01, 10, 1.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(stalled[k], 0.01, 1e-9);
  // The stall is charged to the stalled event and to every event due
  // while the backlog drains, not just to the one that hit it.
  EXPECT_NEAR(stalled[10], 1.01, 1e-9);
  EXPECT_NEAR(stalled[11], 0.92, 1e-9);
  EXPECT_NEAR(stalled[15], 0.56, 1e-9);
  std::size_t late = 0;
  for (std::size_t k = 11; k < stalled.size(); ++k) late += stalled[k] > 0.02;
  EXPECT_GE(late, 9u);
  // Once the backlog drains, latency returns to the service time.
  EXPECT_NEAR(stalled.back(), 0.01, 1e-9);
}

// --- generator ----------------------------------------------------------------

GeneratorConfig small_config(std::uint64_t seed) {
  GeneratorConfig c;
  c.seed = seed;
  c.n_users = 40;
  c.n_readers = 4;
  c.tags_per_user = 2;
  c.antennas = 2;
  c.read_hz_lo = 5.0;
  c.read_hz_hi = 9.0;
  c.hop = true;
  c.overlap_share = 0.2;
  c.silent_share = 0.3;
  c.apnea_share = 0.3;
  c.events_after_s = 1.0;
  c.events_until_s = 4.0;
  c.blackout_every_s = 1.5;
  c.blackout_s = 0.5;
  return c;
}

std::vector<std::vector<std::uint8_t>> replay(const GeneratorConfig& c,
                                              double slice_s, double until_s) {
  Generator g(c);
  std::vector<std::vector<std::uint8_t>> all(c.n_readers);
  std::vector<std::vector<std::uint8_t>> wire;
  for (double t = 0.0; t < until_s - 1e-12; t += slice_s) {
    for (auto& w : wire) w.clear();
    g.make_slice(t, t + slice_s, wire);
    for (std::size_t r = 0; r < wire.size(); ++r)
      all[r].insert(all[r].end(), wire[r].begin(), wire[r].end());
  }
  return all;
}

/// Every report entry in a reader's byte stream, in order.
std::vector<llrp::TagReportEntry> entries_of(const std::vector<std::uint8_t>& bytes) {
  llrp::MessageFramer framer;
  framer.feed(bytes);
  std::vector<llrp::TagReportEntry> out;
  llrp::Message m;
  while (framer.next(m)) {
    const auto e = llrp::decode_tag_reports(m.body);
    out.insert(out.end(), e.begin(), e.end());
  }
  return out;
}

TEST(Generator, SameSeedSameBytes) {
  const GeneratorConfig c = small_config(7);
  EXPECT_EQ(replay(c, 1.0 / 32.0, 5.0), replay(c, 1.0 / 32.0, 5.0));
  EXPECT_NE(replay(c, 1.0 / 32.0, 5.0), replay(small_config(8), 1.0 / 32.0, 5.0));
}

TEST(Generator, ReadsDoNotDependOnSliceWidth) {
  const GeneratorConfig c = small_config(11);
  const auto a = replay(c, 1.0 / 32.0, 4.0);
  const auto b = replay(c, 0.5, 4.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    const auto ea = entries_of(a[r]);
    const auto eb = entries_of(b[r]);
    ASSERT_EQ(ea.size(), eb.size());
    ASSERT_FALSE(ea.empty());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].first_seen_utc_us, eb[i].first_seen_utc_us);
      EXPECT_EQ(ea[i].phase_4096, eb[i].phase_4096);
      EXPECT_EQ(ea[i].epc, eb[i].epc);
    }
  }
}

TEST(Generator, TruthFollowsTheSchedule) {
  GeneratorConfig c = small_config(3);
  c.blackout_every_s = 0.0;
  Generator g(c);
  for (const UserTruth& u : g.users()) {
    EXPECT_GE(u.bpm, kBpmLo);
    EXPECT_LT(u.bpm, kBpmHi);
    if (std::isfinite(u.apnea_from_s)) {
      EXPECT_TRUE(std::isnan(g.truth_bpm(u.id, u.apnea_from_s - 0.1,
                                         u.apnea_from_s + 0.1)));
    }
    if (std::isfinite(u.silent_from_s)) {
      EXPECT_FALSE(g.reading_at(u.id, u.silent_from_s + 0.01));
    }
  }
  EXPECT_TRUE(std::isnan(g.truth_bpm(0, 0.0, 1.0)));
  EXPECT_TRUE(std::isnan(g.truth_bpm(c.n_users + 1, 0.0, 1.0)));
}

TEST(Generator, StreamOpensAtTimeZero) {
  Generator g(small_config(5));
  std::vector<std::vector<std::uint8_t>> wire;
  g.make_slice(0.0, 0.01, wire);
  std::uint64_t first = ~0ull;
  for (const auto& w : wire)
    for (const auto& e : entries_of(w)) first = std::min(first, e.first_seen_utc_us);
  EXPECT_EQ(first, 0u);
}

// --- CPU accounting -------------------------------------------------------------

void burn(double seconds) {
  const double until = thread_cpu_s() + seconds;
  volatile double x = 0.0;
  while (thread_cpu_s() < until) x = x + 1.0;
}

TEST(CpuLedger, SystemExcludesGeneratorAndSubscriber) {
  CpuLedger ledger{10.0, 2.0, 1.5};
  EXPECT_DOUBLE_EQ(ledger.system_s(), 6.5);
  EXPECT_DOUBLE_EQ(users_per_core(1000, 13.0, ledger), 2000.0);
  EXPECT_EQ(users_per_core(1000, 13.0, CpuLedger{1.0, 0.5, 0.5}), 0.0);
}

TEST(CpuLedger, MeasuredThreadCpuIsExcluded) {
  const double p0 = process_cpu_s();
  double generator_s = 0.0;
  std::thread generator([&] {
    const double t0 = thread_cpu_s();
    burn(0.15);
    generator_s = thread_cpu_s() - t0;
  });
  generator.join();
  const double s0 = thread_cpu_s();
  burn(0.05);  // "subscriber" work on this thread
  const double subscriber_s = thread_cpu_s() - s0;
  const double system_work0 = thread_cpu_s();
  burn(0.10);  // the system's own work
  const double system_work = thread_cpu_s() - system_work0;
  const CpuLedger ledger{process_cpu_s() - p0, generator_s, subscriber_s};
  EXPECT_GE(generator_s, 0.15);
  EXPECT_NEAR(ledger.system_s(), system_work, 0.03);
}

TEST(Fnv, LineHashIsOrderSensitive) {
  const std::uint64_t ab = fnv1a_line(fnv1a_line(kFnvOffset, "a"), "b");
  const std::uint64_t ba = fnv1a_line(fnv1a_line(kFnvOffset, "b"), "a");
  EXPECT_NE(ab, ba);
  EXPECT_EQ(ab, fnv1a_line(fnv1a_line(kFnvOffset, "a"), "b"));
}

}  // namespace
}  // namespace perfbench
