// Unified observability layer (src/obs): registry find-or-create
// semantics, the histogram bucket contract, trace-ring bounds, exporter
// byte formats, merge-law property tests for the counter structs the
// registry exports, the golden-snapshot determinism gate (a seeded
// chaos soak exports byte-identical Prometheus/JSON twice) and its
// cross-build scrape pins, and the counter collectors' multi-owner
// sums.
//
// Thread-hammering tests carry the `concurrency` label with the rest of
// the file so the TSan CI job covers the lock-free instrument updates
// and scrapes racing the queue's and the bus's producers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "core/chaos.hpp"
#include "core/demux.hpp"
#include "core/ingest.hpp"
#include "core/metrics.hpp"
#include "core/recovery.hpp"
#include "fleet/fleet_soak.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "signal/simd/dispatch.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/telemetry_soak.hpp"
#include "soak_invariants.hpp"

namespace tagbreathe {
namespace {

using obs::Observability;
using obs::TraceRing;

// --- registry --------------------------------------------------------------

// Seeds counter series the way components do: a collector that emits
// fixed (name, label key, label value, value) rows at scrape time.
// Rows may change between scrapes; the ones left at destruction are
// folded into the registry's retained totals.
struct Row {
  std::string name;
  std::string label_key;
  std::string label_value;
  std::uint64_t value = 0;
};
class SeededCounters {
 public:
  SeededCounters(obs::MetricsRegistry& m, std::vector<Row> rows)
      : rows(std::move(rows)) {
    collector_.bind(m, [this](obs::CounterSink& sink) {
      for (const Row& r : this->rows)
        sink.emit(r.name, r.label_key, r.label_value, r.value);
    });
  }
  std::vector<Row> rows;

 private:
  obs::CounterCollector collector_;  // last: retires before rows go
};

TEST(Registry, FindOrCreateReturnsStableInstance) {
  obs::MetricsRegistry m;
  obs::Gauge& a = m.gauge("reads_depth");
  a.set(3.0);
  obs::Gauge& b = m.gauge("reads_depth");
  EXPECT_EQ(&a, &b);
  EXPECT_DOUBLE_EQ(b.value(), 3.0);
  EXPECT_EQ(m.size(), 1u);
}

TEST(Registry, KindClashThrows) {
  obs::MetricsRegistry m;
  m.gauge("x_depth");
  EXPECT_THROW(m.histogram("x_depth", obs::default_latency_bounds()),
               std::invalid_argument);
  m.histogram("y_seconds", obs::default_latency_bounds());
  EXPECT_THROW(m.gauge("y_seconds"), std::invalid_argument);
}

// Counter names are checked where collectors emit them, at scrape
// time; instrument names at registration.
TEST(Registry, MalformedNamesThrow) {
  obs::MetricsRegistry m;
  SeededCounters seeded(m, {{"ok_name:subsystem_total", "", "", 1}});
  EXPECT_NO_THROW(m.snapshot());
  for (const char* bad : {"", "9leading_digit", "has space", "has-dash"}) {
    seeded.rows[0].name = bad;
    EXPECT_THROW(m.snapshot(), std::invalid_argument) << bad;
    EXPECT_THROW(m.gauge(bad), std::invalid_argument) << bad;
  }
  seeded.rows[0] = {"q_total", "bad key", "v", 1};
  EXPECT_THROW(m.snapshot(), std::invalid_argument);
  // The collector runs once more when destroyed: leave it valid.
  seeded.rows[0] = {"ok_name:subsystem_total", "", "", 1};
}

TEST(Registry, LabelPairsAreDistinctSeries) {
  obs::MetricsRegistry m;
  SeededCounters seeded(m, {{"q_total", "reason", "alpha", 1},
                            {"q_total", "reason", "beta", 2},
                            {"q_total", "reason", "alpha", 3}});
  const obs::MetricsSnapshot snap = m.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].label_value, "alpha");
  EXPECT_EQ(snap.counters[0].value, 4u);  // one series sums its emits
  EXPECT_EQ(snap.counters[1].label_value, "beta");
  EXPECT_EQ(snap.counters[1].value, 2u);
  // Key without value (and vice versa) is rejected.
  seeded.rows[2].label_value.clear();
  EXPECT_THROW(m.snapshot(), std::invalid_argument);
  seeded.rows[2] = {"q_total", "", "alpha", 3};
  EXPECT_THROW(m.snapshot(), std::invalid_argument);
  seeded.rows.pop_back();  // leave the collector valid for its retire
}

TEST(Registry, HistogramReRegistrationChecksBounds) {
  obs::MetricsRegistry m;
  const double bounds[] = {1.0, 2.0};
  obs::Histogram& h = m.histogram("lat_seconds", bounds);
  EXPECT_EQ(&m.histogram("lat_seconds", bounds), &h);
  const double other[] = {1.0, 3.0};
  EXPECT_THROW(m.histogram("lat_seconds", other), std::invalid_argument);
}

TEST(Registry, SnapshotSortedByNameThenLabel) {
  obs::MetricsRegistry m;
  SeededCounters seeded(m, {{"zz_total", "", "", 1},
                            {"aa_total", "", "", 2},
                            {"mm_total", "kind", "b", 3},
                            {"mm_total", "kind", "a", 4}});
  const obs::MetricsSnapshot snap = m.snapshot();
  ASSERT_EQ(snap.counters.size(), 4u);
  EXPECT_EQ(snap.counters[0].name, "aa_total");
  EXPECT_EQ(snap.counters[1].name, "mm_total");
  EXPECT_EQ(snap.counters[1].label_value, "a");
  EXPECT_EQ(snap.counters[2].label_value, "b");
  EXPECT_EQ(snap.counters[3].name, "zz_total");
}

TEST(Registry, GaugeSetAndAdd) {
  obs::MetricsRegistry m;
  obs::Gauge& g = m.gauge("depth");
  g.set(4.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

// --- histogram bucket contract ---------------------------------------------

TEST(Histogram, BoundaryValuesLandInLeBucket) {
  const double bounds[] = {1.0, 2.0, 4.0};
  obs::Histogram h{std::span<const double>(bounds)};
  h.observe(1.0);   // le="1" exactly on the bound
  h.observe(1.5);   // le="2"
  h.observe(2.0);   // le="2" exactly on the bound
  h.observe(4.0);   // le="4"
  h.observe(0.0);   // le="1"
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 0u);  // overflow untouched
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.5);
}

TEST(Histogram, OverflowBucketTakesOutOfRange) {
  const double bounds[] = {1.0};
  obs::Histogram h{std::span<const double>(bounds)};
  h.observe(1.0000001);
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, NanCountedInOverflowExcludedFromSum) {
  const double bounds[] = {1.0};
  obs::Histogram h{std::span<const double>(bounds)};
  h.observe(0.5);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5);  // NaN never poisons the sum
}

TEST(Histogram, InvalidBoundsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(obs::Histogram{std::span<const double>(empty)},
               std::invalid_argument);
  const double descending[] = {2.0, 1.0};
  EXPECT_THROW(obs::Histogram{std::span<const double>(descending)},
               std::invalid_argument);
  const double duplicate[] = {1.0, 1.0};
  EXPECT_THROW(obs::Histogram{std::span<const double>(duplicate)},
               std::invalid_argument);
  const double infinite[] = {1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(obs::Histogram{std::span<const double>(infinite)},
               std::invalid_argument);
}

// TSan coverage of the lock-free update paths: concurrent sets and
// observes against one registry, plus trace recording.
TEST(Concurrency, InstrumentsAreThreadSafe) {
  Observability hub(1024);
  obs::Gauge& g = hub.metrics().gauge("hammer_depth");
  const double bounds[] = {0.25, 0.5, 0.75};
  obs::Histogram& h = hub.metrics().histogram("hammer_seconds", bounds);
  const std::uint16_t stage = hub.trace().register_stage("hammer");

  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      common::Rng rng(0x0B5 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        g.set(static_cast<double>(i));
        h.observe(rng.uniform());
        if (i % 64 == 0)
          hub.trace().record(stage, obs::SpanKind::Instant,
                             static_cast<double>(i), static_cast<unsigned>(t));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.count());
  const obs::TraceSnapshot trace = hub.trace().snapshot();
  // i % 64 == 0 fires at i = 0 too: ceil(kIters / 64) records per thread.
  EXPECT_EQ(trace.events.size() + trace.dropped,
            static_cast<std::uint64_t>(kThreads) * ((kIters + 63) / 64));
}

// --- trace ring ------------------------------------------------------------

TEST(Trace, ZeroCapacityThrows) {
  EXPECT_THROW(TraceRing ring(0), std::invalid_argument);
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  TraceRing ring(4);
  const std::uint16_t stage = ring.register_stage("s");
  for (std::uint64_t i = 0; i < 6; ++i)
    ring.record(stage, obs::SpanKind::Instant, static_cast<double>(i), i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  const obs::TraceSnapshot snap = ring.snapshot();
  ASSERT_EQ(snap.events.size(), 4u);
  // Oldest-first: events 0 and 1 were overwritten.
  EXPECT_EQ(snap.events.front().value, 2u);
  EXPECT_EQ(snap.events.back().value, 5u);
  EXPECT_EQ(snap.capacity, 4u);
}

TEST(Trace, RegisterStageDedupes) {
  TraceRing ring(8);
  const std::uint16_t a = ring.register_stage("alpha");
  const std::uint16_t b = ring.register_stage("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(ring.register_stage("alpha"), a);
  const obs::TraceSnapshot snap = ring.snapshot();
  ASSERT_EQ(snap.stages.size(), 2u);
  EXPECT_EQ(snap.stages[a], "alpha");
  EXPECT_EQ(snap.stages[b], "beta");
}

TEST(Trace, EnterExitKinds) {
  TraceRing ring(8);
  const std::uint16_t s = ring.register_stage("span");
  ring.enter(s, 1.0, 7);
  ring.exit(s, 2.0, 7);
  const obs::TraceSnapshot snap = ring.snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.events[0].kind, obs::SpanKind::Enter);
  EXPECT_EQ(snap.events[1].kind, obs::SpanKind::Exit);
  EXPECT_DOUBLE_EQ(snap.events[1].time_s, 2.0);
}

// --- hub clock -------------------------------------------------------------

TEST(Hub, DeterministicClockAdvancesPerCall) {
  Observability hub;
  hub.use_deterministic_clock(0.5);
  EXPECT_DOUBLE_EQ(hub.now(), 0.0);
  EXPECT_DOUBLE_EQ(hub.now(), 0.5);
  EXPECT_DOUBLE_EQ(hub.now(), 1.0);
}

TEST(Hub, EmptyClockRejected) {
  Observability hub;
  EXPECT_THROW(hub.set_clock(nullptr), std::invalid_argument);
}

TEST(Hub, DefaultClockIsMonotonic) {
  Observability hub(8);
  const double a = hub.now();
  const double b = hub.now();
  EXPECT_GE(b, a);
}

TEST(Hub, GlobalHubIsAStableSingleton) {
  Observability& g = Observability::global();
  EXPECT_EQ(&g, &Observability::global());
  g.metrics().gauge("global_smoke").set(1.0);
  EXPECT_GE(g.metrics().size(), 1u);
}

// --- exporters -------------------------------------------------------------

TEST(Exporters, PrometheusTextFormat) {
  Observability hub(8);
  SeededCounters seeded(hub.metrics(), {{"a_total", "", "", 3}});
  hub.metrics().gauge("g").set(1.5);
  const double bounds[] = {1.0, 2.0};
  obs::Histogram& h = hub.metrics().histogram("h", bounds);
  h.observe(0.5);
  h.observe(3.0);
  const std::string text = obs::to_prometheus(hub.snapshot());
  EXPECT_EQ(text,
            "# TYPE a_total counter\n"
            "a_total 3\n"
            "# TYPE g gauge\n"
            "g 1.5\n"
            "# TYPE h histogram\n"
            "h_bucket{le=\"1\"} 1\n"
            "h_bucket{le=\"2\"} 1\n"
            "h_bucket{le=\"+Inf\"} 2\n"
            "h_sum 3.5\n"
            "h_count 2\n"
            "# TYPE obs_trace_events gauge\n"
            "obs_trace_events 0\n"
            "# TYPE obs_trace_dropped_total counter\n"
            "obs_trace_dropped_total 0\n");
}

TEST(Exporters, PrometheusOneTypeLinePerLabelledFamily) {
  Observability hub(8);
  SeededCounters seeded(hub.metrics(), {{"q_total", "reason", "a", 1},
                                        {"q_total", "reason", "b", 2}});
  const std::string text = obs::to_prometheus(hub.snapshot());
  EXPECT_NE(text.find("# TYPE q_total counter\n"
                      "q_total{reason=\"a\"} 1\n"
                      "q_total{reason=\"b\"} 2\n"),
            std::string::npos);
  // Exactly one TYPE line for the family.
  EXPECT_EQ(text.find("# TYPE q_total"), text.rfind("# TYPE q_total"));
}

TEST(Exporters, PrometheusMixedLabelKeysSortByteStably) {
  // One family scattered across two label keys (the fleet publishes
  // per-reader and per-shard series): the registry's (name, key, value)
  // order fully determines the exposition, byte for byte.
  Observability hub(8);
  SeededCounters seeded(hub.metrics(),
                        {{"fleet_reads_total", "shard", "s01", 5},
                         {"fleet_reads_total", "reader", "r002", 7},
                         {"fleet_reads_total", "reader", "r000", 1}});
  const std::string text = obs::to_prometheus(hub.snapshot());
  EXPECT_EQ(text,
            "# TYPE fleet_reads_total counter\n"
            "fleet_reads_total{reader=\"r000\"} 1\n"
            "fleet_reads_total{reader=\"r002\"} 7\n"
            "fleet_reads_total{shard=\"s01\"} 5\n"
            "# TYPE obs_trace_events gauge\n"
            "obs_trace_events 0\n"
            "# TYPE obs_trace_dropped_total counter\n"
            "obs_trace_dropped_total 0\n");
  // A second scrape of a fresh snapshot reproduces the bytes exactly.
  EXPECT_EQ(text, obs::to_prometheus(hub.snapshot()));
}

TEST(Exporters, PrometheusLabelledHistogramBuckets) {
  Observability hub(8);
  const double bounds[] = {1.0};
  hub.metrics().histogram("stage_seconds", bounds, "stage", "fuse")
      .observe(0.25);
  const std::string text = obs::to_prometheus(hub.snapshot());
  EXPECT_NE(text.find("stage_seconds_bucket{stage=\"fuse\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_sum{stage=\"fuse\"} 0.25"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_count{stage=\"fuse\"} 1"),
            std::string::npos);
}

TEST(Exporters, PrometheusEscapesHostileLabelValues) {
  // Label VALUES are caller data and may carry the three characters the
  // exposition format reserves: backslash, double quote and newline. An
  // unescaped one silently corrupts the whole scrape, so this is a
  // golden byte test.
  Observability hub(8);
  SeededCounters seeded(hub.metrics(),
                        {{"hostile_total", "reason", "a\\b\"c\nd", 1}});
  hub.metrics().gauge("hostile_gauge", "path", "C:\\tmp\\x").set(2.0);
  const double bounds[] = {1.0};
  hub.metrics()
      .histogram("hostile_seconds", bounds, "op", "say \"hi\"\n")
      .observe(0.5);
  const std::string text = obs::to_prometheus(hub.snapshot());
  EXPECT_NE(text.find("hostile_total{reason=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hostile_gauge{path=\"C:\\\\tmp\\\\x\"} 2\n"),
            std::string::npos)
      << text;
  // Histogram series escape the label value on every synthesized line,
  // and the internally generated le value stays untouched.
  EXPECT_NE(
      text.find("hostile_seconds_bucket{op=\"say \\\"hi\\\"\\n\",le=\"1\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("hostile_seconds_count{op=\"say \\\"hi\\\"\\n\"} 1"),
            std::string::npos)
      << text;
  // A raw (unescaped) newline inside a label value would orphan the
  // value's tail onto its own exposition line.
  EXPECT_EQ(text.find("\nd\""), std::string::npos) << text;
  // Deterministic: a second snapshot exports the same bytes.
  EXPECT_EQ(text, obs::to_prometheus(hub.snapshot()));
}

TEST(Exporters, JsonFormat) {
  Observability hub(8);
  SeededCounters seeded(hub.metrics(), {{"a_total", "", "", 3}});
  const std::string json = obs::to_json(hub.snapshot());
  EXPECT_EQ(json,
            "{\n"
            "  \"counters\": [\n"
            "    {\"name\": \"a_total\", \"value\": 3}\n"
            "  ],\n"
            "  \"gauges\": [\n"
            "  ],\n"
            "  \"histograms\": [\n"
            "  ],\n"
            "  \"trace\": {\"capacity\": 8, \"dropped\": 0, \"events\": [\n"
            "  ]}\n"
            "}\n");
}

TEST(Exporters, JsonCarriesTraceEventsAndHistograms) {
  Observability hub(8);
  const double bounds[] = {1.0, 2.0};
  hub.metrics().histogram("h", bounds, "stage", "x").observe(1.5);
  const std::uint16_t s = hub.trace().register_stage("pipeline.update");
  hub.trace().enter(s, 12.25, 9);
  const std::string json = obs::to_json(hub.snapshot());
  EXPECT_NE(json.find("{\"name\": \"h\", \"stage\": \"x\", "
                      "\"bounds\": [1, 2], \"counts\": [0, 1, 0], "
                      "\"count\": 1, \"sum\": 1.5}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"stage\": \"pipeline.update\", \"kind\": \"enter\", "
                      "\"t\": 12.25, \"value\": 9}"),
            std::string::npos);
}

// --- merge-law property tests ----------------------------------------------
//
// The registry exports these structs, so their merge must be a proper
// commutative monoid or exported totals drift depending on merge order.
// Latencies are generated as multiples of 1/1024 (dyadic rationals) so
// double addition is exact and the laws can be asserted bit-for-bit.

core::LatencyStats random_latency_stats(std::uint64_t seed) {
  common::Rng rng(seed);
  core::LatencyStats s;
  const int n = rng.uniform_int(0, 64);
  for (int i = 0; i < n; ++i)
    s.record(static_cast<double>(rng.uniform_int(0, 4096)) / 1024.0);
  return s;
}

bool equal(const core::LatencyStats& a, const core::LatencyStats& b) {
  return a.samples == b.samples && a.total_s == b.total_s && a.max_s == b.max_s;
}

core::DurabilityCounters random_durability_counters(std::uint64_t seed) {
  common::Rng rng(seed);
  core::DurabilityCounters c;
  c.journal_records_appended = rng.uniform_int(0, 1000);
  c.journal_commits = rng.uniform_int(0, 1000);
  c.journal_bytes_written = rng.uniform_int(0, 1 << 20);
  c.journal_segments_created = rng.uniform_int(0, 100);
  c.journal_segments_pruned = rng.uniform_int(0, 100);
  c.replay_records = rng.uniform_int(0, 1000);
  c.replay_quarantined = rng.uniform_int(0, 1000);
  c.journal_records_corrupt = rng.uniform_int(0, 100);
  c.journal_truncated_tails = rng.uniform_int(0, 100);
  c.journal_segments_scanned = rng.uniform_int(0, 100);
  c.journal_segments_rejected = rng.uniform_int(0, 100);
  c.snapshots_written = rng.uniform_int(0, 100);
  c.snapshot_bytes_written = rng.uniform_int(0, 1 << 20);
  c.snapshots_pruned = rng.uniform_int(0, 100);
  c.snapshots_loaded = rng.uniform_int(0, 100);
  c.snapshots_rejected = rng.uniform_int(0, 100);
  return c;
}

bool equal(const core::DurabilityCounters& a,
           const core::DurabilityCounters& b) {
  return a.journal_records_appended == b.journal_records_appended &&
         a.journal_commits == b.journal_commits &&
         a.journal_bytes_written == b.journal_bytes_written &&
         a.journal_segments_created == b.journal_segments_created &&
         a.journal_segments_pruned == b.journal_segments_pruned &&
         a.replay_records == b.replay_records &&
         a.replay_quarantined == b.replay_quarantined &&
         a.journal_records_corrupt == b.journal_records_corrupt &&
         a.journal_truncated_tails == b.journal_truncated_tails &&
         a.journal_segments_scanned == b.journal_segments_scanned &&
         a.journal_segments_rejected == b.journal_segments_rejected &&
         a.snapshots_written == b.snapshots_written &&
         a.snapshot_bytes_written == b.snapshot_bytes_written &&
         a.snapshots_pruned == b.snapshots_pruned &&
         a.snapshots_loaded == b.snapshots_loaded &&
         a.snapshots_rejected == b.snapshots_rejected;
}

TEST(MergeLaws, LatencyStatsIdentity) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const core::LatencyStats a = random_latency_stats(seed);
    core::LatencyStats left = a;
    left.merge(core::LatencyStats{});  // right identity
    EXPECT_TRUE(equal(left, a)) << "seed " << seed;
    core::LatencyStats right;  // left identity
    right.merge(a);
    EXPECT_TRUE(equal(right, a)) << "seed " << seed;
  }
}

TEST(MergeLaws, LatencyStatsCommutative) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const core::LatencyStats a = random_latency_stats(seed);
    const core::LatencyStats b = random_latency_stats(seed + 1000);
    core::LatencyStats ab = a;
    ab.merge(b);
    core::LatencyStats ba = b;
    ba.merge(a);
    EXPECT_TRUE(equal(ab, ba)) << "seed " << seed;
  }
}

TEST(MergeLaws, LatencyStatsAssociative) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const core::LatencyStats a = random_latency_stats(seed);
    const core::LatencyStats b = random_latency_stats(seed + 1000);
    const core::LatencyStats c = random_latency_stats(seed + 2000);
    core::LatencyStats left = a;
    left.merge(b);
    left.merge(c);
    core::LatencyStats bc = b;
    bc.merge(c);
    core::LatencyStats right = a;
    right.merge(bc);
    EXPECT_TRUE(equal(left, right)) << "seed " << seed;
  }
}

TEST(MergeLaws, DurabilityCountersIdentity) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const core::DurabilityCounters a = random_durability_counters(seed);
    core::DurabilityCounters left = a;
    left.merge(core::DurabilityCounters{});
    EXPECT_TRUE(equal(left, a)) << "seed " << seed;
    core::DurabilityCounters right;
    right.merge(a);
    EXPECT_TRUE(equal(right, a)) << "seed " << seed;
  }
}

TEST(MergeLaws, DurabilityCountersCommutative) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const core::DurabilityCounters a = random_durability_counters(seed);
    const core::DurabilityCounters b = random_durability_counters(seed + 1000);
    core::DurabilityCounters ab = a;
    ab.merge(b);
    core::DurabilityCounters ba = b;
    ba.merge(a);
    EXPECT_TRUE(equal(ab, ba)) << "seed " << seed;
  }
}

TEST(MergeLaws, DurabilityCountersAssociative) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const core::DurabilityCounters a = random_durability_counters(seed);
    const core::DurabilityCounters b = random_durability_counters(seed + 1000);
    const core::DurabilityCounters c = random_durability_counters(seed + 2000);
    core::DurabilityCounters left = a;
    left.merge(b);
    left.merge(c);
    core::DurabilityCounters bc = b;
    bc.merge(c);
    core::DurabilityCounters right = a;
    right.merge(bc);
    EXPECT_TRUE(equal(left, right)) << "seed " << seed;
  }
}

// --- golden-snapshot determinism -------------------------------------------

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name,
                            const std::string& label_value = {}) {
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == name && c.label_value == label_value) return c.value;
  }
  ADD_FAILURE() << "counter not found: " << name << " " << label_value;
  return 0;
}

// Two runs of one seeded chaos scenario, each with a fresh hub and a
// deterministic latency clock, must export byte-identical Prometheus
// and JSON snapshots: the whole instrumentation path — counters,
// histograms, trace events — is a pure function of the data.
TEST(GoldenSnapshot, ChaosSoakExportsAreByteStable) {
  const auto run = [] {
    auto hub = std::make_unique<Observability>(1 << 14);
    hub->use_deterministic_clock();
    core::SoakConfig cfg;
    cfg.n_users = 2;
    cfg.tags_per_user = 2;
    cfg.duration_s = 45.0;
    cfg.chaos = core::ChaosConfig::composite(0x60D5);
    cfg.observability = hub.get();
    const core::SoakReport report = core::run_soak(cfg);
    EXPECT_TRUE(report.ok());
    const obs::ObservabilitySnapshot snap = hub->snapshot();
    return std::make_pair(obs::to_prometheus(snap), obs::to_json(snap));
  };
  const auto [prom1, json1] = run();
  const auto [prom2, json2] = run();
  EXPECT_EQ(prom1, prom2);
  EXPECT_EQ(json1, json2);
}

// The soak binding wires the full path: every layer's instruments must
// show up in the export with values consistent with the soak report.
TEST(GoldenSnapshot, SoakInstrumentsMirrorReportCounters) {
  Observability hub(1 << 14);
  hub.use_deterministic_clock();
  core::SoakConfig cfg;
  cfg.n_users = 2;
  cfg.duration_s = 45.0;
  cfg.chaos = core::ChaosConfig::composite(0xBEEF);
  cfg.observability = &hub;
  const core::SoakReport report = core::run_soak(cfg);
  ASSERT_TRUE(report.ok());

  const obs::ObservabilitySnapshot snap = hub.snapshot();
  EXPECT_EQ(counter_value(snap.metrics, "ingest_queue_enqueued_total"),
            report.queue.enqueued);
  EXPECT_EQ(counter_value(snap.metrics, "ingest_queue_drained_total"),
            report.queue.drained);
  EXPECT_EQ(counter_value(snap.metrics, "ingest_admitted_total"),
            report.validation.admitted);
  std::uint64_t quarantined = 0;
  for (std::size_t i = 0; i < core::kQuarantineReasonCount; ++i) {
    quarantined += counter_value(
        snap.metrics, "ingest_quarantined_total",
        core::quarantine_reason_name(static_cast<core::QuarantineReason>(i)));
  }
  EXPECT_EQ(quarantined, report.validation.quarantined_total);
  EXPECT_GT(counter_value(snap.metrics, "pipeline_updates_total"), 0u);
  EXPECT_GT(counter_value(snap.metrics, "pipeline_events_total",
                          "rate-update"),
            0u);
  EXPECT_EQ(counter_value(snap.metrics, "pipeline_events_total",
                          "signal-lost"),
            report.signal_lost_events);

  // Stage histograms and trace spans were exercised.
  const std::string text = obs::to_prometheus(snap);
  EXPECT_NE(text.find("analysis_stage_seconds_bucket{stage=\"fuse\""),
            std::string::npos);
  EXPECT_NE(text.find("pipeline_update_seconds_count"), std::string::npos);
  // The DSP dispatch level rides along in both exports and mirrors the
  // level the process actually resolved.
  EXPECT_NE(text.find("dsp_simd_level"), std::string::npos);
  const std::string json = obs::to_json(snap);
  EXPECT_NE(json.find("\"stage\": \"pipeline.update\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"monitor.analyze\""), std::string::npos);
  EXPECT_NE(json.find("dsp_simd_level"), std::string::npos);
  bool gauge_found = false;
  for (const obs::GaugeSample& g : snap.metrics.gauges) {
    if (g.name != "dsp_simd_level") continue;
    gauge_found = true;
    EXPECT_EQ(g.value,
              static_cast<double>(signal::simd::active_level_value()));
  }
  EXPECT_TRUE(gauge_found);
}

// The conservation laws the soaks check on their report structs, read
// back from the scrape an operator sees: every read a queue accepted
// was drained, shed or coalesced, under both overflow policies.
TEST(GoldenSnapshot, ScrapedIngestQueueBooksBalance) {
  for (const core::BackpressurePolicy policy :
       {core::BackpressurePolicy::DropOldest,
        core::BackpressurePolicy::Coalesce}) {
    Observability hub(1 << 14);
    core::SoakConfig cfg;  // ChaosSoak.BurstOverloadIsBoundedByTheQueue's
    cfg.n_users = 3;
    cfg.tags_per_user = 2;
    cfg.duration_s = 120.0;
    cfg.pipeline.window_s = 20.0;
    cfg.pipeline.warmup_s = 8.0;
    cfg.pipeline.max_reads_per_stream = 4096;
    cfg.ingest.max_users = 3;
    cfg.ingest.queue_capacity = 64;  // the burst replays overflow it
    cfg.ingest.policy = policy;
    cfg.chaos = core::ChaosConfig::composite(7);
    cfg.observability = &hub;
    const core::SoakReport report = core::run_soak(cfg);
    testutil::expect_no_violations(report.violations);

    const obs::MetricsSnapshot snap = hub.metrics().snapshot();
    const std::uint64_t shed = counter_value(snap, "ingest_queue_shed_total");
    const std::uint64_t coalesced =
        counter_value(snap, "ingest_queue_coalesced_total");
    const char* name = core::backpressure_policy_name(policy);
    EXPECT_GT(policy == core::BackpressurePolicy::Coalesce ? coalesced : shed,
              0u)
        << name << ": the queue never overflowed";
    EXPECT_EQ(counter_value(snap, "ingest_queue_enqueued_total"),
              counter_value(snap, "ingest_queue_drained_total") + shed +
                  coalesced)
        << name;
  }
}

// Every read a fleet admitted was routed to one shard or suppressed as
// a handoff duplicate, summed over the scraped per-shard series.
TEST(GoldenSnapshot, ScrapedFleetRoutingBooksBalance) {
  Observability hub(1 << 14);
  fleet::FleetSoakConfig cfg;
  cfg.n_readers = 4;
  cfg.n_users = 8;
  cfg.duration_s = 20.0;
  cfg.fleet.n_shards = 3;
  cfg.roaming_users = 4;  // overlapping hops feed two readers at once
  cfg.record_event_log = false;
  cfg.observability = &hub;
  const fleet::FleetSoakReport report = fleet::run_fleet_soak(cfg);
  ASSERT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());

  const obs::MetricsSnapshot snap = hub.metrics().snapshot();
  std::uint64_t routed = 0;
  std::size_t shards = 0;
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name != "fleet_shard_routed_total") continue;
    routed += c.value;
    ++shards;
  }
  EXPECT_EQ(shards, 3u);
  const std::uint64_t suppressed =
      counter_value(snap, "fleet_handoff_suppressed_total");
  EXPECT_GT(suppressed, 0u);
  EXPECT_EQ(counter_value(snap, "fleet_admitted_total"), routed + suppressed);
}

// The DurableMonitor bind adds the journal/snapshot counters on top of
// the pipeline and front-end series: after a durable soak the exported
// durability_* totals must equal the report's merged DurabilityCounters
// (run_durable_soak flushes before reading them, so the mirror is exact).
TEST(GoldenSnapshot, DurableSoakMirrorsDurabilityCounters) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tagbreathe_obs_durable_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  Observability hub(1 << 14);
  hub.use_deterministic_clock();
  core::SoakConfig cfg;
  cfg.n_users = 2;
  cfg.tags_per_user = 1;
  cfg.duration_s = 45.0;
  cfg.observability = &hub;
  core::DurabilityConfig durability;
  durability.directory = dir.string();
  durability.snapshot_period_s = 15.0;
  durability.snapshot.fsync = false;
  const core::SoakReport report = core::run_durable_soak(cfg, durability);
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
  ASSERT_GT(report.durability.journal_records_appended, 0u);
  ASSERT_GE(report.durability.snapshots_written, 2u);

  const obs::MetricsSnapshot snap = hub.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "durability_journal_records_appended_total"),
            report.durability.journal_records_appended);
  EXPECT_EQ(counter_value(snap, "durability_journal_commits_total"),
            report.durability.journal_commits);
  EXPECT_EQ(counter_value(snap, "durability_journal_bytes_written_total"),
            report.durability.journal_bytes_written);
  EXPECT_EQ(counter_value(snap, "durability_journal_segments_created_total"),
            report.durability.journal_segments_created);
  EXPECT_EQ(counter_value(snap, "durability_journal_segments_pruned_total"),
            report.durability.journal_segments_pruned);
  EXPECT_EQ(counter_value(snap, "durability_snapshots_written_total"),
            report.durability.snapshots_written);
  EXPECT_EQ(counter_value(snap, "durability_snapshot_bytes_written_total"),
            report.durability.snapshot_bytes_written);
  EXPECT_EQ(counter_value(snap, "durability_snapshots_pruned_total"),
            report.durability.snapshots_pruned);
  // Fresh directory: nothing to replay, and the export says so too.
  EXPECT_EQ(counter_value(snap, "durability_replay_records_total"), 0u);
  EXPECT_EQ(counter_value(snap, "durability_snapshots_loaded_total"), 0u);
}

// Every fleet shard gets its own update-latency histogram, timed with
// the hub clock — so with the deterministic clock the whole labelled
// family (buckets included) must export byte-identically across runs.
TEST(GoldenSnapshot, FleetShardUpdateLatencyIsLabelledAndByteStable) {
  const auto run = [] {
    auto hub = std::make_unique<Observability>(1 << 14);
    hub->use_deterministic_clock();
    fleet::FleetSoakConfig cfg;
    cfg.n_readers = 4;
    cfg.n_users = 8;
    cfg.duration_s = 20.0;
    cfg.fleet.n_shards = 3;
    cfg.fleet.ingest.max_users = 0;
    cfg.record_event_log = false;
    cfg.observability = hub.get();
    const fleet::FleetSoakReport report = fleet::run_fleet_soak(cfg);
    EXPECT_TRUE(report.ok())
        << (report.violations.empty() ? "" : report.violations.front());
    const obs::ObservabilitySnapshot snap = hub->snapshot();
    return std::make_pair(obs::to_prometheus(snap), obs::to_json(snap));
  };
  const auto [prom1, json1] = run();
  const auto [prom2, json2] = run();
  EXPECT_EQ(prom1, prom2);
  EXPECT_EQ(json1, json2);

  // One labelled series per shard, each with buckets, a count and a sum.
  for (const char* shard : {"s00", "s01", "s02"}) {
    const std::string sel = std::string("{shard=\"") + shard + "\"";
    EXPECT_NE(
        prom1.find("fleet_shard_update_latency_seconds_bucket" + sel),
        std::string::npos)
        << shard;
    EXPECT_NE(prom1.find("fleet_shard_update_latency_seconds_count" + sel),
              std::string::npos)
        << shard;
    EXPECT_NE(prom1.find("fleet_shard_update_latency_seconds_sum" + sel),
              std::string::npos)
        << shard;
  }
  // No shard beyond the configured three.
  EXPECT_EQ(prom1.find("fleet_shard_update_latency_seconds_count{shard=\"s03\""),
            std::string::npos);
}

// FNV-1a over the export's lines, skipping the ISA-dependent
// dsp_simd_level series so one pin holds on every dispatch level.
std::uint64_t scrape_hash(const std::string& text) {
  std::uint64_t hash = common::kFnvOffset;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + begin, end - begin);
    if (line.find("dsp_simd_level") == std::string_view::npos)
      hash = common::fnv1a_line(hash, line);
    begin = end + 1;
  }
  return hash;
}

std::unique_ptr<Observability> golden_hub() {
  auto hub = std::make_unique<Observability>(1 << 14);
  hub->use_deterministic_clock();
  return hub;
}

// The byte-stability tests above compare two runs of one build; these
// pins compare builds. A refactor of how counters reach the registry
// must leave every scrape of these seeded scenarios byte-identical.
// The two core soak scrapes carry the capacity_bytes_per_user gauge, so
// their pins move whenever the per-user state the pipeline keeps
// changes size.
TEST(GoldenSnapshot, ScrapeHashesPinned) {
  {
    const auto hub = golden_hub();
    core::SoakConfig cfg;
    cfg.n_users = 2;
    cfg.tags_per_user = 2;
    cfg.duration_s = 45.0;
    cfg.chaos = core::ChaosConfig::composite(0x60D5);
    cfg.observability = hub.get();
    ASSERT_TRUE(core::run_soak(cfg).ok());
    const obs::ObservabilitySnapshot snap = hub->snapshot();
    EXPECT_EQ(scrape_hash(obs::to_prometheus(snap)), 0xb113bba71561c7cfull);
    EXPECT_EQ(scrape_hash(obs::to_json(snap)), 0x6ee0995c18d757eeull);
  }
  {
    const auto hub = golden_hub();
    fleet::FleetSoakConfig cfg;
    cfg.n_readers = 4;
    cfg.n_users = 8;
    cfg.duration_s = 20.0;
    cfg.fleet.n_shards = 3;
    cfg.fleet.ingest.max_users = 0;
    cfg.record_event_log = false;
    cfg.observability = hub.get();
    ASSERT_TRUE(fleet::run_fleet_soak(cfg).ok());
    EXPECT_EQ(scrape_hash(obs::to_prometheus(hub->snapshot())),
              0x387334cd419b4ff0ull);
  }
  {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("tagbreathe_obs_pinned_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const auto hub = golden_hub();
    core::SoakConfig cfg;
    cfg.n_users = 2;
    cfg.tags_per_user = 1;
    cfg.duration_s = 45.0;
    cfg.observability = hub.get();
    core::DurabilityConfig durability;
    durability.directory = dir.string();
    durability.snapshot_period_s = 15.0;
    durability.snapshot.fsync = false;
    const core::SoakReport report = core::run_durable_soak(cfg, durability);
    std::error_code ec;
    fs::remove_all(dir, ec);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(scrape_hash(obs::to_prometheus(hub->snapshot())),
              0xc3d428fa2f027522ull);
  }
  {
    const auto hub = golden_hub();
    telemetry::SubscriberSoakConfig cfg;
    cfg.fleet.n_readers = 4;
    cfg.fleet.n_users = 16;
    cfg.fleet.duration_s = 20.0;
    cfg.fleet.fleet.n_shards = 2;
    cfg.fleet.fleet.ingest.max_users = 0;
    cfg.n_subscribers = 50;
    cfg.observability = hub.get();
    const telemetry::SubscriberSoakReport report =
        telemetry::run_subscriber_soak(cfg);
    ASSERT_TRUE(report.ok());
    const obs::ObservabilitySnapshot snap = hub->snapshot();
    // The sheds service.shutdown() makes after the last bus tick are
    // in the scrape: bus counts are read when scraped.
    const auto shutdown =
        static_cast<std::size_t>(telemetry::ShedReason::ServerShutdown);
    ASSERT_GT(report.bus.sheds[shutdown], 0u);
    EXPECT_EQ(counter_value(snap.metrics, "telemetry_sheds_total",
                            "ServerShutdown"),
              report.bus.sheds[shutdown]);
    // Re-pinned once, from 0xad7109ece22c810f, when the adaptive band's
    // seed became the raw ACF: 7 of 124 lines changed, all event counts.
    // The fleet under this soak emitted 175 events instead of 176 (an
    // apnea alert for user 15 at t = 15 s suppressed its next update),
    // and the fan-out, filter and resume counters followed.
    EXPECT_EQ(scrape_hash(obs::to_prometheus(snap)), 0xd5c27aaeb34d578eull);

    // Vouched rates against each user's truth (ROADMAP item 14), bounded
    // at the counts measured when this gate landed: users 12-15 (26.5-31
    // bpm, one read at 2 Hz) are vouched 3.2-14.0 bpm low, and user 15 gets
    // one false apnea alert. EXPERIMENTS.md lists each event.
    constexpr std::size_t kMaxVouchedWrong = 17;
    constexpr std::size_t kMaxApnea = 1;
    const auto tally = testutil::tally_vouched(report.fleet.event_log,
                                               cfg.fleet.base_rate_bpm);
    EXPECT_GT(tally.vouched, 75u);  // the gate must see rates to judge
    EXPECT_LE(tally.wrong, kMaxVouchedWrong) << tally.listing;
    EXPECT_LE(tally.apnea, kMaxApnea) << tally.listing;
  }
}

// --- counters with more than one owner -------------------------------------

using CounterKey = std::tuple<std::string, std::string, std::string>;

std::map<CounterKey, std::uint64_t> counter_map(const obs::MetricsSnapshot& s) {
  std::map<CounterKey, std::uint64_t> out;
  for (const obs::CounterSample& c : s.counters)
    out[{c.name, c.label_key, c.label_value}] = c.value;
  return out;
}

core::ReadStream soak_reads(std::size_t n_users, double duration_s) {
  core::SoakConfig cfg;
  cfg.n_users = n_users;
  cfg.duration_s = duration_s;
  return core::make_soak_population(cfg);
}

// Feeds `reads` through the front-end on the soak's 0.25 s pump cadence.
void drive(core::IngestFrontEnd& front, const core::ReadStream& reads,
           double duration_s) {
  double next_pump = 0.25;
  for (const core::TagRead& read : reads) {
    front.offer(read);
    while (read.time_s >= next_pump) {
      front.pump(next_pump);
      next_pump += 0.25;
    }
  }
  front.pump(duration_s);
}

// A fleet binds many shards to one hub: every counter series must be
// the sum of its owners, whatever order they last changed in, and must
// survive rebinding, another owner's reset and the owner's destruction.
TEST(CounterCollectors, MultiInstanceScrapeSumsOwners) {
  Observability hub;
  core::IngestConfig ingest;
  ingest.max_users = 2;  // the three-user shard evicts
  auto pipe_a = std::make_unique<core::RealtimePipeline>(core::PipelineConfig{});
  auto pipe_b = std::make_unique<core::RealtimePipeline>(core::PipelineConfig{});
  auto front_a = std::make_unique<core::IngestFrontEnd>(ingest, *pipe_a);
  auto front_b = std::make_unique<core::IngestFrontEnd>(ingest, *pipe_b);
  for (core::RealtimePipeline* p : {pipe_a.get(), pipe_b.get()})
    p->bind_observability(hub);
  for (core::IngestFrontEnd* f : {front_a.get(), front_b.get()})
    f->bind_observability(hub);
  drive(*front_a, soak_reads(3, 40.0), 40.0);
  drive(*front_b, soak_reads(1, 40.0), 40.0);

  const core::IngestFrontEnd& fa = *front_a;
  const core::IngestFrontEnd& fb = *front_b;
  const std::map<std::string, std::uint64_t> expected = {
      {"pipeline_analyses_total",
       pipe_a->analyses_run() + pipe_b->analyses_run()},
      {"pipeline_analyses_skipped_total",
       pipe_a->analyses_skipped() + pipe_b->analyses_skipped()},
      {"demux_accepted_total",
       fa.validation().admitted + fb.validation().admitted},
      {"ingest_queue_enqueued_total",
       fa.queue_counters().enqueued + fb.queue_counters().enqueued},
      {"ingest_queue_drained_total",
       fa.queue_counters().drained + fb.queue_counters().drained},
      {"ingest_admitted_total",
       fa.validation().admitted + fb.validation().admitted},
      {"ingest_users_evicted_total",
       fa.validation().users_evicted + fb.validation().users_evicted},
  };
  ASSERT_GT(pipe_a->analyses_run(), 0u);
  ASSERT_GT(pipe_b->analyses_run(), 0u);
  ASSERT_GT(fa.validation().users_evicted, 0u);
  const auto check = [&](const obs::MetricsSnapshot& snap, const char* when) {
    for (const auto& [name, value] : expected)
      EXPECT_EQ(counter_value(snap, name), value) << name << " " << when;
  };
  const obs::MetricsSnapshot bound_once = hub.metrics().snapshot();
  check(bound_once, "after the run");

  // Rebinding an already-bound owner registers nothing new.
  pipe_a->bind_observability(hub);
  front_a->bind_observability(hub);
  EXPECT_EQ(counter_map(hub.metrics().snapshot()), counter_map(bound_once));

  // Owners fold their final totals into the hub when destroyed.
  front_b.reset();
  pipe_b.reset();
  front_a.reset();
  pipe_a.reset();
  check(hub.metrics().snapshot(), "after the owners are gone");
}

TEST(CounterCollectors, DemuxResetLeavesOtherInstancesTotals) {
  Observability hub;
  core::StreamDemux first;
  core::StreamDemux second;
  first.bind_observability(hub);
  second.bind_observability(hub);
  const core::ReadStream reads = soak_reads(2, 5.0);
  for (std::size_t i = 0; i < reads.size(); ++i)
    (i % 3 == 0 ? second : first).add(reads[i]);
  ASSERT_GT(second.accepted_reads(), 0u);
  EXPECT_EQ(counter_value(hub.metrics().snapshot(), "demux_accepted_total"),
            first.accepted_reads() + second.accepted_reads());
  first.clear();
  EXPECT_EQ(counter_value(hub.metrics().snapshot(), "demux_accepted_total"),
            second.accepted_reads());
}

// Moving an owner to another hub leaves its totals so far with the old
// hub, and the new hub reads the owner's counts from then on.
TEST(CounterCollectors, RebindToAnotherHubRetiresIntoTheOld) {
  Observability first;
  Observability second;
  core::IngestQueue queue(8, core::BackpressurePolicy::DropOldest);
  queue.bind_observability(first);
  const core::ReadStream reads = soak_reads(1, 2.0);
  for (const core::TagRead& read : reads) queue.push(read);
  queue.bind_observability(second);
  queue.push(reads.front());
  EXPECT_EQ(counter_value(first.metrics().snapshot(),
                          "ingest_queue_enqueued_total"),
            reads.size());
  EXPECT_EQ(counter_value(second.metrics().snapshot(),
                          "ingest_queue_enqueued_total"),
            reads.size() + 1);
}

// Scrapes racing the owners' producer threads (TSan): the queue and the
// bus collectors read under the owner's own mutex, so every scraped
// counter is monotonic and the final scrape equals counters().
void expect_monotonic_scrapes(
    Observability& hub, const std::function<void()>& produce,
    const std::function<void(const obs::MetricsSnapshot&)>& check_final) {
  std::atomic<bool> done{false};
  std::atomic<std::size_t> scrapes{0};
  bool monotonic = true;
  std::thread scraper([&] {
    std::map<CounterKey, std::uint64_t> last;
    do {
      for (const auto& [key, value] : counter_map(hub.metrics().snapshot())) {
        std::uint64_t& seen = last[key];
        if (value < seen) monotonic = false;
        seen = value;
      }
      scrapes.fetch_add(1, std::memory_order_release);
    } while (!done.load(std::memory_order_acquire));
  });
  // Start producing once the scraper is in its loop.
  while (scrapes.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  produce();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_TRUE(monotonic);
  check_final(hub.metrics().snapshot());
}

TEST(Concurrency, QueueScrapeRacesProducers) {
  Observability hub;
  core::IngestQueue queue(64, core::BackpressurePolicy::DropOldest);
  queue.bind_observability(hub);
  const core::ReadStream reads = soak_reads(4, 20.0);
  expect_monotonic_scrapes(
      hub,
      [&] {
        std::vector<std::thread> producers;
        for (std::size_t t = 0; t < 4; ++t) {
          producers.emplace_back([&, t] {
            for (std::size_t i = t; i < reads.size(); i += 4)
              queue.try_push(reads[i]);
          });
        }
        for (std::thread& p : producers) p.join();
      },
      [&](const obs::MetricsSnapshot& snap) {
        const core::IngestQueueCounters c = queue.counters();
        EXPECT_EQ(c.enqueued, reads.size());
        EXPECT_EQ(counter_value(snap, "ingest_queue_enqueued_total"),
                  c.enqueued);
        EXPECT_EQ(counter_value(snap, "ingest_queue_shed_total"),
                  c.shed_oldest);
        EXPECT_EQ(counter_value(snap, "ingest_queue_drained_total"),
                  c.drained);
      });
}

TEST(Concurrency, BusScrapeRacesPublish) {
  Observability hub;
  telemetry::EventBusConfig cfg;
  cfg.queue_capacity = 16;
  telemetry::EventBus bus(cfg);
  bus.bind_observability(hub);
  bus.subscribe({}, telemetry::OverflowPolicy::DropOldest);
  bus.subscribe({telemetry::FilterKind::User, 3},
                telemetry::OverflowPolicy::CoalescePerUser);
  constexpr std::uint64_t kEvents = 20000;
  expect_monotonic_scrapes(
      hub,
      [&] {
        for (std::uint64_t i = 0; i < kEvents; ++i) {
          core::PipelineEvent e;
          e.user_id = 1 + i % 4;
          e.time_s = 0.01 * static_cast<double>(i);
          bus.publish(0, e);
        }
      },
      [&](const obs::MetricsSnapshot& snap) {
        const telemetry::BusCounters c = bus.counters();
        EXPECT_EQ(c.events_published, kEvents);
        EXPECT_EQ(counter_value(snap, "telemetry_events_published_total"),
                  c.events_published);
        EXPECT_EQ(counter_value(snap, "telemetry_fanout_enqueued_total"),
                  c.fanout_enqueued);
        EXPECT_EQ(counter_value(snap, "telemetry_fanout_dropped_total"),
                  c.fanout_dropped);
        EXPECT_EQ(counter_value(snap, "telemetry_fanout_coalesced_total"),
                  c.fanout_coalesced);
        EXPECT_EQ(counter_value(snap, "telemetry_fanout_filtered_total"),
                  c.filtered_out);
      });
}

}  // namespace
}  // namespace tagbreathe
