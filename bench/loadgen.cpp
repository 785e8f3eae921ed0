// Capacity load generator (ISSUE 10): replays a synthetic many-user
// fleet (or a recorded journal segment) through the real ingest →
// demux → pipeline stack at N× stream time, and reports the two
// numbers million-user sizing hangs off: resident bytes per tracked
// user and p99 update-tick latency. Curves land in BENCH_capacity.json
// (or --out / $TAGBREATHE_BENCH_JSON); --max-bytes-per-user and
// --max-p99-ms turn the measurements into CI gates via the exit code.
//
//   loadgen --users 100000                       # one point
//   loadgen --curve                              # 100k -> 1M sweep
//   loadgen --users 10000 --max-bytes-per-user 4096 --max-p99-ms 250
//   loadgen --journal /path/to/shard-000         # replay a segment
//
// Exit codes: 0 ok, 1 usage/environment error, 2 bytes-per-user gate
// failed, 3 p99 gate failed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hpp"
#include "core/pipeline.hpp"
#include "fleet/fleet.hpp"
#include "rfid/epc.hpp"

using namespace tagbreathe;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  std::vector<std::size_t> user_points = {100000};
  double duration_s = 12.0;
  double read_rate_hz = 0.5;
  double pump_period_s = 0.5;
  std::size_t n_readers = 16;
  std::size_t n_shards = 8;
  std::size_t shard_threads = 4;
  double speed = 0.0;  // N x stream time; 0 = unthrottled
  std::string journal_dir;
  std::string out_path;
  double max_bytes_per_user = 0.0;  // 0 = no gate
  double max_p99_ms = 0.0;          // 0 = no gate
};

struct Point {
  std::string mode;
  std::size_t users = 0;
  std::size_t reads = 0;
  std::size_t events = 0;
  double stream_s = 0.0;
  double wall_s = 0.0;
  double speedup_x = 0.0;
  double rss_mb = 0.0;
  double rss_bytes_per_user = 0.0;
  double footprint_bytes_per_user = 0.0;
  double p50_tick_ms = 0.0;
  double p99_tick_ms = 0.0;
  double max_tick_ms = 0.0;
  std::size_t registry_max_probe = 0;
  double arena_occupancy = 0.0;
};

/// VmRSS in bytes from /proc/self/status (0 if unavailable).
std::size_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

core::TagRead synth_read(std::uint64_t user, double t) {
  core::TagRead r;
  r.epc = rfid::Epc96::from_user_tag(user, 1);
  r.antenna_id = 1;
  r.time_s = t;
  r.frequency_hz = 920.625e6;
  // Distinct per-user breathing phase so analyses do real work.
  r.phase_rad =
      0.4 * std::sin(2.0 * 3.14159265358979 * t / 4.0 +
                     0.1 * static_cast<double>(user % 63));
  r.rssi_dbm = -55.0;
  return r;
}

void pace(double stream_s, double speed, Clock::time_point start) {
  if (speed <= 0.0) return;
  const auto target =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(stream_s / speed));
  std::this_thread::sleep_until(target);
}

/// Drives `users` synthetic users through a ReaderFleet for
/// `opts.duration_s` of stream time. Each user reads at read_rate_hz,
/// staggered uniformly across the rate period, so the users due in one
/// pump window form a contiguous (wrapping) index range — scheduling
/// stays O(due reads), not O(users), per pump.
Point run_fleet_point(const Options& opts, std::size_t users) {
  fleet::FleetConfig fc;
  fc.n_readers = opts.n_readers;
  fc.n_shards = opts.n_shards;
  fc.shard_threads = opts.shard_threads;
  fc.ingest.max_users = 0;
  fc.pipeline.max_users = 0;
  fc.pipeline.window_s = 12.0;
  fc.pipeline.update_period_s = 4.0;
  fc.pipeline.warmup_s = 4.0;
  // Queue depth sized to one pump window's offered load per reader,
  // with headroom — this bench measures capacity, not shedding.
  const double period_s = 1.0 / opts.read_rate_hz;
  const std::size_t per_pump_per_reader = static_cast<std::size_t>(
      static_cast<double>(users) / static_cast<double>(opts.n_readers) *
      opts.read_rate_hz * opts.pump_period_s);
  fc.ingest.queue_capacity = std::max<std::size_t>(4096, 4 * per_pump_per_reader);
  // Every reader hears traffic each pump; keep the health ladder from
  // firing on scheduling jitter anyway.
  fc.degraded_after_windows = 1000000;
  fc.dead_after_windows = 2000000;

  Point point;
  point.mode = "fleet";
  point.users = users;
  point.stream_s = opts.duration_s;

  const std::size_t rss_before = resident_bytes();
  std::size_t events = 0;
  fleet::ReaderFleet fleet(fc, [&](const fleet::FleetEvent&) { ++events; });

  std::vector<double> pump_ms;
  pump_ms.reserve(static_cast<std::size_t>(opts.duration_s /
                                           opts.pump_period_s) + 2);
  const auto wall_start = Clock::now();
  std::size_t offered = 0;
  for (double t = 0.0; t <= opts.duration_s + 1e-9; t += opts.pump_period_s) {
    // Users due in [t, t + pump_period): stagger offset u*period/users.
    const double cycle = std::fmod(t, period_s);
    const double du = static_cast<double>(users) / period_s;
    std::size_t lo = static_cast<std::size_t>(std::ceil(cycle * du));
    std::size_t hi = static_cast<std::size_t>(
        std::ceil(std::min(cycle + opts.pump_period_s, period_s) * du));
    hi = std::min(hi, users);
    for (std::size_t u = lo; u < hi; ++u) {
      const double offset = static_cast<double>(u) / du;
      const double read_t = t - cycle + offset;
      if (read_t < 0.0 || read_t > opts.duration_s) continue;
      const std::uint64_t user = static_cast<std::uint64_t>(u) + 1;
      fleet.offer(user % opts.n_readers, synth_read(user, read_t), t);
      ++offered;
    }
    const auto pump_start = Clock::now();
    fleet.pump(t);
    pump_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - pump_start)
            .count());
    pace(t, opts.speed, wall_start);
  }
  point.wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  const std::size_t rss_after = resident_bytes();
  point.reads = offered;
  point.events = events;
  point.speedup_x = point.wall_s > 0.0 ? point.stream_s / point.wall_s : 0.0;
  point.rss_mb = static_cast<double>(rss_after) / (1024.0 * 1024.0);
  const std::size_t tracked = fleet.tracked_users();
  if (tracked > 0) {
    point.rss_bytes_per_user =
        static_cast<double>(rss_after - std::min(rss_after, rss_before)) /
        static_cast<double>(tracked);
    std::size_t footprint = 0;
    for (std::size_t s = 0; s < fc.n_shards; ++s) {
      const core::RealtimePipeline& pipeline = fleet.shard_pipeline(s);
      footprint += pipeline.footprint_bytes();
      point.registry_max_probe =
          std::max(point.registry_max_probe, pipeline.registry_max_probe());
      point.arena_occupancy = std::max(point.arena_occupancy,
                                       pipeline.demux().arena_occupancy());
    }
    point.footprint_bytes_per_user =
        static_cast<double>(footprint) / static_cast<double>(tracked);
  }
  point.p50_tick_ms = percentile(pump_ms, 0.50);
  point.p99_tick_ms = percentile(pump_ms, 0.99);
  point.max_tick_ms = pump_ms.empty()
                          ? 0.0
                          : *std::max_element(pump_ms.begin(), pump_ms.end());
  return point;
}

/// Replays every intact record of a shard journal directory through a
/// single RealtimePipeline, timing each update-period chunk of pushes.
Point run_journal_point(const Options& opts) {
  std::vector<core::TagRead> reads;
  const core::JournalScanResult scan = core::scan_journal(
      opts.journal_dir, 0,
      [&](const core::JournalRecord& record) { reads.push_back(record.read); });

  Point point;
  point.mode = "journal";
  point.reads = reads.size();
  if (reads.empty()) {
    std::cerr << "loadgen: no intact records in " << opts.journal_dir
              << " (delivered=" << scan.delivered << ")\n";
    return point;
  }

  core::PipelineConfig pc;
  pc.window_s = 12.0;
  pc.update_period_s = 4.0;
  pc.warmup_s = 4.0;
  std::size_t events = 0;
  core::RealtimePipeline pipeline(pc,
                                  [&](const core::PipelineEvent&) { ++events; });

  const std::size_t rss_before = resident_bytes();
  const double t0 = reads.front().time_s;
  std::vector<double> chunk_ms;
  const auto wall_start = Clock::now();
  std::size_t i = 0;
  double chunk_end = t0 + pc.update_period_s;
  while (i < reads.size()) {
    const auto chunk_start = Clock::now();
    while (i < reads.size() && reads[i].time_s <= chunk_end) {
      pipeline.push(reads[i]);
      ++i;
    }
    pipeline.advance_to(chunk_end);
    chunk_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - chunk_start)
            .count());
    pace(chunk_end - t0, opts.speed, wall_start);
    chunk_end += pc.update_period_s;
  }
  point.wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  const std::size_t rss_after = resident_bytes();
  point.users = pipeline.tracked_users();
  point.events = events;
  point.stream_s = reads.back().time_s - t0;
  point.speedup_x = point.wall_s > 0.0 ? point.stream_s / point.wall_s : 0.0;
  point.rss_mb = static_cast<double>(rss_after) / (1024.0 * 1024.0);
  if (point.users > 0) {
    point.rss_bytes_per_user =
        static_cast<double>(rss_after - std::min(rss_after, rss_before)) /
        static_cast<double>(point.users);
    point.footprint_bytes_per_user =
        static_cast<double>(pipeline.footprint_bytes()) /
        static_cast<double>(point.users);
  }
  point.registry_max_probe = pipeline.registry_max_probe();
  point.arena_occupancy = pipeline.demux().arena_occupancy();
  point.p50_tick_ms = percentile(chunk_ms, 0.50);
  point.p99_tick_ms = percentile(chunk_ms, 0.99);
  point.max_tick_ms = chunk_ms.empty()
                          ? 0.0
                          : *std::max_element(chunk_ms.begin(), chunk_ms.end());
  return point;
}

void write_json(const std::vector<Point>& points, const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"capacity_loadgen\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\"mode\": \"" << p.mode << "\", \"users\": " << p.users
        << ", \"reads\": " << p.reads << ", \"events\": " << p.events
        << ", \"stream_s\": " << p.stream_s << ", \"wall_s\": " << p.wall_s
        << ", \"speedup_x\": " << p.speedup_x << ", \"rss_mb\": " << p.rss_mb
        << ", \"rss_bytes_per_user\": " << p.rss_bytes_per_user
        << ", \"footprint_bytes_per_user\": " << p.footprint_bytes_per_user
        << ", \"p50_tick_ms\": " << p.p50_tick_ms
        << ", \"p99_tick_ms\": " << p.p99_tick_ms
        << ", \"max_tick_ms\": " << p.max_tick_ms
        << ", \"registry_max_probe\": " << p.registry_max_probe
        << ", \"arena_occupancy\": " << p.arena_occupancy << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::ofstream file(path);
  file << out.str();
  std::cout << out.str();
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--users") {  // one count or a comma-separated curve
      const char* v = next();
      if (v == nullptr) return false;
      opts.user_points.clear();
      std::istringstream list(v);
      std::string item;
      while (std::getline(list, item, ',')) {
        opts.user_points.push_back(
            static_cast<std::size_t>(std::strtoull(item.c_str(), nullptr, 10)));
      }
      if (opts.user_points.empty()) return false;
    } else if (arg == "--curve") {
      opts.user_points = {100000, 250000, 500000, 1000000};
    } else if (arg == "--duration") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.duration_s = std::strtod(v, nullptr);
    } else if (arg == "--rate") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.read_rate_hz = std::strtod(v, nullptr);
    } else if (arg == "--readers") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.n_readers = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.n_shards = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.shard_threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--speed") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.speed = std::strtod(v, nullptr);
    } else if (arg == "--journal") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.journal_dir = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.out_path = v;
    } else if (arg == "--max-bytes-per-user") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.max_bytes_per_user = std::strtod(v, nullptr);
    } else if (arg == "--max-p99-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.max_p99_ms = std::strtod(v, nullptr);
    } else {
      std::cerr << "loadgen: unknown flag " << arg << "\n";
      return false;
    }
  }
  if (opts.out_path.empty()) {
    const char* env = std::getenv("TAGBREATHE_BENCH_JSON");
    opts.out_path = env != nullptr ? env : "BENCH_capacity.json";
  }
  return opts.read_rate_hz > 0.0 && opts.duration_s > 0.0 &&
         opts.n_readers > 0 && opts.n_shards > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::cerr << "usage: loadgen [--users N | --curve] [--duration S] "
                 "[--rate HZ]\n               [--readers N] [--shards N] "
                 "[--threads N] [--speed X]\n               [--journal DIR] "
                 "[--out PATH] [--max-bytes-per-user B] [--max-p99-ms M]\n";
    return 1;
  }

  std::vector<Point> points;
  if (!opts.journal_dir.empty()) {
    points.push_back(run_journal_point(opts));
  } else {
    for (const std::size_t users : opts.user_points) {
      std::cerr << "loadgen: fleet point, " << users << " users...\n";
      points.push_back(run_fleet_point(opts, users));
      std::cerr << "loadgen: " << users << " users -> "
                << points.back().rss_bytes_per_user << " rss B/user, p99 "
                << points.back().p99_tick_ms << " ms ("
                << points.back().speedup_x << "x stream time)\n";
    }
  }
  write_json(points, opts.out_path);

  for (const Point& p : points) {
    if (opts.max_bytes_per_user > 0.0 &&
        p.rss_bytes_per_user > opts.max_bytes_per_user) {
      std::cerr << "loadgen: GATE FAILED: " << p.rss_bytes_per_user
                << " rss bytes/user > budget " << opts.max_bytes_per_user
                << " at " << p.users << " users\n";
      return 2;
    }
    if (opts.max_p99_ms > 0.0 && p.p99_tick_ms > opts.max_p99_ms) {
      std::cerr << "loadgen: GATE FAILED: p99 tick " << p.p99_tick_ms
                << " ms > bound " << opts.max_p99_ms << " ms at " << p.users
                << " users\n";
      return 3;
    }
  }
  return 0;
}
