// google-benchmark microbenchmarks for the durability layer: the
// journal append hot path (runs inline with ingest, so its cost is
// pure overhead on every admitted read), snapshot serialization +
// atomic write, and full recovery (snapshot load + journal replay) —
// the numbers behind the fsync policy and the EXPERIMENTS.md
// recovery-time record.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/journal.hpp"
#include "core/recovery.hpp"
#include "core/snapshot.hpp"

using namespace tagbreathe;
namespace fs = std::filesystem;

namespace {

/// Unique scratch directory under the system temp dir, removed on exit.
struct BenchDir {
  fs::path path;
  explicit BenchDir(const std::string& tag) {
    static unsigned counter = 0;
    path = fs::temp_directory_path() /
           ("tagbreathe_bench_" + std::to_string(::getpid()) + "_" + tag + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~BenchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

core::ReadStream breathing_population(std::size_t users, double duration_s) {
  core::ReadStream reads;
  for (double t = 0.0; t < duration_s; t += 0.125) {
    for (std::size_t u = 1; u <= users; ++u) {
      const double rate_hz = 0.15 + 0.02 * static_cast<double>(u % 5);
      core::TagRead r;
      r.time_s = t + 0.001 * static_cast<double>(u);
      r.epc = rfid::Epc96::from_user_tag(u, 1);
      r.antenna_id = 1;
      r.frequency_hz = 920.625e6;
      r.rssi_dbm = -55.0;
      r.phase_rad = common::wrap_phase_2pi(
          1.0 + 0.35 * std::sin(common::kTwoPi * rate_hz * t +
                                static_cast<double>(u)));
      reads.push_back(r);
    }
  }
  return reads;
}

void BM_JournalAppend(benchmark::State& state) {
  // Append + group commit of a batch of reads; range(0) = commit batch,
  // range(1) = fsync_on_commit. This is the per-read durability tax.
  const auto reads = breathing_population(4, 30.0);
  BenchDir dir("journal_append");
  core::JournalConfig cfg;
  cfg.directory = dir.path.string();
  cfg.segment_max_bytes = 8u << 20;
  cfg.commit_batch = static_cast<std::size_t>(state.range(0));
  cfg.fsync_on_commit = state.range(1) != 0;
  core::JournalWriter writer(cfg);
  for (auto _ : state) {
    for (const auto& r : reads) writer.append(r);
    writer.commit();
    benchmark::DoNotOptimize(writer.last_committed_seq());
  }
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(reads.size()),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes/read"] =
      static_cast<double>(writer.counters().journal_bytes_written) /
      static_cast<double>(writer.counters().journal_records_appended);
}
BENCHMARK(BM_JournalAppend)
    ->ArgNames({"batch", "fsync"})
    ->ArgsProduct({{1, 64, 256}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

core::SnapshotData snapshot_fixture(std::size_t users) {
  core::PipelineConfig pcfg;
  pcfg.window_s = 30.0;
  core::RealtimePipeline pipeline(pcfg, nullptr);
  core::IngestConfig icfg;
  icfg.max_users = users;
  core::ReadValidator validator(icfg);
  for (core::TagRead read : breathing_population(users, 35.0)) {
    if (validator.admit(read).admitted) pipeline.push(read);
  }
  core::SnapshotData data;
  data.last_journal_seq = 1000;
  data.now_s = pipeline.now_s();
  data.pipeline = pipeline.export_state();
  data.validator = validator.export_state();
  return data;
}

void BM_SnapshotWrite(benchmark::State& state) {
  // Serialize + atomic temp/rename write of a populated pipeline state;
  // range(0) = users in the window, range(1) = fsync.
  const auto users = static_cast<std::size_t>(state.range(0));
  const core::SnapshotData data = snapshot_fixture(users);
  BenchDir dir("snapshot_write");
  core::SnapshotConfig cfg;
  cfg.directory = dir.path.string();
  cfg.fsync = state.range(1) != 0;
  core::SnapshotWriter writer(cfg);
  for (auto _ : state) {
    // Distinct seq per write so retention (keep=2) exercises pruning.
    core::SnapshotData copy = data;
    copy.last_journal_seq = writer.counters().snapshots_written + 1;
    writer.write(copy);
    benchmark::DoNotOptimize(writer.counters().snapshot_bytes_written);
  }
  state.counters["bytes"] =
      static_cast<double>(writer.counters().snapshot_bytes_written) /
      static_cast<double>(writer.counters().snapshots_written);
}
BENCHMARK(BM_SnapshotWrite)
    ->ArgNames({"users", "fsync"})
    ->ArgsProduct({{1, 8, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Recovery(benchmark::State& state) {
  // Cold restart after a clean run: newest-snapshot load + journal tail
  // replay through ingest validation into the pipeline. range(0) =
  // users, range(1) = seconds of journal tail past the last snapshot.
  const auto users = static_cast<std::size_t>(state.range(0));
  const double tail_s = static_cast<double>(state.range(1));
  BenchDir dir("recovery");
  core::DurabilityConfig dcfg;
  dcfg.directory = dir.path.string();
  dcfg.snapshot_period_s = 1e9;  // snapshot only at the explicit checkpoint
  dcfg.snapshot.fsync = false;
  dcfg.journal.segment_max_bytes = 8u << 20;
  core::IngestConfig icfg;
  icfg.max_users = users;
  core::PipelineConfig pcfg;
  pcfg.window_s = 30.0;

  const auto reads = breathing_population(users, 40.0 + tail_s);
  {
    core::DurableMonitor monitor(dcfg, icfg, pcfg, nullptr);
    double next_pump = 0.25;
    for (const auto& r : reads) {
      while (r.time_s >= next_pump) {
        monitor.pump(next_pump);
        next_pump += 0.25;
      }
      monitor.offer(r, r.time_s);
      if (r.time_s >= 40.0 && monitor.counters().snapshots_written == 0)
        monitor.checkpoint();
    }
    monitor.flush();
  }

  std::uint64_t replayed = 0;
  for (auto _ : state) {
    core::DurableMonitor monitor(dcfg, icfg, pcfg, nullptr);
    replayed = monitor.recovery().replayed_reads;
    benchmark::DoNotOptimize(monitor.recovery().snapshot_loaded);
  }
  state.counters["replayed_reads"] = static_cast<double>(replayed);
}
BENCHMARK(BM_Recovery)
    ->ArgNames({"users", "tail_s"})
    ->ArgsProduct({{1, 8}, {10, 60}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main: mirror results as JSON into BENCH_durability.json
// (override via TAGBREATHE_BENCH_JSON or an explicit --benchmark_out)
// so the CI bench smoke step and EXPERIMENTS.md have a machine-readable
// durability-overhead record.
int main(int argc, char** argv) {
  const char* json_path = std::getenv("TAGBREATHE_BENCH_JSON");
  std::string out_flag =
      std::string("--benchmark_out=") +
      (json_path != nullptr ? json_path : "BENCH_durability.json");
  std::string format_flag = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  args.push_back(out_flag.data());
  args.push_back(format_flag.data());
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
