// google-benchmark fleet coordinator benchmarks (ISSUE 6): the
// drain → validate → dedup/route → shard-execute → merge cycle at
// ward scale, across reader counts, shard counts and shard worker
// threads, plus the rebalance path under a mid-run reader kill.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_soak.hpp"

using namespace tagbreathe;

namespace {

core::ReadStream canned_population(std::size_t users, double duration_s,
                                   double rate_hz) {
  core::SoakConfig pop;
  pop.n_users = users;
  pop.tags_per_user = 1;
  pop.duration_s = duration_s;
  pop.read_rate_hz = rate_hz;
  return core::make_soak_population(pop);
}

/// Full coordinator cycle: N readers feeding M shards, pump at 4 Hz.
void BM_FleetFanout(benchmark::State& state) {
  const auto readers = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  constexpr std::size_t kUsers = 64;
  constexpr double kDuration = 20.0;
  const core::ReadStream reads = canned_population(kUsers, kDuration, 4.0);

  for (auto _ : state) {
    fleet::FleetConfig fc;
    fc.n_readers = readers;
    fc.n_shards = shards;
    fc.shard_threads = threads;
    fc.ingest.max_users = 0;
    fc.pipeline.window_s = 15.0;
    fc.pipeline.update_period_s = 1.0;
    fc.pipeline.warmup_s = 5.0;
    fleet::ReaderFleet fleet(fc, nullptr);
    double next_pump = 0.25;
    for (const core::TagRead& read : reads) {
      while (read.time_s >= next_pump) {
        fleet.pump(next_pump);
        next_pump += 0.25;
      }
      fleet.offer((read.epc.user_id() - 1) % readers, read);
    }
    fleet.pump(kDuration);
    benchmark::DoNotOptimize(fleet.counters().events);
  }
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(reads.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FleetFanout)
    ->ArgNames({"readers", "shards", "threads"})
    ->ArgsProduct({{4, 16}, {1, 8}, {0, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The soak harness end to end with a scripted mid-run reader kill:
/// what the CI fleet chaos-soak job pays per run, including the
/// rebalance/failover machinery.
void BM_FleetSoakWithKill(benchmark::State& state) {
  for (auto _ : state) {
    fleet::FleetSoakConfig cfg;
    cfg.n_readers = 8;
    cfg.n_users = 32;
    cfg.duration_s = 20.0;
    cfg.read_rate_hz = 2.0;
    cfg.fleet.n_shards = 4;
    cfg.fleet.ingest.max_users = 0;
    cfg.fleet.pipeline.window_s = 12.0;
    cfg.fleet.pipeline.warmup_s = 4.0;
    cfg.record_event_log = false;
    cfg.reader_chaos.push_back(
        core::ReaderChaosConfig::blackout(2, 8.0, 5.0, 23));
    const fleet::FleetSoakReport report = fleet::run_fleet_soak(cfg);
    benchmark::DoNotOptimize(report.event_log_hash);
  }
}
BENCHMARK(BM_FleetSoakWithKill)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: mirror results as JSON into BENCH_fleet.json (override
// with TAGBREATHE_BENCH_JSON or an explicit --benchmark_out) so CI and
// EXPERIMENTS.md keep a machine-readable fleet scaling record.
int main(int argc, char** argv) {
  const char* json_path = std::getenv("TAGBREATHE_BENCH_JSON");
  std::string out_flag = std::string("--benchmark_out=") +
                         (json_path != nullptr ? json_path : "BENCH_fleet.json");
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
