// Observability-layer benchmarks: the instrument primitives alone
// (counter add, histogram observe, trace record, snapshot + export) and
// the headline number — BM_ObsOverhead, the fully instrumented realtime
// pipeline against the bare one over the identical feed. The acceptance
// bar is < 3% regression vs BM_PipelineMultiUser (recorded in
// EXPERIMENTS.md from BENCH_obs.json).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/pipeline.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"

using namespace tagbreathe;

namespace {

core::ReadStream synthetic_reads(std::size_t users, double duration_s) {
  core::ReadStream reads;
  reads.reserve(users * 2 * static_cast<std::size_t>(duration_s * 8.0));
  for (double t = 0.0; t < duration_s; t += 0.125) {
    for (std::size_t u = 1; u <= users; ++u) {
      const double rate_hz = 0.15 + 0.1 * static_cast<double>(u % 5) / 5.0;
      for (std::uint32_t tag = 1; tag <= 2; ++tag) {
        core::TagRead r;
        r.time_s = t + 0.01 * static_cast<double>(tag);
        r.epc = rfid::Epc96::from_user_tag(u, tag);
        r.antenna_id = 1;
        r.frequency_hz = 920.625e6;
        r.rssi_dbm = -55.0;
        r.phase_rad = common::wrap_phase_2pi(
            1.0 + 0.35 * std::sin(common::kTwoPi * rate_hz * t +
                                  static_cast<double>(u + tag)));
        reads.push_back(r);
      }
    }
  }
  return reads;
}

// --- instrument primitives --------------------------------------------------

void BM_HistogramObserve(benchmark::State& state) {
  obs::Observability hub(64);
  obs::Histogram& h =
      hub.metrics().histogram("bench_seconds", obs::default_latency_bounds());
  double v = 1e-6;
  for (auto _ : state) {
    h.observe(v);
    v = v < 1.0 ? v * 1.7 : 1e-6;  // walk the buckets
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_TraceRecord(benchmark::State& state) {
  obs::Observability hub(4096);
  const std::uint16_t stage = hub.trace().register_stage("bench");
  double t = 0.0;
  for (auto _ : state) {
    hub.trace().record(stage, obs::SpanKind::Instant, t, 1);
    t += 0.001;
  }
  benchmark::DoNotOptimize(hub.trace().dropped());
}
BENCHMARK(BM_TraceRecord);

void BM_SnapshotExport(benchmark::State& state) {
  // Scrape cost on a realistically populated hub: a soaked pipeline's
  // worth of instruments plus a full trace ring, snapshotted and
  // rendered to Prometheus text.
  obs::Observability hub(4096);
  hub.use_deterministic_clock();
  core::RealtimePipeline pipeline{core::PipelineConfig{}};
  pipeline.bind_observability(hub);
  for (const auto& r : synthetic_reads(8, 30.0)) pipeline.push(r);
  for (auto _ : state) {
    const std::string text = obs::to_prometheus(hub.snapshot());
    benchmark::DoNotOptimize(text.data());
  }
}
BENCHMARK(BM_SnapshotExport)->Unit(benchmark::kMicrosecond);

// --- the headline: end-to-end overhead --------------------------------------

// Same feed and config as BM_PipelineMultiUser(users, threads=0, skip=0);
// range(1) toggles instrumentation. Overhead = time(bound=1) /
// time(bound=0) − 1, asserted < 3% in EXPERIMENTS.md.
void BM_ObsOverhead(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const bool bound = state.range(1) != 0;
  const auto reads = synthetic_reads(users, 30.0);
  for (auto _ : state) {
    obs::Observability hub(1 << 12);
    core::RealtimePipeline pipeline{core::PipelineConfig{}};
    if (bound) pipeline.bind_observability(hub);
    for (const auto& r : reads) pipeline.push(r);
    benchmark::DoNotOptimize(pipeline.tracked_users());
  }
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(reads.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ObsOverhead)
    ->ArgNames({"users", "bound"})
    ->ArgsProduct({{8, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main mirroring perf_pipeline: console output plus JSON into
// BENCH_obs.json (TAGBREATHE_BENCH_JSON or --benchmark_out override).
int main(int argc, char** argv) {
  const char* json_path = std::getenv("TAGBREATHE_BENCH_JSON");
  std::string out_flag = std::string("--benchmark_out=") +
                         (json_path != nullptr ? json_path : "BENCH_obs.json");
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
