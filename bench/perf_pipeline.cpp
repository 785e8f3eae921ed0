// google-benchmark end-to-end benchmarks: full simulate+analyse trials
// and the analysis stage alone (the realtime budget that matters for a
// live deployment — the paper's pipeline ran in realtime on a laptop).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <memory>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "core/analysis_pool.hpp"
#include "core/ingest.hpp"
#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "experiments/runner.hpp"
#include "signal/simd/dispatch.hpp"

using namespace tagbreathe;

namespace {

core::ReadStream canned_reads(int users, double duration_s) {
  experiments::ScenarioConfig cfg;
  cfg.users.clear();
  for (int u = 0; u < users; ++u) {
    experiments::UserSpec user;
    user.rate_bpm = 10.0 + 2.0 * u;
    cfg.users.push_back(user);
  }
  cfg.duration_s = duration_s;
  cfg.seed = 11;
  experiments::Scenario scenario(cfg);
  return scenario.run();
}

void BM_SimulateTrial(benchmark::State& state) {
  // Full 120 s radio simulation (slot-level Gen2 + PHY).
  for (auto _ : state) {
    experiments::ScenarioConfig cfg;
    cfg.users = {experiments::UserSpec()};
    cfg.seed = 17;
    experiments::Scenario scenario(cfg);
    auto reads = scenario.run();
    benchmark::DoNotOptimize(reads.data());
  }
}
BENCHMARK(BM_SimulateTrial)->Unit(benchmark::kMillisecond);

void BM_AnalyzeWindow(benchmark::State& state) {
  const int users = static_cast<int>(state.range(0));
  const auto reads = canned_reads(users, 120.0);
  core::BreathMonitor monitor;
  for (auto _ : state) {
    auto analyses = monitor.analyze(reads);
    benchmark::DoNotOptimize(analyses.data());
  }
  state.counters["reads"] = static_cast<double>(reads.size());
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(reads.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_AnalyzeWindow)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_RealtimePipelineFeed(benchmark::State& state) {
  const auto reads = canned_reads(1, 120.0);
  for (auto _ : state) {
    core::PipelineConfig cfg;
    core::RealtimePipeline pipeline(cfg, nullptr);
    for (const auto& r : reads) pipeline.push(r);
    benchmark::DoNotOptimize(pipeline.tracked_users());
  }
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(reads.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RealtimePipelineFeed)->Unit(benchmark::kMillisecond);

void BM_IngestQueueThroughput(benchmark::State& state) {
  // Contended producers hammering the bounded MPSC ingest queue while
  // the benchmark thread drains — the reader-pump vs analysis hand-off
  // under burst overload. Reads shed by DropOldest still count as
  // processed work (that is the policy doing its job).
  const int producers = static_cast<int>(state.range(0));
  constexpr std::size_t kReadsPerProducer = 8192;
  core::TagRead read;
  read.epc = rfid::Epc96::from_user_tag(1, 1);
  read.phase_rad = 1.0;

  for (auto _ : state) {
    core::IngestQueue queue(1024, core::BackpressurePolicy::DropOldest);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&queue, read]() mutable {
        for (std::size_t i = 0; i < kReadsPerProducer; ++i) {
          read.time_s = static_cast<double>(i);
          queue.push(read);
        }
      });
    }
    std::vector<core::TagRead> out;
    const std::size_t total =
        static_cast<std::size_t>(producers) * kReadsPerProducer;
    std::size_t seen = 0;
    while (seen < total) {
      out.clear();
      queue.drain(out, 0.0);
      const auto counters = queue.counters();
      seen = counters.drained + counters.shed_oldest;
    }
    for (auto& t : threads) t.join();
    benchmark::DoNotOptimize(queue.counters().enqueued);
  }
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(producers) * kReadsPerProducer,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_IngestQueueThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- multi-user scaling: the parallel analysis engine -----------------------
//
// The canned radio simulation above is far too slow to populate 512
// users, so these benches synthesise the demux contents directly: per
// tag, an 8 Hz stream of phase samples breathing sinusoidally (the same
// population shape the chaos soak uses). What is timed is exactly the
// per-tick work the realtime engine fans out: analyze_user over every
// user, Fig. 10 end to end.

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

const core::StreamDemux& synthetic_demux(std::size_t users) {
  static std::map<std::size_t, std::unique_ptr<core::StreamDemux>> cache;
  auto& slot = cache[users];
  if (!slot) {
    slot = std::make_unique<core::StreamDemux>();
    for (const auto& r : synthetic_reads(users, 35.0)) slot->add(r);
  }
  return *slot;
}

void BM_AnalysisFanout(benchmark::State& state) {
  // One update tick of the analysis engine: analyze_user for every user
  // over a 30 s window, fanned across an AnalysisPool. range(0) = users,
  // range(1) = worker threads (0 = the serial engine).
  const auto users = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const core::StreamDemux& demux = synthetic_demux(users);
  core::BreathMonitor monitor;
  std::unique_ptr<core::AnalysisPool> pool;
  if (threads > 0) pool = std::make_unique<core::AnalysisPool>(threads);
  std::vector<core::AnalysisScratch> scratch(pool ? pool->slots() : 1);
  std::vector<core::UserAnalysis> results(users);
  const auto analyse_one = [&](std::size_t i, std::size_t slot) {
    results[i] = monitor.analyze_user(demux, static_cast<std::uint64_t>(i + 1),
                                      5.0, 35.0, &scratch[slot]);
  };
  for (auto _ : state) {
    if (pool) {
      pool->run(users, analyse_one);
    } else {
      for (std::size_t i = 0; i < users; ++i) analyse_one(i, 0);
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.counters["users/s"] = benchmark::Counter(
      static_cast<double>(users),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_AnalysisFanout)
    ->ArgNames({"users", "threads"})
    ->ArgsProduct({{1, 8, 64, 512}, {0, 1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AnalysisFanoutBatched(benchmark::State& state) {
  // The SIMD + batching curves the acceptance gate reads: the same
  // per-tick fan-out as BM_AnalysisFanout (serial engine) but driven
  // through analyze_users in `batch`-user chunks, with the kernel table
  // pinned to scalar (vector=0) or the probed vector level (vector=1).
  // batch:1 is the legacy per-user shape; outputs are bit-identical
  // across every row — only the time moves.
  const auto users = static_cast<std::size_t>(state.range(0));
  const bool vector = state.range(1) != 0;
  const auto batch = static_cast<std::size_t>(state.range(2));
  const auto want = vector ? signal::simd::detected_level()
                           : signal::simd::SimdLevel::Scalar;
  state.SetLabel(signal::simd::simd_level_name(
      signal::simd::override_level_for_testing(want)));
  const core::StreamDemux& demux = synthetic_demux(users);
  core::BreathMonitor monitor;
  core::AnalysisScratch scratch;
  std::vector<std::uint64_t> ids(users);
  for (std::size_t i = 0; i < users; ++i)
    ids[i] = static_cast<std::uint64_t>(i + 1);
  std::vector<core::UserAnalysis> results(users);
  for (auto _ : state) {
    for (std::size_t begin = 0; begin < users; begin += batch) {
      const std::size_t count = std::min(batch, users - begin);
      monitor.analyze_users(demux,
                            std::span<const std::uint64_t>(&ids[begin], count),
                            5.0, 35.0, &scratch,
                            std::span<core::UserAnalysis>(&results[begin], count));
    }
    benchmark::DoNotOptimize(results.data());
  }
  signal::simd::reset_dispatch_for_testing();
  state.counters["users/s"] = benchmark::Counter(
      static_cast<double>(users),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_AnalysisFanoutBatched)
    ->ArgNames({"users", "vector", "batch"})
    ->ArgsProduct({{64, 512, 1024}, {0, 1}, {1, 16}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- per-user window scan: dense beds vs sparse users ---------------------
//
// One analyze_users call over 16 users and a 30 s window (the demux
// holds just the window, as after the pipeline's eviction) through a
// warm scratch. Dense users are paper-shaped beds: 3 tags each read at
// ~70 Hz, round-robin over 4 antennas, so 12 (tag, antenna) streams and
// ~6300 in-window reads per user. Sparse users carry 1 tag at 1.5 Hz on
// one antenna. Both fuse to the same 601-sample track, so the
// dense / sparse time ratio isolates the work that grows with reads:
// the health scan, antenna scoring, preprocessing and fusion.

void add_bedside_users(core::StreamDemux& demux, std::uint32_t tags,
                       std::uint8_t antennas, double tag_hz) {
  constexpr std::uint64_t kUsers = 16;
  core::ReadStream reads;
  std::uint64_t jitter = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t u = 1; u <= kUsers; ++u) {
    const double rate_hz = 0.15 + 0.02 * static_cast<double>(u % 5);
    for (std::uint32_t tag = 1; tag <= tags; ++tag) {
      std::size_t k = 0;
      for (double t = 5.0 + 0.01 * static_cast<double>(u + tag); t < 35.0;
           ++k) {
        core::TagRead r;
        r.time_s = t;
        r.epc = rfid::Epc96::from_user_tag(u, tag);
        r.antenna_id = static_cast<std::uint8_t>(1 + k % antennas);
        r.frequency_hz = 920.625e6;
        r.rssi_dbm = -50.0 - static_cast<double>(r.antenna_id);
        r.phase_rad = common::wrap_phase_2pi(
            1.0 + 0.35 * std::sin(common::kTwoPi * rate_hz * t +
                                  static_cast<double>(u + tag)));
        reads.push_back(r);
        jitter = jitter * 6364136223846793005ull + 1442695040888963407ull;
        const double unit = static_cast<double>(jitter >> 11) * 0x1.0p-53;
        t += (0.5 + unit) / tag_hz;
      }
    }
  }
  // Readers report in time order, so each stream arrives time-ordered.
  std::stable_sort(reads.begin(), reads.end(),
                   [](const core::TagRead& a, const core::TagRead& b) {
                     return a.time_s < b.time_s;
                   });
  demux.add(reads);
}

void run_analyze_users(benchmark::State& state,
                       const core::StreamDemux& demux) {
  const std::vector<std::uint64_t>& ids = demux.users();
  core::BreathMonitor monitor;
  core::AnalysisScratch scratch;
  std::vector<core::UserAnalysis> results(ids.size());
  for (auto _ : state) {
    monitor.analyze_users(demux, ids, 5.0, 35.0, &scratch, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.counters["reads/user"] = static_cast<double>(demux.accepted_reads()) /
                                 static_cast<double>(ids.size());
}

void BM_AnalyzeUsersDense(benchmark::State& state) {
  core::StreamDemux demux;
  add_bedside_users(demux, 3, 4, 70.0);
  run_analyze_users(state, demux);
}
BENCHMARK(BM_AnalyzeUsersDense)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_AnalyzeUsersSparse(benchmark::State& state) {
  core::StreamDemux demux;
  add_bedside_users(demux, 1, 1, 1.5);
  run_analyze_users(state, demux);
}
BENCHMARK(BM_AnalyzeUsersSparse)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PipelineMultiUser(benchmark::State& state) {
  // The whole realtime pipeline fed a 30 s multi-user stream: ingest,
  // dirty-window bookkeeping, the parallel fan-out and the event state
  // machine. range(0) = users, range(1) = analysis threads, range(2) =
  // skip_clean_users.
  const auto users = static_cast<std::size_t>(state.range(0));
  const auto reads = synthetic_reads(users, 30.0);
  for (auto _ : state) {
    core::PipelineConfig cfg;
    cfg.analysis_threads = static_cast<std::size_t>(state.range(1));
    cfg.skip_clean_users = state.range(2) != 0;
    core::RealtimePipeline pipeline(cfg, nullptr);
    for (const auto& r : reads) pipeline.push(r);
    benchmark::DoNotOptimize(pipeline.tracked_users());
  }
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(reads.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PipelineMultiUser)
    ->ArgNames({"users", "threads", "skip"})
    ->ArgsProduct({{8, 64}, {0, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main: alongside the normal console output, mirror results as
// JSON into BENCH_pipeline.json (override the path with the
// TAGBREATHE_BENCH_JSON environment variable, or pass an explicit
// --benchmark_out, which takes precedence) so CI and EXPERIMENTS.md
// have a machine-readable scaling record. The defaults are injected as
// argv flags so the stock runner handles the file output.
int main(int argc, char** argv) {
  const char* json_path = std::getenv("TAGBREATHE_BENCH_JSON");
  std::string out_flag = std::string("--benchmark_out=") +
                         (json_path != nullptr ? json_path : "BENCH_pipeline.json");
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
