// google-benchmark telemetry benchmarks (ISSUE 7): EventBus fan-out
// into mixed-filter/mixed-policy subscriber pools, the framed wire
// codec round trip, and a full TelemetryService pump over in-memory
// connections — the per-event cost ceiling the ward dashboard pays.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "llrp/transport.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/service.hpp"
#include "telemetry/wire.hpp"

using namespace tagbreathe;
using namespace tagbreathe::telemetry;

namespace {

constexpr std::size_t kUsers = 64;
constexpr std::size_t kShards = 4;

core::PipelineEvent canned_event(std::size_t i) {
  core::PipelineEvent e;
  e.kind = i % 97 == 0 ? core::PipelineEventKind::ApneaAlert
                       : core::PipelineEventKind::RateUpdate;
  e.user_id = static_cast<std::uint64_t>(i % kUsers) + 1;
  e.time_s = 0.01 * static_cast<double>(i);
  e.rate_bpm = 12.0;
  e.reliable = true;
  e.health = core::SignalHealth::Ok;
  return e;
}

FilterSpec filter_of(std::size_t i) {
  switch (i % 4) {
    case 0: return {FilterKind::All, 0};
    case 1: return {FilterKind::User, static_cast<std::uint64_t>(i % kUsers) + 1};
    case 2: return {FilterKind::Ward, static_cast<std::uint64_t>(i % 8)};
    default: return {FilterKind::AlarmOnly, 0};
  }
}

/// Publish -> filter -> bounded-enqueue -> drain across a subscriber
/// pool cycling all filters and overflow policies.
void BM_TelemetryFanout(benchmark::State& state) {
  const auto subscribers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEvents = 1 << 14;
  const auto ward_of = [](std::uint64_t user) {
    return static_cast<std::uint32_t>((user - 1) / 8);
  };

  for (auto _ : state) {
    EventBusConfig cfg;
    cfg.queue_capacity = 128;
    EventBus bus(cfg, ward_of);
    std::vector<std::uint64_t> subs;
    subs.reserve(subscribers);
    for (std::size_t i = 0; i < subscribers; ++i)
      subs.push_back(bus.subscribe(
          filter_of(i), static_cast<OverflowPolicy>(i % kOverflowPolicyCount)));

    std::vector<TelemetryEvent> out;
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
      bus.publish(static_cast<std::uint16_t>(i % kShards), canned_event(i));
      if ((i & 255u) == 255u) {
        bus.tick();
        for (const std::uint64_t id : subs) {
          out.clear();
          delivered += bus.drain(id, out, 256).delivered;
        }
      }
    }
    bus.tick();
    for (const std::uint64_t id : subs) {
      out.clear();
      delivered += bus.drain(id, out, 1 << 20).delivered;
    }
    benchmark::DoNotOptimize(delivered);
    benchmark::DoNotOptimize(bus.counters().fanout_enqueued);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(kEvents),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_TelemetryFanout)
    ->ArgName("subscribers")
    ->Arg(16)
    ->Arg(256)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Encode + reparse the Event frame (the hot frame type) through the
/// incremental FrameParser.
void BM_WireCodec(benchmark::State& state) {
  constexpr std::size_t kFrames = 1 << 12;
  std::vector<Frame> frames;
  frames.reserve(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i)
    frames.push_back(EventFrame{make_event(i + 1, i % kShards,
                                           canned_event(i))});

  for (auto _ : state) {
    FrameParser parser;
    std::size_t parsed = 0;
    for (const Frame& frame : frames) {
      const std::vector<std::uint8_t> bytes = encode_frame(frame);
      parser.feed(bytes);
      while (parser.next()) ++parsed;
    }
    benchmark::DoNotOptimize(parsed);
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(kFrames),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_WireCodec)->Unit(benchmark::kMillisecond);

/// End-to-end service pump: framed subscribers on in-memory channels,
/// publishes interleaved with pumps — what the CI soak job pays per
/// pump at dashboard scale.
void BM_ServicePump(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEvents = 1 << 12;
  const auto ward_of = [](std::uint64_t user) {
    return static_cast<std::uint32_t>((user - 1) / 8);
  };

  for (auto _ : state) {
    TelemetryServiceConfig cfg;
    cfg.bus.queue_capacity = 128;
    cfg.heartbeat_timeout_s = 0.0;  // no timeouts in the hot loop
    TelemetryService service(cfg, ward_of);
    std::vector<std::unique_ptr<llrp::DuplexChannel>> channels;
    channels.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
      channels.push_back(std::make_unique<llrp::DuplexChannel>());
      llrp::DuplexChannel& ch = *channels.back();
      service.accept(ch, 0.0);
      ch.write(llrp::Side::Client,
               encode_frame(SubscribeFrame{filter_of(i),
                                           OverflowPolicy::DropOldest, 0}));
    }
    service.pump(0.0);

    double now = 0.0;
    for (std::size_t i = 0; i < kEvents; ++i) {
      service.bus().publish(static_cast<std::uint16_t>(i % kShards),
                            canned_event(i));
      if ((i & 127u) == 127u) {
        now += 0.25;
        service.pump(now);
        // Clients consume so send-side backpressure never parks them.
        for (auto& ch : channels) ch->read(llrp::Side::Client);
      }
    }
    service.pump(now + 0.25);
    benchmark::DoNotOptimize(service.counters().events_sent);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(kEvents),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ServicePump)
    ->ArgName("clients")
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main: mirror results as JSON into BENCH_telemetry.json
// (override with TAGBREATHE_BENCH_JSON or an explicit --benchmark_out)
// so CI keeps a machine-readable fan-out scaling record.
int main(int argc, char** argv) {
  const char* json_path = std::getenv("TAGBREATHE_BENCH_JSON");
  std::string out_flag =
      std::string("--benchmark_out=") +
      (json_path != nullptr ? json_path : "BENCH_telemetry.json");
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
