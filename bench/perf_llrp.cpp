// google-benchmark: llrp-lite wire codec throughput — the per-read cost
// of the SDK boundary (encode on the reader, frame + decode on the host),
// plus the fault path: what corruption injection and framer resync cost
// when the robustness machinery is actually exercised.
#include <benchmark/benchmark.h>

#include "llrp/fault_channel.hpp"
#include "llrp/message.hpp"
#include "llrp/params.hpp"
#include "llrp/transport.hpp"

using namespace tagbreathe;

namespace {

std::vector<llrp::TagReportEntry> batch(std::size_t n) {
  std::vector<llrp::TagReportEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    core::TagRead r;
    r.epc = rfid::Epc96::from_user_tag(1 + i % 4,
                                       static_cast<std::uint32_t>(i % 3));
    r.time_s = static_cast<double>(i) * 0.016;
    r.antenna_id = static_cast<std::uint8_t>(1 + i % 2);
    r.channel_index = static_cast<std::uint16_t>(i % 10);
    r.rssi_dbm = -60.0;
    r.phase_rad = 1.5;
    r.doppler_hz = 0.25;
    entries.push_back(llrp::to_wire(r));
  }
  return entries;
}

void BM_EncodeTagReports(benchmark::State& state) {
  const auto entries = batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto body = llrp::encode_tag_reports(entries);
    benchmark::DoNotOptimize(body.data());
  }
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(entries.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_EncodeTagReports)->Arg(8)->Arg(64)->Arg(512);

void BM_DecodeTagReports(benchmark::State& state) {
  const auto body =
      llrp::encode_tag_reports(batch(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto entries = llrp::decode_tag_reports(body);
    benchmark::DoNotOptimize(entries.data());
  }
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DecodeTagReports)->Arg(8)->Arg(64)->Arg(512);

void BM_FramerRoundTrip(benchmark::State& state) {
  llrp::Message m;
  m.type = llrp::MessageType::RoAccessReport;
  m.body = llrp::encode_tag_reports(batch(64));
  const auto wire = llrp::encode_message(m);
  for (auto _ : state) {
    llrp::MessageFramer framer;
    framer.feed(wire);
    llrp::Message out;
    framer.next(out);
    benchmark::DoNotOptimize(out.body.data());
  }
}
BENCHMARK(BM_FramerRoundTrip);

// Fault-injection overhead: a report-sized frame pushed through the
// FaultyChannel under a corruption-heavy plan. This is the per-byte tax
// every transported byte pays when fault injection is armed (the
// quiet-plan fast path short-circuits to the inner channel).
void BM_FaultyChannelWrite(benchmark::State& state) {
  llrp::Message m;
  m.type = llrp::MessageType::RoAccessReport;
  m.body = llrp::encode_tag_reports(batch(64));
  const auto wire = llrp::encode_message(m);

  llrp::DuplexChannel inner;
  llrp::FaultPlan plan;
  plan.seed = 99;
  plan.byte_drop_prob = 0.001;
  plan.bit_flip_prob = 0.01;
  plan.latency_burst_prob = 0.02;
  plan.latency_s = 0.1;
  llrp::FaultyChannel channel(inner, plan);
  double now = 0.0;
  for (auto _ : state) {
    channel.write(llrp::Side::Client, wire);
    now += 0.05;
    channel.advance_to(now);  // release latency holds
    auto out = inner.read(llrp::Side::Reader);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(wire.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FaultyChannelWrite);

// Resync throughput: a multi-frame stream with every other header
// corrupted. The framer must skip to the next plausible header each
// time — the worst-case steady state of a noisy wire, and the path a
// hostile stream drives hardest.
void BM_FramerResyncCorrupted(benchmark::State& state) {
  llrp::Message m;
  m.type = llrp::MessageType::RoAccessReport;
  m.body = llrp::encode_tag_reports(batch(8));
  const auto frame = llrp::encode_message(m);

  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 32; ++i) {
    const std::size_t at = stream.size();
    stream.insert(stream.end(), frame.begin(), frame.end());
    if (i % 2 == 0) stream[at] ^= 0xFF;  // wreck the version/type byte
  }
  for (auto _ : state) {
    llrp::MessageFramer framer;
    framer.feed(stream);
    llrp::Message out;
    std::size_t decoded = 0;
    while (framer.next(out)) ++decoded;
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(stream.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FramerResyncCorrupted);

}  // namespace

BENCHMARK_MAIN();
