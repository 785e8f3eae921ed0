// Live telemetry service (ISSUE 7): wire-protocol framing and malformed
// stream rejection, EventBus conservation law / overflow policies /
// Up-Lagging-Shed ladder / resume-cursor replay, TelemetryService
// subscribe-stream-heartbeat-shed lifecycle + HTTP scrape endpoint,
// TelemetryClient reconnect with jittered backoff, the TSan
// publish-vs-drain race, and the 10k-subscriber chaos soak with the
// baseline-hash non-interference gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos.hpp"
#include "llrp/fault_channel.hpp"
#include "llrp/transport.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "telemetry/client.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/service.hpp"
#include "telemetry/telemetry_soak.hpp"
#include "telemetry/wire.hpp"

#include "byte_mutation.hpp"

using namespace tagbreathe;
using namespace tagbreathe::telemetry;

namespace {

core::PipelineEvent make_pipeline_event(
    std::uint64_t user, double t,
    core::PipelineEventKind kind = core::PipelineEventKind::RateUpdate,
    double rate = 12.0) {
  core::PipelineEvent e;
  e.kind = kind;
  e.user_id = user;
  e.time_s = t;
  e.rate_bpm = rate;
  e.reliable = true;
  e.health = core::SignalHealth::Ok;
  return e;
}

/// Hand-rolled wire peer: the client half of a channel, frame-level.
struct WirePeer {
  llrp::DuplexChannel channel;
  FrameParser parser;

  void send(const Frame& frame) {
    channel.write(llrp::Side::Client, encode_frame(frame));
  }
  std::vector<Frame> recv() {
    parser.feed(channel.read(llrp::Side::Client));
    std::vector<Frame> frames;
    while (auto f = parser.next()) frames.push_back(std::move(*f));
    return frames;
  }
};

// ---------------------------------------------------------------------------
// Wire protocol

TEST(WireProtocol, RoundTripsEveryFrameType) {
  SubscribeFrame sub;
  sub.filter = {FilterKind::Ward, 7};
  sub.policy = OverflowPolicy::CoalescePerUser;
  sub.resume_cursor = 41;
  HeartbeatFrame hb{12.5};
  SubAckFrame ack{9, 42, 5, 3};
  EventFrame ev;
  ev.event = make_event(1234, 3,
                        make_pipeline_event(17, 6.25,
                                            core::PipelineEventKind::ApneaAlert,
                                            0.0));
  GapFrame gap{100, 13};
  ShedFrame shed{ShedReason::HeartbeatTimeout};

  FrameParser parser;
  for (const Frame frame :
       {Frame{sub}, Frame{hb}, Frame{ack}, Frame{ev}, Frame{gap},
        Frame{shed}})
    parser.feed(encode_frame(frame));

  const auto got_sub = parser.next();
  ASSERT_TRUE(got_sub.has_value());
  const auto& s = std::get<SubscribeFrame>(*got_sub);
  EXPECT_EQ(s.filter.kind, FilterKind::Ward);
  EXPECT_EQ(s.filter.id, 7u);
  EXPECT_EQ(s.policy, OverflowPolicy::CoalescePerUser);
  EXPECT_EQ(s.resume_cursor, 41u);

  EXPECT_DOUBLE_EQ(std::get<HeartbeatFrame>(*parser.next()).client_time_s,
                   12.5);

  const auto a = std::get<SubAckFrame>(*parser.next());
  EXPECT_EQ(a.subscription_id, 9u);
  EXPECT_EQ(a.next_seq, 42u);
  EXPECT_EQ(a.replayed, 5u);
  EXPECT_EQ(a.gap, 3u);

  const auto e = std::get<EventFrame>(*parser.next()).event;
  EXPECT_EQ(e.seq, 1234u);
  EXPECT_EQ(e.shard, 3u);
  EXPECT_EQ(e.kind, core::PipelineEventKind::ApneaAlert);
  EXPECT_EQ(e.user_id, 17u);
  EXPECT_DOUBLE_EQ(e.time_s, 6.25);
  EXPECT_TRUE(e.reliable);

  const auto g = std::get<GapFrame>(*parser.next());
  EXPECT_EQ(g.next_seq, 100u);
  EXPECT_EQ(g.dropped, 13u);

  EXPECT_EQ(std::get<ShedFrame>(*parser.next()).reason,
            ShedReason::HeartbeatTimeout);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(WireProtocol, ReassemblesAcrossArbitraryChunking) {
  std::vector<std::uint8_t> stream;
  constexpr std::size_t kFrames = 50;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto bytes = encode_frame(
        EventFrame{make_event(i + 1, 0, make_pipeline_event(1, 0.1 * i))});
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  // One byte at a time — the cruellest chunking.
  FrameParser parser;
  std::size_t parsed = 0;
  std::uint64_t last_seq = 0;
  for (const std::uint8_t byte : stream) {
    parser.feed(std::span<const std::uint8_t>(&byte, 1));
    while (auto frame = parser.next()) {
      const auto& event = std::get<EventFrame>(*frame).event;
      EXPECT_EQ(event.seq, last_seq + 1);
      last_seq = event.seq;
      ++parsed;
    }
  }
  EXPECT_EQ(parsed, kFrames);
}

TEST(WireProtocol, RejectsMalformedStreams) {
  const auto expect_decode_error = [](std::vector<std::uint8_t> bytes) {
    FrameParser parser;
    parser.feed(bytes);
    EXPECT_THROW(
        {
          while (parser.next().has_value()) {
          }
        },
        llrp::DecodeError);
  };
  // Bad magic ('T' then wrong second byte — still classified framed).
  expect_decode_error({0x54, 0x00, 1, 1, 0, 0, 0, 0});
  // Bad version.
  expect_decode_error({0x54, 0x42, 99, 2, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0});
  // Unknown frame type.
  expect_decode_error({0x54, 0x42, 1, 77, 0, 0, 0, 0});
  // Oversized payload length.
  expect_decode_error({0x54, 0x42, 1, 2, 0xFF, 0xFF, 0xFF, 0xFF});
  // Shed frame with an out-of-range reason.
  expect_decode_error({0x54, 0x42, 1, 6, 0, 0, 0, 1, 200});
  // Trailing byte after a valid Shed payload.
  expect_decode_error({0x54, 0x42, 1, 6, 0, 0, 0, 2, 0, 0});
  // Truncated: a valid prefix must simply wait for more bytes, not throw.
  FrameParser parser;
  const auto bytes = encode_frame(HeartbeatFrame{1.0});
  parser.feed(std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1));
  EXPECT_FALSE(parser.next().has_value());
  parser.feed(std::span<const std::uint8_t>(&bytes.back(), 1));
  EXPECT_TRUE(parser.next().has_value());
}

// Seeded mutation, modelled on LoadReadsCsvFuzz in test_durability: a
// stream holding every frame type takes one byte_mutation.hpp mutation
// per case, then is fed in random chunks. Only frames, nullopt or
// llrp::DecodeError may come out, and every frame that ends before the
// damaged byte still parses.
TEST(WireProtocol, SeededRandomMutationsNeverCrash) {
  SubscribeFrame sub;
  sub.filter = {FilterKind::User, 3};
  sub.policy = OverflowPolicy::Disconnect;
  sub.resume_cursor = 8;
  EventFrame ev;
  ev.event = make_event(77, 1, make_pipeline_event(3, 4.5));
  const Frame frames[] = {Frame{sub},
                          Frame{HeartbeatFrame{2.5}},
                          Frame{SubAckFrame{4, 9, 2, 1}},
                          Frame{ev},
                          Frame{GapFrame{50, 6}},
                          Frame{ShedFrame{ShedReason::Overflow}}};
  std::vector<std::uint8_t> base;
  std::vector<std::size_t> frame_ends;
  for (int rep = 0; rep < 2; ++rep) {
    for (const Frame& frame : frames) {
      const auto bytes = encode_frame(frame);
      base.insert(base.end(), bytes.begin(), bytes.end());
      frame_ends.push_back(base.size());
    }
  }

  common::Rng rng(0x7E1E7E1Eull);
  constexpr int kCases = 3000;
  std::size_t parsed = 0, refused = 0;
  for (int iter = 0; iter < kCases; ++iter) {
    std::vector<std::uint8_t> bytes = base;
    const std::size_t pos = testutil::mutate_once(rng, bytes).pos;
    const auto intact = static_cast<std::size_t>(std::count_if(
        frame_ends.begin(), frame_ends.end(),
        [pos](std::size_t end) { return end <= pos; }));

    // Any exception other than DecodeError escapes and fails the test.
    FrameParser parser;
    std::size_t got = 0;
    try {
      for (std::size_t at = 0; at < bytes.size();) {
        const std::size_t chunk = std::min(
            bytes.size() - at,
            static_cast<std::size_t>(rng.uniform_int(1, 48)));
        parser.feed(std::span<const std::uint8_t>(bytes.data() + at, chunk));
        at += chunk;
        while (parser.next().has_value()) ++got;
      }
    } catch (const llrp::DecodeError&) {
      ++refused;
    }
    EXPECT_GE(got, intact) << "case " << iter;
    parsed += got;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(WireProtocol, NamesAreStable) {
  EXPECT_STREQ(frame_type_name(FrameType::Subscribe), "Subscribe");
  EXPECT_STREQ(frame_type_name(FrameType::Shed), "Shed");
  EXPECT_STREQ(filter_kind_name(FilterKind::AlarmOnly), "AlarmOnly");
  EXPECT_STREQ(overflow_policy_name(OverflowPolicy::CoalescePerUser),
               "CoalescePerUser");
  EXPECT_STREQ(shed_reason_name(ShedReason::SlowConsumer), "SlowConsumer");
  EXPECT_STREQ(subscriber_state_name(SubscriberState::Lagging), "Lagging");
  EXPECT_STREQ(client_state_name(ClientState::Streaming), "Streaming");
}

// FNV-1a of one frame of each type, captured before the telemetry codec
// was merged with the journal's. A round trip cannot see a byte-order
// slip that writer and reader make together; this hash can.
TEST(WireProtocol, BytePinEveryFrameType) {
  SubscribeFrame sub;
  sub.filter = {FilterKind::Ward, 0x0102030405060708ull};
  sub.policy = OverflowPolicy::CoalescePerUser;
  sub.resume_cursor = 0x1122334455667788ull;
  EventFrame ev;
  ev.event.seq = 0x0A0B0C0D0E0F1011ull;
  ev.event.shard = 0x0102;
  ev.event.kind = core::PipelineEventKind::ApneaAlert;
  ev.event.health = core::SignalHealth::Stale;
  ev.event.reliable = true;
  ev.event.user_id = 4242;
  ev.event.time_s = 1234.0625;
  ev.event.rate_bpm = -0.1;
  std::vector<std::uint8_t> wire;
  for (const Frame& frame :
       {Frame{sub}, Frame{HeartbeatFrame{-12.345}},
        Frame{SubAckFrame{9, 0x0102030405ull, 5, 3}}, Frame{ev},
        Frame{GapFrame{100, 0xFFFF0000ull}},
        Frame{ShedFrame{ShedReason::HeartbeatTimeout}}}) {
    const auto bytes = encode_frame(frame);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(wire.size(), 160u);
  EXPECT_EQ(testutil::byte_hash(wire), 0xD349CD797CA1FF24ull);
}

// ---------------------------------------------------------------------------
// Configuration validation

TEST(TelemetryConfigValidation, RejectsNonsense) {
  {
    EventBusConfig c;
    c.queue_capacity = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    EventBusConfig c;
    c.queue_capacity = 1;  // derived lagging threshold degenerates
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    EventBusConfig c;
    c.lagging_above = 4;
    c.up_below = 4;  // no hysteresis
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    TelemetryServiceConfig c;
    c.max_events_per_pump = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    TelemetryServiceConfig c;
    c.heartbeat_timeout_s = -1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    TelemetryClientConfig c;
    c.backoff_max_s = 0.1;  // below initial
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    TelemetryClientConfig c;
    c.backoff_jitter = 1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SubscriberSoakConfig c;
    c.n_subscribers = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SubscriberSoakConfig c;
    c.fleet.event_tap = [](const fleet::FleetEvent&) {};
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  EXPECT_NO_THROW(EventBusConfig{}.validate());
  EXPECT_NO_THROW(TelemetryServiceConfig{}.validate());
  EXPECT_NO_THROW(TelemetryClientConfig{}.validate());
}

// ---------------------------------------------------------------------------
// EventBus: filters, conservation, overflow policies

std::uint32_t ward_of_pairs(std::uint64_t user) {
  return static_cast<std::uint32_t>((user - 1) / 2);
}

TEST(EventBus, FiltersEvaluateAtEnqueueTime) {
  EventBus bus(EventBusConfig{}, ward_of_pairs);
  const std::uint64_t all = bus.subscribe({FilterKind::All, 0},
                                          OverflowPolicy::DropOldest);
  const std::uint64_t user2 = bus.subscribe({FilterKind::User, 2},
                                            OverflowPolicy::DropOldest);
  const std::uint64_t ward1 = bus.subscribe({FilterKind::Ward, 1},
                                            OverflowPolicy::DropOldest);
  const std::uint64_t alarms = bus.subscribe({FilterKind::AlarmOnly, 0},
                                             OverflowPolicy::DropOldest);
  // Users 1..4: wards 0,0,1,1. One alarm for user 1.
  for (std::uint64_t u = 1; u <= 4; ++u)
    bus.publish(0, make_pipeline_event(u, 1.0));
  bus.publish(0, make_pipeline_event(1, 2.0,
                                     core::PipelineEventKind::ApneaAlert));

  EXPECT_EQ(bus.subscription_counters(all).published, 5u);
  EXPECT_EQ(bus.subscription_counters(user2).published, 1u);
  EXPECT_EQ(bus.subscription_counters(ward1).published, 2u);
  EXPECT_EQ(bus.subscription_counters(alarms).published, 1u);
  // Filter misses are counted, not enqueued: 4+3+4 = 11 misses.
  EXPECT_EQ(bus.counters().filtered_out, 11u);
  EXPECT_EQ(bus.counters().events_published, 5u);
}

TEST(EventBus, DropOldestConservesAndSurfacesGap) {
  EventBusConfig cfg;
  cfg.queue_capacity = 4;
  EventBus bus(cfg);
  const std::uint64_t id =
      bus.subscribe({FilterKind::All, 0}, OverflowPolicy::DropOldest);
  for (int i = 0; i < 10; ++i)
    bus.publish(0, make_pipeline_event(1, 0.1 * i));

  SubscriptionCounters c = bus.subscription_counters(id);
  EXPECT_EQ(c.published, 10u);
  EXPECT_EQ(c.dropped, 6u);
  EXPECT_EQ(bus.queued(id), 4u);
  EXPECT_EQ(c.published, c.delivered + c.dropped + c.coalesced + bus.queued(id));

  std::vector<TelemetryEvent> out;
  const EventBus::DrainResult dr = bus.drain(id, out, 100);
  EXPECT_EQ(dr.delivered, 4u);
  EXPECT_EQ(dr.gap_dropped, 6u);
  EXPECT_EQ(dr.gap_next_seq, 7u);  // seqs 1..6 were shed
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().seq, 7u);
  EXPECT_EQ(out.back().seq, 10u);

  c = bus.subscription_counters(id);
  EXPECT_EQ(c.published, c.delivered + c.dropped + c.coalesced);
}

TEST(EventBus, CoalescePerUserKeepsNewestRateAndSparesAlarms) {
  EventBusConfig cfg;
  cfg.queue_capacity = 2;
  EventBus bus(cfg);
  const std::uint64_t id =
      bus.subscribe({FilterKind::All, 0}, OverflowPolicy::CoalescePerUser);
  bus.publish(0, make_pipeline_event(1, 1.0, core::PipelineEventKind::RateUpdate, 10.0));
  bus.publish(0, make_pipeline_event(2, 1.1, core::PipelineEventKind::RateUpdate, 11.0));
  // Queue full. A newer rate for user 1 coalesces onto the stale one.
  bus.publish(0, make_pipeline_event(1, 2.0, core::PipelineEventKind::RateUpdate, 14.0));
  SubscriptionCounters c = bus.subscription_counters(id);
  EXPECT_EQ(c.coalesced, 1u);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(bus.queued(id), 2u);

  // An alarm never coalesces: with no coalescible same-user rate it
  // falls back to shedding the oldest.
  bus.publish(0, make_pipeline_event(3, 3.0, core::PipelineEventKind::ApneaAlert));
  c = bus.subscription_counters(id);
  EXPECT_EQ(c.coalesced, 1u);
  EXPECT_EQ(c.dropped, 1u);

  std::vector<TelemetryEvent> out;
  bus.drain(id, out, 100);
  ASSERT_EQ(out.size(), 2u);
  // Sequence order survived the coalesce (erase + re-append, not
  // overwrite in place).
  EXPECT_LT(out[0].seq, out[1].seq);
  EXPECT_EQ(out[1].kind, core::PipelineEventKind::ApneaAlert);
  c = bus.subscription_counters(id);
  EXPECT_EQ(c.published, c.delivered + c.dropped + c.coalesced);
}

TEST(EventBus, DisconnectPolicyShedsTheSubscriberOnOverflow) {
  EventBusConfig cfg;
  cfg.queue_capacity = 2;
  EventBus bus(cfg);
  const std::uint64_t id =
      bus.subscribe({FilterKind::All, 0}, OverflowPolicy::Disconnect);
  for (int i = 0; i < 3; ++i)
    bus.publish(0, make_pipeline_event(1, 0.1 * i));
  EXPECT_EQ(bus.state(id), SubscriberState::Shed);
  EXPECT_EQ(bus.counters().sheds[static_cast<std::size_t>(
                ShedReason::Overflow)],
            1u);
  const SubscriptionCounters c = bus.subscription_counters(id);
  EXPECT_EQ(c.published, 3u);
  EXPECT_EQ(c.published, c.delivered + c.dropped + c.coalesced);
  // A shed subscription no longer receives.
  bus.publish(0, make_pipeline_event(1, 9.0));
  EXPECT_EQ(bus.subscription_counters(id).published, 3u);
  std::vector<TelemetryEvent> out;
  const EventBus::DrainResult dr = bus.drain(id, out, 10);
  EXPECT_TRUE(dr.shed);
  EXPECT_EQ(dr.shed_reason, ShedReason::Overflow);
}

TEST(EventBus, LadderLagsRecoversAndShedsPersistentLaggards) {
  EventBusConfig cfg;
  cfg.queue_capacity = 8;
  cfg.lagging_above = 4;
  cfg.up_below = 2;
  cfg.shed_after_lagging_ticks = 3;
  EventBus bus(cfg);
  const std::uint64_t id =
      bus.subscribe({FilterKind::All, 0}, OverflowPolicy::DropOldest);
  EXPECT_EQ(bus.state(id), SubscriberState::Up);

  for (int i = 0; i < 5; ++i) bus.publish(0, make_pipeline_event(1, 0.1 * i));
  bus.tick();
  EXPECT_EQ(bus.state(id), SubscriberState::Lagging);

  // Drain below the hysteresis floor: recovers to Up.
  std::vector<TelemetryEvent> out;
  bus.drain(id, out, 4);
  bus.tick();
  EXPECT_EQ(bus.state(id), SubscriberState::Up);

  // Lag again and stay lagging: shed on the third consecutive tick.
  for (int i = 0; i < 6; ++i) bus.publish(0, make_pipeline_event(1, 1.0 + i));
  bus.tick();
  EXPECT_EQ(bus.state(id), SubscriberState::Lagging);
  bus.tick();
  EXPECT_EQ(bus.state(id), SubscriberState::Lagging);
  bus.tick();
  EXPECT_EQ(bus.state(id), SubscriberState::Shed);
  EXPECT_EQ(bus.counters().sheds[static_cast<std::size_t>(
                ShedReason::SlowConsumer)],
            1u);
  const SubscriptionCounters c = bus.subscription_counters(id);
  EXPECT_EQ(c.published, c.delivered + c.dropped + c.coalesced);
}

TEST(EventBus, ResumeCursorReplaysExactlyTheGap) {
  EventBusConfig cfg;
  cfg.replay_ring_capacity = 16;
  EventBus bus(cfg);
  for (int i = 1; i <= 10; ++i)
    bus.publish(0, make_pipeline_event(1, 0.1 * i));

  EventBus::ResumeResult rr;
  const std::uint64_t id = bus.subscribe(
      {FilterKind::All, 0}, OverflowPolicy::DropOldest, 4, &rr);
  EXPECT_EQ(rr.replayed, 6u);
  EXPECT_EQ(rr.gap, 0u);
  EXPECT_EQ(rr.next_seq, 11u);
  std::vector<TelemetryEvent> out;
  bus.drain(id, out, 100);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out.front().seq, 5u);
  EXPECT_EQ(out.back().seq, 10u);
  const SubscriptionCounters c = bus.subscription_counters(id);
  EXPECT_EQ(c.replayed, 6u);
  EXPECT_EQ(c.published, c.delivered + c.dropped + c.coalesced);
}

TEST(EventBus, ResumeBeyondTheRingReportsTheIrrecoverableGap) {
  EventBusConfig cfg;
  cfg.replay_ring_capacity = 4;
  EventBus bus(cfg);
  for (int i = 1; i <= 10; ++i)
    bus.publish(0, make_pipeline_event(1, 0.1 * i));

  // Ring holds seqs 7..10; a client away since seq 2 lost 3..6.
  EventBus::ResumeResult rr;
  bus.subscribe({FilterKind::All, 0}, OverflowPolicy::DropOldest, 2, &rr);
  EXPECT_EQ(rr.replayed, 4u);
  EXPECT_EQ(rr.gap, 4u);
  EXPECT_EQ(bus.counters().gap_sequences, 4u);

  // Cursor ahead of the stream is clamped, not trusted.
  EventBus::ResumeResult ahead;
  bus.subscribe({FilterKind::All, 0}, OverflowPolicy::DropOldest, 999, &ahead);
  EXPECT_EQ(ahead.replayed, 0u);
  EXPECT_EQ(ahead.gap, 0u);
}

TEST(EventBus, UnsubscribeFreezesTheConservationLaw) {
  EventBus bus(EventBusConfig{});
  const std::uint64_t id =
      bus.subscribe({FilterKind::All, 0}, OverflowPolicy::DropOldest);
  for (int i = 0; i < 5; ++i) bus.publish(0, make_pipeline_event(1, 0.1 * i));
  std::vector<TelemetryEvent> out;
  bus.drain(id, out, 2);
  bus.unsubscribe(id);
  const SubscriptionCounters c = bus.subscription_counters(id);
  EXPECT_EQ(c.delivered, 2u);
  EXPECT_EQ(c.dropped, 3u);  // queued spilled into dropped on close
  EXPECT_EQ(c.published, c.delivered + c.dropped + c.coalesced);
  EXPECT_EQ(bus.live_subscriptions(), 0u);
  // The audit walk still sees the closed subscription.
  std::size_t walked = 0;
  bus.for_each_subscription([&](std::uint64_t, const FilterSpec&,
                                SubscriberState,
                                const SubscriptionCounters&,
                                std::size_t) { ++walked; });
  EXPECT_EQ(walked, 1u);
}

// ---------------------------------------------------------------------------
// TelemetryService: protocol lifecycle over real channels

TelemetryServiceConfig small_service(double heartbeat_timeout_s = 5.0,
                                     std::size_t queue_capacity = 64) {
  TelemetryServiceConfig cfg;
  cfg.bus.queue_capacity = queue_capacity;
  cfg.heartbeat_timeout_s = heartbeat_timeout_s;
  return cfg;
}

TEST(TelemetryService, SubscribesStreamsInOrder) {
  TelemetryService service(small_service());
  WirePeer peer;
  service.accept(peer.channel, 0.0);
  peer.send(SubscribeFrame{{FilterKind::All, 0},
                           OverflowPolicy::DropOldest, 0});
  service.pump(0.0);
  auto frames = peer.recv();
  ASSERT_EQ(frames.size(), 1u);
  const auto ack = std::get<SubAckFrame>(frames[0]);
  EXPECT_GT(ack.subscription_id, 0u);
  EXPECT_EQ(ack.next_seq, 1u);

  for (int i = 1; i <= 3; ++i)
    service.bus().publish(0, make_pipeline_event(1, 0.1 * i));
  peer.send(HeartbeatFrame{0.5});
  service.pump(0.5);
  frames = peer.recv();
  ASSERT_EQ(frames.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(std::get<EventFrame>(frames[i]).event.seq,
              static_cast<std::uint64_t>(i + 1));
  EXPECT_EQ(service.counters().events_sent, 3u);
  EXPECT_EQ(service.counters().heartbeats, 1u);
}

TEST(TelemetryService, GapFramePrecedesEventsAfterOverload) {
  TelemetryService service(small_service(5.0, /*queue_capacity=*/2));
  WirePeer peer;
  service.accept(peer.channel, 0.0);
  peer.send(SubscribeFrame{{FilterKind::All, 0},
                           OverflowPolicy::DropOldest, 0});
  service.pump(0.0);
  peer.recv();  // SubAck

  for (int i = 1; i <= 5; ++i)
    service.bus().publish(0, make_pipeline_event(1, 0.1 * i));
  service.pump(0.5);
  const auto frames = peer.recv();
  ASSERT_EQ(frames.size(), 3u);
  const auto gap = std::get<GapFrame>(frames[0]);
  EXPECT_EQ(gap.dropped, 3u);   // seqs 1..3 shed
  EXPECT_EQ(gap.next_seq, 4u);
  EXPECT_EQ(std::get<EventFrame>(frames[1]).event.seq, 4u);
  EXPECT_EQ(std::get<EventFrame>(frames[2]).event.seq, 5u);
  EXPECT_EQ(service.counters().gap_frames_sent, 1u);
}

TEST(TelemetryService, HeartbeatTimeoutShedsSilentClients) {
  TelemetryService service(small_service(/*heartbeat_timeout_s=*/1.0));
  WirePeer peer;
  const std::uint64_t conn = service.accept(peer.channel, 0.0);
  peer.send(SubscribeFrame{{FilterKind::All, 0},
                           OverflowPolicy::DropOldest, 0});
  service.pump(0.0);
  peer.recv();

  // Heartbeat at 0.9 keeps it alive across the 1s deadline...
  peer.send(HeartbeatFrame{0.9});
  service.pump(0.9);
  EXPECT_TRUE(service.connection_open(conn));
  // ...then 2 s of silence kills it.
  service.pump(2.5);
  EXPECT_FALSE(service.connection_open(conn));
  const auto frames = peer.recv();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<ShedFrame>(frames[0]).reason,
            ShedReason::HeartbeatTimeout);
  EXPECT_EQ(service.counters().heartbeat_timeouts, 1u);
  EXPECT_EQ(service.bus().counters().sheds[static_cast<std::size_t>(
                ShedReason::HeartbeatTimeout)],
            1u);
}

TEST(TelemetryService, MalformedStreamShedsWithProtocolError) {
  TelemetryService service(small_service());
  WirePeer peer;
  const std::uint64_t conn = service.accept(peer.channel, 0.0);
  // First byte 'T' classifies as framed; the rest is garbage.
  const std::uint8_t junk[] = {0x54, 0x00, 1, 1, 0, 0, 0, 0};
  peer.channel.write(llrp::Side::Client, junk);
  service.pump(0.0);
  EXPECT_FALSE(service.connection_open(conn));
  const auto frames = peer.recv();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<ShedFrame>(frames[0]).reason, ShedReason::ProtocolError);
  EXPECT_EQ(service.counters().protocol_errors, 1u);
}

TEST(TelemetryService, DoubleSubscribeIsAProtocolError) {
  TelemetryService service(small_service());
  WirePeer peer;
  service.accept(peer.channel, 0.0);
  peer.send(SubscribeFrame{});
  service.pump(0.0);
  peer.recv();
  peer.send(SubscribeFrame{});
  service.pump(0.1);
  const auto frames = peer.recv();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<ShedFrame>(frames[0]).reason, ShedReason::ProtocolError);
}

TEST(TelemetryService, SurvivesFaultInjectedTransport) {
  // A FaultyChannel that corrupts server->client bytes: the client-side
  // parser throws, the client redials, and the service never wedges.
  TelemetryService service(small_service());
  llrp::DuplexChannel inner;
  llrp::FaultPlan plan;
  plan.bit_flip_prob = 0.02;
  plan.seed = 7;
  llrp::FaultyChannel channel(inner, plan);
  service.accept(channel, 0.0);
  channel.write(llrp::Side::Client,
                encode_frame(SubscribeFrame{{FilterKind::All, 0},
                                            OverflowPolicy::DropOldest, 0}));
  for (int i = 1; i <= 50; ++i)
    service.bus().publish(0, make_pipeline_event(1, 0.1 * i));
  // Whatever the fault injector does, pumping must neither throw nor
  // wedge; a corrupted Subscribe surfaces as a protocol-error shed.
  for (int p = 0; p < 10; ++p) EXPECT_NO_THROW(service.pump(0.1 * p));
  FrameParser client_parser;
  EXPECT_NO_THROW({
    try {
      client_parser.feed(channel.read(llrp::Side::Client));
      while (client_parser.next().has_value()) {
      }
    } catch (const llrp::DecodeError&) {
      // A client that sees corrupt bytes tears down and redials — the
      // exception is the contract, not a failure.
    }
  });
}

TEST(TelemetryService, ServesHttpScrapesNextToTheStream) {
  // Pure responder first.
  EXPECT_NE(handle_http_request("GET /healthz HTTP/1.1\r\n\r\n", nullptr)
                .find("200 OK"),
            std::string::npos);
  EXPECT_NE(handle_http_request("GET /metrics HTTP/1.1\r\n\r\n", nullptr)
                .find("503"),
            std::string::npos);
  EXPECT_NE(handle_http_request("GET /nope HTTP/1.1\r\n\r\n", nullptr)
                .find("404"),
            std::string::npos);
  EXPECT_NE(handle_http_request("POST /metrics HTTP/1.1\r\n\r\n", nullptr)
                .find("405"),
            std::string::npos);
  EXPECT_NE(handle_http_request("garbage", nullptr).find("400"),
            std::string::npos);

  // Through the service: same listener as the framed stream.
  obs::Observability hub;
  TelemetryService service(small_service());
  service.bind_observability(hub);
  service.bus().publish(0, make_pipeline_event(1, 1.0));

  llrp::DuplexChannel http;
  service.accept(http, 0.0);
  const std::string req = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  http.write(llrp::Side::Client,
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(req.data()),
                 req.size()));
  service.pump(0.0);
  const auto bytes = http.read(llrp::Side::Client);
  const std::string response(bytes.begin(), bytes.end());
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("telemetry_events_published_total 1"),
            std::string::npos);
  EXPECT_EQ(service.counters().http_requests, 1u);

  llrp::DuplexChannel json;
  service.accept(json, 1.0);
  const std::string jreq = "GET /metrics.json HTTP/1.1\r\n\r\n";
  json.write(llrp::Side::Client,
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(jreq.data()),
                 jreq.size()));
  service.pump(1.0);
  const auto jbytes = json.read(llrp::Side::Client);
  const std::string jresponse(jbytes.begin(), jbytes.end());
  EXPECT_NE(jresponse.find("application/json"), std::string::npos);
  EXPECT_NE(jresponse.find("\"counters\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetryClient: dial, stream, shed, jittered reconnect with resume

TEST(TelemetryClient, DialsStreamsAndResumesAfterShed) {
  TelemetryService service(small_service());
  std::vector<std::unique_ptr<llrp::DuplexChannel>> channels;
  TelemetryClientConfig cc;
  cc.heartbeat_period_s = 0.5;
  cc.seed = 3;
  TelemetryClient client(cc, [&](double now_s) -> llrp::ByteChannel* {
    channels.push_back(std::make_unique<llrp::DuplexChannel>());
    service.accept(*channels.back(), now_s);
    return channels.back().get();
  });

  client.step(0.0);  // dial + Subscribe
  service.pump(0.0);
  client.step(0.1);  // SubAck -> Streaming
  EXPECT_EQ(client.state(), ClientState::Streaming);
  ASSERT_GT(client.subscription_id(), 0u);

  for (int i = 1; i <= 3; ++i)
    service.bus().publish(0, make_pipeline_event(1, 0.1 * i));
  service.pump(0.2);
  client.step(0.3);
  EXPECT_EQ(client.counters().delivered, 3u);
  EXPECT_EQ(client.cursor(), 3u);

  // Server sheds the subscription; the client must learn, back off and
  // redial with its cursor — replaying only what it missed.
  service.bus().shed(client.subscription_id(), ShedReason::SlowConsumer);
  service.pump(0.4);
  client.step(0.5);
  EXPECT_EQ(client.state(), ClientState::Idle);
  EXPECT_EQ(client.counters().sheds_received, 1u);
  const double redial_at = client.next_dial_s();
  EXPECT_GT(redial_at, 0.5);

  for (int i = 4; i <= 5; ++i)
    service.bus().publish(0, make_pipeline_event(1, 0.1 * i));
  client.step(redial_at + 0.01);  // dial with resume_cursor=3
  service.pump(redial_at + 0.01);
  client.step(redial_at + 0.02);
  EXPECT_EQ(client.state(), ClientState::Streaming);
  EXPECT_EQ(client.counters().acks, 2u);
  EXPECT_EQ(client.counters().replayed, 2u);  // SubAck accounting
  service.pump(redial_at + 0.03);
  client.step(redial_at + 0.04);
  EXPECT_EQ(client.counters().delivered, 5u);
  EXPECT_EQ(client.cursor(), 5u);
  EXPECT_EQ(client.counters().ordering_violations, 0u);
}

TEST(TelemetryClient, BackoffIsExponentialAndJittered) {
  TelemetryClientConfig cc;
  cc.backoff_initial_s = 0.5;
  cc.backoff_max_s = 4.0;
  cc.backoff_jitter = 0.2;
  cc.seed = 11;
  TelemetryClient client(cc, [](double) -> llrp::ByteChannel* {
    return nullptr;  // every dial fails
  });

  double now = 0.0;
  double expected_base = 0.5;
  std::vector<double> delays;
  for (int attempt = 0; attempt < 5; ++attempt) {
    client.step(now);  // dial fails, schedules the next
    const double delay = client.next_dial_s() - now;
    delays.push_back(delay);
    EXPECT_GE(delay, expected_base * 0.8 - 1e-12);
    EXPECT_LE(delay, expected_base * 1.2 + 1e-12);
    expected_base = std::min(expected_base * 2.0, 4.0);
    now = client.next_dial_s();
  }
  EXPECT_EQ(client.counters().dials, 5u);
  // Jitter actually moves the delays off the deterministic base.
  bool any_off_base = false;
  double base = 0.5;
  for (const double d : delays) {
    if (std::abs(d - base) > 1e-9) any_off_base = true;
    base = std::min(base * 2.0, 4.0);
  }
  EXPECT_TRUE(any_off_base);
}

// ---------------------------------------------------------------------------
// Concurrency: publish races drains (the TSan gate)

TEST(TelemetryConcurrency, PublishRacesDrainsWithoutTearing) {
  EventBusConfig cfg;
  cfg.queue_capacity = 128;
  EventBus bus(cfg);
  const std::uint64_t a =
      bus.subscribe({FilterKind::All, 0}, OverflowPolicy::DropOldest);
  const std::uint64_t b =
      bus.subscribe({FilterKind::All, 0}, OverflowPolicy::CoalescePerUser);

  constexpr int kEvents = 20000;
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int i = 1; i <= kEvents; ++i)
      bus.publish(0, make_pipeline_event(1 + i % 4, 1e-4 * i));
    done.store(true);
  });
  std::uint64_t drained_a = 0, drained_b = 0;
  std::thread consumer_a([&] {
    std::vector<TelemetryEvent> out;
    while (!done.load() || bus.queued(a) > 0) {
      out.clear();
      drained_a += bus.drain(a, out, 64).delivered;
    }
  });
  std::thread consumer_b([&] {
    std::vector<TelemetryEvent> out;
    while (!done.load() || bus.queued(b) > 0) {
      out.clear();
      drained_b += bus.drain(b, out, 64).delivered;
    }
  });
  std::thread ticker([&] {
    while (!done.load()) bus.tick();
  });
  publisher.join();
  consumer_a.join();
  consumer_b.join();
  ticker.join();

  for (const std::uint64_t id : {a, b}) {
    const SubscriptionCounters c = bus.subscription_counters(id);
    EXPECT_EQ(c.published, static_cast<std::uint64_t>(kEvents));
    EXPECT_EQ(c.published,
              c.delivered + c.dropped + c.coalesced + bus.queued(id));
  }
  EXPECT_EQ(bus.subscription_counters(a).delivered, drained_a);
  EXPECT_EQ(bus.subscription_counters(b).delivered, drained_b);
}

// ---------------------------------------------------------------------------
// Subscriber soak: determinism + the 10k acceptance run

SubscriberSoakConfig small_soak() {
  SubscriberSoakConfig cfg;
  cfg.fleet.n_readers = 4;
  cfg.fleet.n_users = 16;
  cfg.fleet.duration_s = 16.0;
  cfg.fleet.read_rate_hz = 2.0;
  cfg.fleet.fleet.n_shards = 2;
  cfg.fleet.fleet.ingest.max_users = 0;
  cfg.fleet.fleet.pipeline.max_users = 0;
  cfg.fleet.fleet.pipeline.window_s = 8.0;
  cfg.fleet.fleet.pipeline.update_period_s = 1.0;
  cfg.fleet.fleet.pipeline.warmup_s = 2.0;
  cfg.fleet.record_event_log = false;
  cfg.n_subscribers = 200;
  cfg.users_per_ward = 4;
  cfg.service.heartbeat_timeout_s = 2.0;
  cfg.service.bus.queue_capacity = 32;
  cfg.service.bus.shed_after_lagging_ticks = 8;
  cfg.seed = 17;
  return cfg;
}

TEST(SubscriberSoak, DeterministicAcrossRuns) {
  const SubscriberSoakConfig cfg = small_soak();
  const SubscriberSoakReport x = run_subscriber_soak(cfg);
  const SubscriberSoakReport y = run_subscriber_soak(cfg);
  EXPECT_TRUE(x.ok()) << (x.violations.empty()
                              ? (x.fleet.violations.empty()
                                     ? ""
                                     : x.fleet.violations.front())
                              : x.violations.front());
  EXPECT_EQ(x.fleet.event_log_hash, y.fleet.event_log_hash);
  EXPECT_EQ(x.bus.events_published, y.bus.events_published);
  EXPECT_EQ(x.bus.fanout_enqueued, y.bus.fanout_enqueued);
  EXPECT_EQ(x.bus.fanout_dropped, y.bus.fanout_dropped);
  EXPECT_EQ(x.client_delivered, y.client_delivered);
  EXPECT_EQ(x.client_dials, y.client_dials);
}

TEST(SubscriberSoakAcceptance, TenThousandSubscribersAgainstChaosFleet) {
  SubscriberSoakConfig cfg;
  cfg.fleet.n_readers = 16;
  cfg.fleet.n_users = 64;
  cfg.fleet.duration_s = 30.0;
  cfg.fleet.read_rate_hz = 2.0;
  cfg.fleet.fleet.n_shards = 4;
  cfg.fleet.fleet.ingest.max_users = 0;
  cfg.fleet.fleet.pipeline.max_users = 0;
  cfg.fleet.fleet.pipeline.window_s = 12.0;
  cfg.fleet.fleet.pipeline.update_period_s = 4.0;
  cfg.fleet.fleet.pipeline.warmup_s = 4.0;
  cfg.fleet.record_event_log = false;
  // Chaos on the reader side too (the fleet acceptance scenario): the
  // fleet is being wounded while 10k subscribers watch.
  cfg.fleet.reader_chaos.push_back(
      core::ReaderChaosConfig::blackout(3, 6.0, 6.0, 3));
  cfg.fleet.reader_chaos.push_back(
      core::ReaderChaosConfig::flap(5, 2.0, 4.0, 3.0, 2, 5));
  cfg.n_subscribers = 10000;
  cfg.users_per_ward = 8;
  cfg.service.heartbeat_timeout_s = 2.0;
  cfg.service.bus.queue_capacity = 64;
  cfg.service.bus.shed_after_lagging_ticks = 12;
  cfg.service.max_inflight_bytes = 4 * 1024;
  cfg.slow_every = 7;
  cfg.flapping_every = 11;
  cfg.dead_every = 13;
  cfg.slow_stride = 6;
  cfg.flap_period_s = 10.0;
  cfg.flap_on_s = 4.0;  // 6 s silent > 2 s heartbeat timeout
  cfg.seed = 29;

  const SubscriberSoakReport report = run_subscriber_soak(cfg);
  for (const std::string& v : report.violations) ADD_FAILURE() << v;
  for (const std::string& v : report.fleet.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.ok());

  // The fleet stream reached the bus intact and undisturbed.
  EXPECT_GT(report.fleet.events, 0u);
  EXPECT_EQ(report.bus.events_published, report.fleet.events);
  EXPECT_EQ(report.baseline_event_log_hash, report.fleet.event_log_hash);

  // The chaos population actually exercised the ladder: dead clients
  // were reaped, some consumers were shed, drops/gaps happened, and
  // flappers resumed with their cursors.
  EXPECT_GT(report.service.heartbeat_timeouts, 0u);
  EXPECT_GT(report.bus.fanout_dropped, 0u);
  EXPECT_GT(report.bus.resumes, 0u);
  EXPECT_GT(report.bus.replayed_events, 0u);
  EXPECT_GT(report.client_dials, cfg.n_subscribers);  // redials happened

  // Nobody saw out-of-order sequences, and every healthy subscriber
  // survived to the end.
  EXPECT_EQ(report.client_ordering_violations, 0u);
  EXPECT_GT(report.healthy_subscribers, 0u);
  EXPECT_EQ(report.healthy_streaming_at_end, report.healthy_subscribers);
}

}  // namespace
