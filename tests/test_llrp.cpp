// Unit + integration tests: llrp-lite wire format, framing, parameters,
// tag reports, and the client <-> reader-endpoint session.
#include <gtest/gtest.h>

#include <memory>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "core/monitor.hpp"
#include "llrp/message.hpp"
#include "llrp/params.hpp"
#include "llrp/session.hpp"
#include "llrp/transport.hpp"

namespace tagbreathe::llrp {
namespace {

// --- bytes -------------------------------------------------------------

// Widths, byte order, truncation and patching are covered for both
// orders by ByteCodecContract in test_llrp_robustness.

TEST(Bytes, SubReaderIsolatesRegion) {
  ByteWriter w;
  w.u16(1);
  w.u16(2);
  w.u16(3);
  ByteReader r(w.data());
  r.u16();
  ByteReader sub = r.sub(2);
  EXPECT_EQ(sub.u16(), 2u);
  EXPECT_TRUE(sub.empty());
  EXPECT_EQ(r.u16(), 3u);
}

// --- messages -----------------------------------------------------------

TEST(Message, HeaderRoundTrip) {
  Message m;
  m.type = MessageType::AddRoSpec;
  m.message_id = 77;
  m.body = {1, 2, 3};
  const auto wire = encode_message(m);
  EXPECT_EQ(wire.size(), kHeaderBytes + 3);
  const Message back = decode_message(wire);
  EXPECT_EQ(back.type, MessageType::AddRoSpec);
  EXPECT_EQ(back.message_id, 77u);
  EXPECT_EQ(back.body, m.body);
}

TEST(Message, RejectsBadVersionAndLength) {
  Message m;
  m.type = MessageType::KeepAlive;
  auto wire = encode_message(m);
  // Corrupt the version bits.
  wire[0] = static_cast<std::uint8_t>(wire[0] ^ 0x30);
  EXPECT_THROW(decode_message(wire), DecodeError);

  auto wire2 = encode_message(m);
  wire2[5] = 99;  // length mismatch
  EXPECT_THROW(decode_message(wire2), DecodeError);
}

TEST(Message, FramerReassemblesSplitStream) {
  Message a;
  a.type = MessageType::KeepAlive;
  a.message_id = 1;
  Message b;
  b.type = MessageType::RoAccessReport;
  b.message_id = 2;
  b.body = std::vector<std::uint8_t>(37, 0xEE);
  auto wire = encode_message(a);
  const auto wb = encode_message(b);
  wire.insert(wire.end(), wb.begin(), wb.end());

  MessageFramer framer;
  Message out;
  // Feed byte by byte: messages must pop exactly when complete.
  std::size_t popped = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    framer.feed(std::span<const std::uint8_t>(&wire[i], 1));
    while (framer.next(out)) {
      ++popped;
      if (popped == 1) {
        EXPECT_EQ(out.message_id, 1u);
      }
      if (popped == 2) {
        EXPECT_EQ(out.message_id, 2u);
        EXPECT_EQ(out.body.size(), 37u);
      }
    }
  }
  EXPECT_EQ(popped, 2u);
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(Message, TypeNames) {
  EXPECT_STREQ(message_type_name(MessageType::RoAccessReport),
               "RO_ACCESS_REPORT");
  EXPECT_STREQ(message_type_name(MessageType::AddRoSpec), "ADD_ROSPEC");
}

// --- parameters -----------------------------------------------------------

TEST(Params, TlvRoundTripWithNesting) {
  Param outer;
  outer.type = static_cast<std::uint16_t>(ParamType::RoSpec);
  outer.value = {0, 0, 0, 1, 0, 0};  // u32 id, u8 priority, u8 state
  Param inner;
  inner.type = static_cast<std::uint16_t>(ParamType::RoBoundarySpec);
  Param leaf;
  leaf.type = static_cast<std::uint16_t>(ParamType::RoSpecStartTrigger);
  leaf.value = {0};
  inner.children.push_back(leaf);
  outer.children.push_back(inner);

  ByteWriter w;
  encode_param(w, outer);
  ByteReader r(w.data());
  const auto back = decode_params(r);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].type, outer.type);
  // Note: RoSpec decodes children after its value region is consumed by
  // our encoder layout; boundary spec must be present.
  bool found = false;
  for (const auto& c : back[0].children)
    if (c.type == static_cast<std::uint16_t>(ParamType::RoBoundarySpec))
      found = true;
  EXPECT_TRUE(found);
}

TEST(Params, TvRoundTrip) {
  Param tv;
  tv.tv = true;
  tv.type = static_cast<std::uint16_t>(ParamType::AntennaId);
  tv.value = {0x00, 0x03};
  ByteWriter w;
  encode_param(w, tv);
  EXPECT_EQ(w.data()[0], 0x81);  // marker bit | type 1
  ByteReader r(w.data());
  const auto back = decode_params(r);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].tv);
  EXPECT_EQ(back[0].value, tv.value);
}

TEST(Params, TvValidation) {
  Param bad;
  bad.tv = true;
  bad.type = static_cast<std::uint16_t>(ParamType::AntennaId);
  bad.value = {1};  // wrong length
  ByteWriter w;
  EXPECT_THROW(encode_param(w, bad), std::invalid_argument);
  EXPECT_THROW(tv_value_length(99), DecodeError);
}

TEST(Params, StatusRoundTrip) {
  ByteWriter w;
  encode_param(w, make_status(StatusCode::ParameterError));
  ByteReader r(w.data());
  EXPECT_EQ(parse_status(decode_params(r)), StatusCode::ParameterError);
  EXPECT_THROW(parse_status({}), DecodeError);
}

// --- tag reports -----------------------------------------------------------

core::TagRead sample_read() {
  core::TagRead read;
  read.time_s = 12.345678;
  read.epc = rfid::Epc96::from_user_tag(7, 3);
  read.antenna_id = 2;
  read.channel_index = 4;
  read.frequency_hz = rfid::ChannelPlan::paper_plan().frequency_hz(4);
  read.rssi_dbm = -57.5;
  read.phase_rad = 2.7341;
  read.doppler_hz = -1.875;  // exactly -30/16
  return read;
}

TEST(TagReports, RoundTripPreservesFieldsWithinWireQuantisation) {
  const core::TagRead original = sample_read();
  const auto body = encode_tag_reports(std::vector<TagReportEntry>{
      to_wire(original)});
  const auto entries = decode_tag_reports(body);
  ASSERT_EQ(entries.size(), 1u);
  const core::TagRead back =
      from_wire(entries[0], rfid::ChannelPlan::paper_plan());

  EXPECT_EQ(back.epc, original.epc);
  EXPECT_EQ(back.antenna_id, original.antenna_id);
  EXPECT_EQ(back.channel_index, original.channel_index);
  EXPECT_DOUBLE_EQ(back.frequency_hz, original.frequency_hz);
  EXPECT_NEAR(back.time_s, original.time_s, 1e-6);          // microseconds
  EXPECT_NEAR(back.rssi_dbm, original.rssi_dbm, 0.005);     // centi-dBm
  EXPECT_NEAR(back.phase_rad, original.phase_rad,
              common::kTwoPi / 4096.0);                     // 12-bit
  EXPECT_NEAR(back.doppler_hz, original.doppler_hz, 1.0 / 16.0);
}

TEST(TagReports, BatchOfMany) {
  std::vector<TagReportEntry> entries;
  for (int i = 0; i < 50; ++i) {
    core::TagRead r = sample_read();
    r.time_s = i * 0.016;
    r.epc = rfid::Epc96::from_user_tag(1, static_cast<std::uint32_t>(i % 3));
    entries.push_back(to_wire(r));
  }
  const auto body = encode_tag_reports(entries);
  const auto back = decode_tag_reports(body);
  ASSERT_EQ(back.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(back[static_cast<std::size_t>(i)].epc.tag_id(),
              static_cast<std::uint32_t>(i % 3));
}

TEST(TagReports, NegativeDopplerSurvives) {
  core::TagRead r = sample_read();
  r.doppler_hz = -12.5;
  const auto back = decode_tag_reports(
      encode_tag_reports(std::vector<TagReportEntry>{to_wire(r)}));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_LT(static_cast<double>(back[0].doppler_16th_hz), 0.0);
}

// --- transport ---------------------------------------------------------------

TEST(Transport, DuplexDirectionality) {
  DuplexChannel ch;
  const std::vector<std::uint8_t> ping{1, 2, 3};
  ch.write(DuplexChannel::Side::Client, ping);
  EXPECT_EQ(ch.pending(DuplexChannel::Side::Reader), 3u);
  EXPECT_EQ(ch.pending(DuplexChannel::Side::Client), 0u);
  EXPECT_EQ(ch.read(DuplexChannel::Side::Reader), ping);
  EXPECT_EQ(ch.pending(DuplexChannel::Side::Reader), 0u);
}

TEST(Transport, PartialReads) {
  DuplexChannel ch;
  ch.write(DuplexChannel::Side::Reader, std::vector<std::uint8_t>{9, 8, 7});
  const auto first = ch.read(DuplexChannel::Side::Client, 2);
  EXPECT_EQ(first, (std::vector<std::uint8_t>{9, 8}));
  const auto rest = ch.read(DuplexChannel::Side::Client);
  EXPECT_EQ(rest, (std::vector<std::uint8_t>{7}));
}

// --- full session ---------------------------------------------------------------

std::unique_ptr<rfid::ReaderSim> make_sim(
    std::unique_ptr<body::Subject>& subject_out, double rate_bpm = 12.0) {
  body::SubjectConfig cfg;
  cfg.user_id = 1;
  cfg.position = {3.0, 0.0, 0.0};
  cfg.heading_rad = common::kPi;
  subject_out = std::make_unique<body::Subject>(
      cfg, body::BreathingModel(body::MetronomeSchedule(rate_bpm), {}));
  std::vector<std::unique_ptr<rfid::TagBehavior>> tags;
  for (int i = 0; i < 3; ++i) {
    tags.push_back(std::make_unique<rfid::BodyTag>(
        rfid::Epc96::from_user_tag(1, static_cast<std::uint32_t>(i + 1)),
        subject_out.get(), body::Subject::all_sites()[static_cast<std::size_t>(i)]));
  }
  rfid::ReaderConfig rc;
  rc.seed = 77;
  return std::make_unique<rfid::ReaderSim>(rc, std::move(tags));
}

TEST(Session, HandshakeThenReportsFlow) {
  std::unique_ptr<body::Subject> subject;
  LlrpSession session(ClientConfig{}, EndpointConfig{},
                      make_sim(subject));
  EXPECT_FALSE(session.endpoint().rospec_started());
  session.start();
  EXPECT_TRUE(session.endpoint().rospec_started());

  std::vector<core::TagRead> reads;
  session.client().set_read_callback(
      [&reads](const core::TagRead& r) { reads.push_back(r); });
  session.advance(5.0);
  EXPECT_GT(reads.size(), 200u);
  EXPECT_GT(session.client().reports_received(), 10u);

  session.stop();
  EXPECT_FALSE(session.endpoint().rospec_started());
  const std::size_t before = reads.size();
  session.advance(2.0);
  EXPECT_EQ(reads.size(), before);  // no reports while stopped
}

TEST(Session, StartWithoutAddFails) {
  std::unique_ptr<body::Subject> subject;
  DuplexChannel channel;
  ReaderEndpoint endpoint(EndpointConfig{}, channel, make_sim(subject));
  LlrpClient client(ClientConfig{}, channel);
  client.send_start_rospec();  // no ADD/ENABLE first
  endpoint.process_incoming();
  client.poll();
  EXPECT_EQ(client.last_status(MessageType::StartRoSpecResponse),
            StatusCode::ParameterError);
}


TEST(Session, CapabilitiesKeepaliveAndEvents) {
  std::unique_ptr<body::Subject> subject;
  LlrpSession session(ClientConfig{}, EndpointConfig{},
                      make_sim(subject));

  // Capability discovery before anything is configured.
  session.client().send_get_capabilities();
  session.endpoint().process_incoming();
  session.client().poll();
  ASSERT_TRUE(session.client().capabilities().has_value());
  const ReaderCapabilities& caps = *session.client().capabilities();
  EXPECT_EQ(caps.max_antennas, 1u);     // make_sim uses one antenna
  EXPECT_EQ(caps.channel_count, 10u);   // paper plan
  EXPECT_EQ(caps.channel_spacing_khz, 500u);
  EXPECT_TRUE(caps.reports_phase);
  EXPECT_TRUE(caps.reports_doppler);
  EXPECT_EQ(caps.vendor_id, kVendorId);

  // Keepalive echo.
  session.client().send_keepalive();
  session.endpoint().process_incoming();
  session.client().poll();
  EXPECT_EQ(session.client().keepalives_received(), 1u);

  // Lifecycle events around start/stop.
  session.start();
  session.advance(0.5);
  session.stop();
  const auto& events = session.client().reader_events();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front(), ReaderEventKind::RoSpecStarted);
  EXPECT_EQ(events.back(), ReaderEventKind::RoSpecStopped);
}

TEST(Params, CapabilitiesRoundTrip) {
  ReaderCapabilities caps;
  caps.max_antennas = 4;
  caps.channel_count = 50;
  caps.first_channel_khz = 902750;
  caps.channel_spacing_khz = 500;
  caps.reports_doppler = false;
  const auto back = decode_capabilities(encode_capabilities(caps));
  EXPECT_EQ(back.max_antennas, 4u);
  EXPECT_EQ(back.channel_count, 50u);
  EXPECT_EQ(back.first_channel_khz, 902750u);
  EXPECT_TRUE(back.reports_phase);
  EXPECT_FALSE(back.reports_doppler);
}

TEST(Params, ReaderEventRoundTrip) {
  const auto body = encode_reader_event(ReaderEventKind::RoSpecStopped,
                                        123456789ULL);
  std::uint64_t ts = 0;
  EXPECT_EQ(decode_reader_event(body, ts), ReaderEventKind::RoSpecStopped);
  EXPECT_EQ(ts, 123456789ULL);
}

TEST(Session, WireFedMonitorMatchesDirectAnalysis) {
  // The acid test of the protocol layer: feeding TagBreathe through the
  // llrp-lite wire must give the same breathing rate as consuming the
  // simulator output directly (within wire quantisation).
  std::unique_ptr<body::Subject> subject;
  LlrpSession session(ClientConfig{}, EndpointConfig{},
                      make_sim(subject, 14.0));
  session.start();
  std::vector<core::TagRead> wire_reads;
  session.client().set_read_callback(
      [&wire_reads](const core::TagRead& r) { wire_reads.push_back(r); });
  session.advance(60.0);

  core::BreathMonitor monitor;
  const auto analyses = monitor.analyze(wire_reads);
  ASSERT_EQ(analyses.size(), 1u);
  EXPECT_NEAR(analyses[0].rate.rate_bpm, 14.0, 1.0);
}

}  // namespace
}  // namespace tagbreathe::llrp
