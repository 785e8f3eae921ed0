// Robustness of the llrp-lite decoders: random corruption and
// truncation of valid wire data must produce DecodeError (or decode to
// something) — never crash, hang, or read out of bounds. Also the byte
// codec's contract for both byte orders, and a pin of LLRP wire bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <limits>
#include <string>

#include "byte_mutation.hpp"
#include "common/rng.hpp"
#include "core/journal.hpp"
#include "llrp/message.hpp"
#include "llrp/params.hpp"

namespace tagbreathe::llrp {
namespace {

std::vector<std::uint8_t> valid_report_message() {
  core::TagRead read;
  read.epc = rfid::Epc96::from_user_tag(3, 9);
  read.time_s = 1.25;
  read.antenna_id = 1;
  read.channel_index = 2;
  read.rssi_dbm = -61.5;
  read.phase_rad = 1.0;
  read.doppler_hz = 0.5;
  Message m;
  m.type = MessageType::RoAccessReport;
  m.message_id = 5;
  m.body = encode_tag_reports(std::vector<TagReportEntry>{to_wire(read)});
  return encode_message(m);
}

TEST(LlrpRobustness, TruncationAtEveryLengthIsHandled) {
  const auto wire = valid_report_message();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::span<const std::uint8_t> prefix(wire.data(), len);
    try {
      const Message m = decode_message(prefix);
      decode_tag_reports(m.body);
    } catch (const DecodeError&) {
      // expected for malformed prefixes
    }
  }
  SUCCEED();
}

TEST(LlrpRobustness, SingleByteCorruptionNeverCrashes) {
  const auto wire = valid_report_message();
  common::Rng rng(17);
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (int trial = 0; trial < 4; ++trial) {
      auto corrupted = wire;
      corrupted[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      try {
        const Message m = decode_message(corrupted);
        decode_tag_reports(m.body);
      } catch (const DecodeError&) {
      }
    }
  }
  SUCCEED();
}

TEST(LlrpRobustness, RandomGarbageIsRejectedOrDecoded) {
  common::Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> garbage(
        static_cast<std::size_t>(rng.uniform_int(0, 120)));
    for (auto& b : garbage)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      const Message m = decode_message(garbage);
      decode_tag_reports(m.body);
    } catch (const DecodeError&) {
    }
  }
  SUCCEED();
}

TEST(LlrpRobustness, FramerDiscardsOversizedLengthAndResyncs) {
  // A header claiming a ~2 GiB frame must not make the framer buffer
  // forever: the implausible header is skipped and the garbage dropped.
  MessageFramer framer;
  std::vector<std::uint8_t> huge(kHeaderBytes, 0);
  huge[0] = 0x04;  // valid version bits so only the length is absurd
  huge[2] = 0x7F;  // length ~2 GiB > kMaxFrameBytes
  framer.feed(huge);
  Message out;
  EXPECT_FALSE(framer.next(out));
  EXPECT_LT(framer.buffered_bytes(), kHeaderBytes);
  EXPECT_GE(framer.stats().resyncs, 1u);

  // A valid message fed afterwards still comes through.
  Message ka;
  ka.type = MessageType::KeepAlive;
  ka.message_id = 9;
  framer.feed(encode_message(ka));
  ASSERT_TRUE(framer.next(out));
  EXPECT_EQ(out.message_id, 9u);
}

TEST(LlrpRobustness, FramerResyncsPastCorruptHeaderToNextMessage) {
  // One corrupted byte inside a frame must cost at most that frame —
  // the framer finds the next real header and the stream continues.
  const auto good = valid_report_message();
  auto corrupt = good;
  corrupt[0] ^= 0x10;  // damage the version bits of frame 1's header
  std::vector<std::uint8_t> stream = corrupt;
  stream.insert(stream.end(), good.begin(), good.end());

  MessageFramer framer;
  framer.feed(stream);
  Message out;
  std::size_t popped = 0;
  while (framer.next(out)) ++popped;
  EXPECT_GE(popped, 1u);  // the intact second frame survives
  EXPECT_EQ(out.type, MessageType::RoAccessReport);
  EXPECT_GE(framer.stats().resyncs, 1u);
}

TEST(LlrpRobustness, FramerNeverThrowsOrStallsOnRandomStreams) {
  // Seed-swept: random byte soup interleaved with valid frames. next()
  // must never throw and the buffer must stay bounded.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng(seed);
    MessageFramer framer;
    Message out;
    for (int round = 0; round < 50; ++round) {
      if (rng.bernoulli(0.5)) {
        framer.feed(valid_report_message());
      } else {
        std::vector<std::uint8_t> junk(
            static_cast<std::size_t>(rng.uniform_int(1, 64)));
        for (auto& b : junk)
          b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        framer.feed(junk);
      }
      while (framer.next(out)) {
      }
      ASSERT_LE(framer.buffered_bytes(),
                MessageFramer::kMaxFrameBytes + 64);
    }
  }
}

TEST(LlrpRobustness, SeedSweptCorruptionOverParamDecodePaths) {
  // Satellite sweep: every decode entry point in params.cpp fed
  // randomly corrupted (multi-byte) variants of valid payloads across
  // seeds. DecodeError or a successful decode are both fine; crashes,
  // hangs and out-of-bounds reads are not (ASan/UBSan builds verify the
  // latter — see TAGBREATHE_SANITIZE).
  core::TagRead read;
  read.epc = rfid::Epc96::from_user_tag(5, 2);
  read.time_s = 3.5;
  read.channel_index = 1;
  read.rssi_dbm = -58.0;
  read.phase_rad = 2.0;
  const auto report_body =
      encode_tag_reports(std::vector<TagReportEntry>{to_wire(read)});
  const auto caps_body = encode_capabilities(ReaderCapabilities{});
  const auto event_body =
      encode_reader_event(ReaderEventKind::RoSpecStarted, 42);
  ByteWriter status_w;
  encode_param(status_w, make_status(StatusCode::Success));
  const auto status_body = status_w.take();

  const std::vector<const std::vector<std::uint8_t>*> bodies{
      &report_body, &caps_body, &event_body, &status_body};

  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    common::Rng rng(seed);
    for (const auto* body : bodies) {
      auto fuzzed = *body;
      const int flips = rng.uniform_int(1, 8);
      for (int i = 0; i < flips && !fuzzed.empty(); ++i) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(fuzzed.size()) - 1));
        fuzzed[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      }
      try {
        decode_tag_reports(fuzzed);
      } catch (const DecodeError&) {
      }
      try {
        decode_capabilities(fuzzed);
      } catch (const DecodeError&) {
      }
      try {
        std::uint64_t ts = 0;
        decode_reader_event(fuzzed, ts);
      } catch (const DecodeError&) {
      }
      try {
        ByteReader r(fuzzed);
        const auto params = decode_params(r);
        parse_status(params);
      } catch (const DecodeError&) {
      }
    }
  }
  SUCCEED();
}

TEST(LlrpRobustness, ZeroLengthTlvRejected) {
  // A TLV header claiming length < 4 must throw, not loop forever.
  std::vector<std::uint8_t> bad{0x00, 0xB1, 0x00, 0x02};
  ByteReader r(bad);
  EXPECT_THROW(decode_params(r), DecodeError);
}

/// `headers` nested 4-byte TLV headers: a TagReportData wrapping
/// RoBoundarySpecs, each the only child of the one before.
std::vector<std::uint8_t> nested_report(std::size_t headers) {
  std::vector<std::uint8_t> body;
  for (std::size_t k = 0; k < headers; ++k) {
    const auto type = k == 0 ? ParamType::TagReportData
                             : ParamType::RoBoundarySpec;
    const auto len = static_cast<std::uint16_t>(4 * (headers - k));
    body.push_back(static_cast<std::uint8_t>(static_cast<unsigned>(type) >> 8));
    body.push_back(static_cast<std::uint8_t>(type));
    body.push_back(static_cast<std::uint8_t>(len >> 8));
    body.push_back(static_cast<std::uint8_t>(len));
  }
  return body;
}

TEST(LlrpRobustness, DeeplyNestedFrameIsRejectedWithoutRecursing) {
  // The largest frame the framer passes, filled with nested TLV headers
  // (16381 of them), must be refused by every decoder instead of recursing
  // once per level. Uncapped, the recursion crashed a -O2 build with a
  // 1 MB stack, and an 8 MB stack accepted it.
  Message m;
  m.type = MessageType::RoAccessReport;
  m.body = nested_report((MessageFramer::kMaxFrameBytes - kHeaderBytes) / 4);
  MessageFramer framer;
  framer.feed(encode_message(m));
  Message out;
  ASSERT_TRUE(framer.next(out));
  ASSERT_EQ(out.body.size() + kHeaderBytes, MessageFramer::kMaxFrameBytes - 2);

  EXPECT_THROW(decode_tag_reports(out.body), DecodeError);
  std::size_t dropped = 0;
  EXPECT_TRUE(decode_tag_reports_salvage(out.body, dropped).empty());
  EXPECT_EQ(dropped, 1u);
  ByteReader r(out.body);
  EXPECT_THROW(decode_params(r), DecodeError);
}

TEST(LlrpRobustness, NestingIsCappedAtEightLevels) {
  // Depth 8 leaves room above the dialect's deepest parameter (ROSpec ->
  // AISpec -> InventoryParameterSpec, depth 3); depth 9 is refused.
  const auto at_cap = nested_report(8);
  ByteReader ok(at_cap);
  EXPECT_EQ(decode_params(ok).size(), 1u);
  EXPECT_EQ(decode_tag_reports(at_cap).size(), 1u);

  const auto past_cap = nested_report(9);
  ByteReader bad(past_cap);
  EXPECT_THROW(decode_params(bad), DecodeError);
  EXPECT_THROW(decode_tag_reports(past_cap), DecodeError);
  std::size_t dropped = 0;
  EXPECT_TRUE(decode_tag_reports_salvage(past_cap, dropped).empty());
  EXPECT_EQ(dropped, 1u);
}

// --- Differential oracle for the tag-report decoders -------------------------
//
// `decode_tag_reports` and its salvage variant walk the report bytes once.
// The reference below decodes the way the general parameter tree does:
// `decode_params` builds every Param, then each TagReportData's children
// are read. Both must accept, reject and decode exactly alike, including
// the salvage decoder's dropped count.

TagReportEntry reference_entry(const Param& p) {
  TagReportEntry e;
  for (const Param& c : p.children) {
    ByteReader v(c.value);
    switch (static_cast<ParamType>(c.type)) {
      case ParamType::EpcData: {
        if (v.u16() != 96) throw DecodeError("unsupported EPC length");
        const auto raw = v.bytes(12);
        std::array<std::uint8_t, 12> arr{};
        std::copy(raw.begin(), raw.end(), arr.begin());
        e.epc = rfid::Epc96(arr);
        break;
      }
      case ParamType::AntennaId: e.antenna_id = v.u16(); break;
      case ParamType::PeakRssi:
        e.peak_rssi_dbm = static_cast<std::int8_t>(v.u8());
        break;
      case ParamType::ChannelIndex: e.channel_index = v.u16(); break;
      case ParamType::FirstSeenTimestampUtc:
        e.first_seen_utc_us = v.u64();
        break;
      case ParamType::Custom: {
        if (v.u32() != kVendorId) break;
        const auto subtype = static_cast<CustomSubtype>(v.u32());
        const std::uint16_t value = v.u16();
        if (subtype == CustomSubtype::RfPhaseAngle) e.phase_4096 = value;
        if (subtype == CustomSubtype::PeakRssiCentiDbm)
          e.rssi_centi_dbm = static_cast<std::int16_t>(value);
        if (subtype == CustomSubtype::RfDopplerFrequency)
          e.doppler_16th_hz = static_cast<std::int16_t>(value);
        break;
      }
      default: break;
    }
  }
  return e;
}

bool is_report(const Param& p) {
  return p.type == static_cast<std::uint16_t>(ParamType::TagReportData);
}

struct Outcome {
  bool threw = false;
  std::vector<TagReportEntry> entries;
  std::size_t dropped = 0;
};

Outcome reference_decode(std::span<const std::uint8_t> body) {
  Outcome o;
  try {
    ByteReader r(body);
    for (const Param& p : decode_params(r))
      if (is_report(p)) o.entries.push_back(reference_entry(p));
  } catch (const DecodeError&) {
    o.threw = true;
    o.entries.clear();
  }
  return o;
}

Outcome reference_salvage(std::span<const std::uint8_t> body) {
  Outcome o;
  std::size_t pos = 0;
  while (pos + 4 <= body.size()) {
    const unsigned type = (body[pos] << 8) | body[pos + 1];
    const std::size_t len = (body[pos + 2] << 8) | body[pos + 3];
    if ((type & 0x8000u) != 0 ||
        (type & 0x3FFu) !=
            static_cast<unsigned>(ParamType::TagReportData) ||
        len < 4 || pos + len > body.size()) {
      ++pos;
      continue;
    }
    try {
      ByteReader region(body.subspan(pos, len));
      for (const Param& p : decode_params(region))
        if (is_report(p)) o.entries.push_back(reference_entry(p));
    } catch (const DecodeError&) {
      ++o.dropped;
    }
    pos += len;
  }
  return o;
}

Outcome walker_decode(std::span<const std::uint8_t> body) {
  Outcome o;
  try {
    o.entries = decode_tag_reports(body);
  } catch (const DecodeError&) {
    o.threw = true;
  }
  return o;
}

Outcome walker_salvage(std::span<const std::uint8_t> body) {
  Outcome o;
  o.entries = decode_tag_reports_salvage(body, o.dropped);
  return o;
}

std::string describe(const Outcome& o) {
  if (o.threw) return "DecodeError";
  std::string s = std::to_string(o.entries.size()) + " entries, " +
                  std::to_string(o.dropped) + " dropped:";
  for (const TagReportEntry& e : o.entries) {
    s += " [" + e.epc.to_hex() + " a" + std::to_string(e.antenna_id) +
         " c" + std::to_string(e.channel_index) + " t" +
         std::to_string(e.first_seen_utc_us) + " r" +
         std::to_string(e.peak_rssi_dbm) + "/" +
         std::to_string(e.rssi_centi_dbm) + " p" +
         std::to_string(e.phase_4096) + " d" +
         std::to_string(e.doppler_16th_hz) + "]";
  }
  return s;
}

bool same_entry(const TagReportEntry& a, const TagReportEntry& b) {
  return a.epc == b.epc && a.antenna_id == b.antenna_id &&
         a.channel_index == b.channel_index &&
         a.first_seen_utc_us == b.first_seen_utc_us &&
         a.peak_rssi_dbm == b.peak_rssi_dbm &&
         a.rssi_centi_dbm == b.rssi_centi_dbm &&
         a.phase_4096 == b.phase_4096 &&
         a.doppler_16th_hz == b.doppler_16th_hz;
}

bool same(const Outcome& a, const Outcome& b) {
  if (a.threw != b.threw || a.dropped != b.dropped ||
      a.entries.size() != b.entries.size())
    return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i)
    if (!same_entry(a.entries[i], b.entries[i])) return false;
  return true;
}

struct Check {
  bool agree = false;
  bool threw = false;       // the reference decode threw
  std::size_t dropped = 0;  // the reference salvage dropped this many
};

/// Runs both decoders and the reference over `body`, reporting mismatches.
Check check(std::span<const std::uint8_t> body, const std::string& label) {
  const Outcome want = reference_decode(body);
  const Outcome got = walker_decode(body);
  const Outcome want_s = reference_salvage(body);
  const Outcome got_s = walker_salvage(body);
  EXPECT_TRUE(same(want, got)) << label << "\n  decode_tag_reports: "
                               << describe(got) << "\n  reference: "
                               << describe(want);
  EXPECT_TRUE(same(want_s, got_s))
      << label << "\n  salvage: " << describe(got_s)
      << "\n  reference: " << describe(want_s);
  return {same(want, got) && same(want_s, got_s), want.threw,
          want_s.dropped};
}

bool agrees(std::span<const std::uint8_t> body, const std::string& label) {
  return check(body, label).agree;
}

Param tv(ParamType type, std::vector<std::uint8_t> value) {
  Param p;
  p.tv = true;
  p.type = static_cast<std::uint16_t>(type);
  p.value = std::move(value);
  return p;
}

Param tlv(std::uint16_t type, std::vector<std::uint8_t> value,
          std::vector<Param> children = {}) {
  Param p;
  p.type = type;
  p.value = std::move(value);
  p.children = std::move(children);
  return p;
}

Param tlv(ParamType type, std::vector<std::uint8_t> value,
          std::vector<Param> children = {}) {
  return tlv(static_cast<std::uint16_t>(type), std::move(value),
             std::move(children));
}

Param custom(std::uint32_t vendor, std::uint32_t subtype,
             std::uint16_t value) {
  ByteWriter w;
  w.u32(vendor);
  w.u32(subtype);
  w.u16(value);
  return tlv(ParamType::Custom, w.take());
}

Param epc_data(std::uint32_t user) {
  ByteWriter w;
  w.u16(96);
  w.bytes(rfid::Epc96::from_user_tag(user, 1).bytes());
  return tlv(ParamType::EpcData, w.take());
}

/// A TagReportData with the given children, encoded alone.
std::vector<std::uint8_t> report(std::vector<Param> children) {
  ByteWriter w;
  encode_param(w, tlv(ParamType::TagReportData, {}, std::move(children)));
  return w.take();
}

std::vector<TagReportEntry> sample_entries(std::size_t n) {
  std::vector<TagReportEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    core::TagRead read;
    read.epc = rfid::Epc96::from_user_tag(1 + static_cast<std::uint32_t>(i),
                                          static_cast<std::uint32_t>(i % 3));
    read.time_s = 2.0 + 0.015 * static_cast<double>(i);
    read.antenna_id = static_cast<std::uint8_t>(1 + i % 4);
    read.channel_index = static_cast<std::uint16_t>(i % 10);
    read.rssi_dbm = -55.0 - static_cast<double>(i);
    read.phase_rad = 0.4 * static_cast<double>(i + 1);
    read.doppler_hz = 0.25 * (static_cast<double>(i) - 2.5);
    entries.push_back(to_wire(read));
  }
  return entries;
}

/// A report body that carries every quirk the decoders must agree on:
/// duplicated children, a TV Epc96, foreign and unknown-subtype Custom
/// parameters, an unknown non-leaf TLV with a nested child, reserved
/// type bits, and top-level parameters that are not tag reports.
std::vector<std::uint8_t> quirky_body() {
  std::vector<std::uint8_t> body = encode_tag_reports(sample_entries(2));
  auto odd = report({
      epc_data(7),
      tv(ParamType::AntennaId, {0x00, 0x02}),
      tv(ParamType::Epc96, std::vector<std::uint8_t>(12, 0xEE)),
      custom(kVendorId + 1, 28, 0x0123),
      custom(kVendorId, 99, 0x0456),
      tlv(400, {}, {tv(ParamType::PeakRssi, {0xC4})}),
      tlv(ParamType::LlrpStatus, {0x00, 0x00, 0x00, 0x00}),
      tv(ParamType::AntennaId, {0x00, 0x03}),
      custom(kVendorId, 28, 0x0789),
  });
  odd[0] |= 0x7C;  // reserved type bits
  body.insert(body.end(), odd.begin(), odd.end());
  ByteWriter w;
  encode_param(w, tv(ParamType::ChannelIndex, {0x00, 0x05}));
  encode_param(w, tlv(ParamType::RoBoundarySpec, {},
                      {tlv(ParamType::RoSpecStartTrigger, {0x01})}));
  body.insert(body.end(), w.data().begin(), w.data().end());
  const auto tail = encode_tag_reports(sample_entries(3));
  body.insert(body.end(), tail.begin(), tail.end());
  return body;
}

/// One seeded mutation: one of byte_mutation.hpp's (bit flip, overwrite,
/// truncate, insert), or a splice that copies another stretch of the
/// body over a random position, which can duplicate whole parameters.
void mutate(common::Rng& rng, std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return;
  if (!rng.bernoulli(0.25)) {
    testutil::mutate_once(rng, bytes);
    return;
  }
  const int last = static_cast<int>(bytes.size()) - 1;
  const auto to = static_cast<std::size_t>(rng.uniform_int(0, last));
  const auto from = static_cast<std::size_t>(rng.uniform_int(0, last));
  const std::size_t len =
      std::min({static_cast<std::size_t>(rng.uniform_int(1, 32)),
                bytes.size() - from, bytes.size() - to});
  const std::vector<std::uint8_t> piece(
      bytes.begin() + static_cast<std::ptrdiff_t>(from),
      bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
  std::copy(piece.begin(), piece.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(to));
}

TEST(TagReportOracle, SeededMutationsDecodeLikeTheParamTree) {
  const std::vector<std::vector<std::uint8_t>> bases{
      encode_tag_reports(sample_entries(6)), quirky_body()};
  ASSERT_TRUE(agrees(bases[0], "base 0"));
  ASSERT_TRUE(agrees(bases[1], "base 1"));
  constexpr int kMutants = 40000;
  common::Rng rng(2024);
  std::size_t threw = 0, dropped = 0, mismatches = 0;
  for (int i = 0; i < kMutants && mismatches < 5; ++i) {
    auto bytes = bases[static_cast<std::size_t>(i % 2)];
    const int rounds = rng.uniform_int(1, 3);
    for (int k = 0; k < rounds; ++k) mutate(rng, bytes);
    const Check c = check(bytes, "mutant " + std::to_string(i));
    mismatches += c.agree ? 0 : 1;
    threw += c.threw ? 1 : 0;
    dropped += c.dropped;
  }
  std::printf("%d mutants: %zu threw, %zu salvage drops\n", kMutants, threw,
              dropped);
  EXPECT_EQ(mismatches, 0u);
  // The sweep must reach both the throwing and the salvaging paths.
  EXPECT_GT(threw, static_cast<std::size_t>(kMutants) / 4);
  EXPECT_GT(dropped, static_cast<std::size_t>(kMutants) / 10);
}

TEST(TagReportOracle, NonLeafBodiesAreValidatedRecursively) {
  // A malformed grandchild (TLV length below its header) inside a
  // non-leaf child rejects the whole report; at top level too.
  const std::vector<std::uint8_t> bad_child{0x00, 0xB2, 0x00, 0x02};
  auto inner = report({epc_data(1)});
  const std::vector<std::uint8_t> boundary{0x00, 0xB2, 0x00, 0x08};
  inner.insert(inner.end(), boundary.begin(), boundary.end());
  inner.insert(inner.end(), bad_child.begin(), bad_child.end());
  inner[3] = static_cast<std::uint8_t>(inner.size());  // report length
  EXPECT_THROW(decode_tag_reports(inner), DecodeError);
  std::size_t dropped = 0;
  EXPECT_TRUE(decode_tag_reports_salvage(inner, dropped).empty());
  EXPECT_EQ(dropped, 1u);
  EXPECT_TRUE(agrees(inner, "nested bad child"));

  // A top-level non-report parameter is validated as well.
  auto top = encode_tag_reports(sample_entries(1));
  top.insert(top.end(), bad_child.begin(), bad_child.end());
  EXPECT_THROW(decode_tag_reports(top), DecodeError);
  EXPECT_TRUE(agrees(top, "top-level bad TLV"));

  // ROSpec's 6-byte value prefix is required before its children.
  const auto rospec = report(
      {epc_data(1), tlv(ParamType::RoSpec, {0x00, 0x00, 0x00})});
  EXPECT_THROW(decode_tag_reports(rospec), DecodeError);
  EXPECT_TRUE(agrees(rospec, "short ROSpec prefix"));
}

TEST(TagReportOracle, TlvEncodedScalarChildrenThrow) {
  // A TLV AntennaId/PeakRssi/ChannelIndex/FirstSeen carries no value
  // (these types are not TLV leaves), so reading the field throws.
  for (const ParamType type :
       {ParamType::AntennaId, ParamType::PeakRssi, ParamType::ChannelIndex,
        ParamType::FirstSeenTimestampUtc}) {
    const auto body = report({epc_data(2), tlv(type, {})});
    EXPECT_THROW(decode_tag_reports(body), DecodeError)
        << static_cast<int>(type);
    EXPECT_TRUE(agrees(body, "TLV type " + std::to_string(
                                               static_cast<int>(type))));
  }
}

TEST(TagReportOracle, TvEpc96AndUnknownChildrenAreSkipped) {
  const auto plain = report({epc_data(3), tv(ParamType::AntennaId, {0, 4})});
  const auto padded = report({
      tv(ParamType::Epc96, std::vector<std::uint8_t>(12, 0xAB)),
      epc_data(3),
      tlv(ParamType::Epc96, {}),
      tlv(ParamType::LlrpStatus, {0x00, 0x64}),
      tlv(777, {}, {tv(ParamType::ChannelIndex, {0, 9})}),
      tv(ParamType::AntennaId, {0, 4}),
  });
  const auto a = decode_tag_reports(plain);
  const auto b = decode_tag_reports(padded);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_TRUE(same_entry(a[0], b[0]));
  EXPECT_EQ(b[0].channel_index, 0u);
  EXPECT_TRUE(agrees(padded, "skipped children"));
}

TEST(TagReportOracle, ForeignCustomIsSkippedButAShortOneThrows) {
  const auto foreign = report({epc_data(4), custom(1234, 28, 0x0FFF),
                               tlv(ParamType::Custom, {0, 0, 0x30, 0x39})});
  const auto entries = decode_tag_reports(foreign);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].phase_4096, 0u);
  EXPECT_TRUE(agrees(foreign, "foreign vendor"));

  const auto short_vendor =
      report({epc_data(4), tlv(ParamType::Custom, {0x00, 0x00, 0x65})});
  EXPECT_THROW(decode_tag_reports(short_vendor), DecodeError);
  EXPECT_TRUE(agrees(short_vendor, "3-byte Custom"));

  // Our vendor with a truncated subtype or value throws too.
  ByteWriter w;
  w.u32(kVendorId);
  w.u32(28);
  w.u8(1);
  const auto short_value =
      report({epc_data(4), tlv(ParamType::Custom, w.take())});
  EXPECT_THROW(decode_tag_reports(short_value), DecodeError);
  EXPECT_TRUE(agrees(short_value, "truncated Impinj Custom"));
}

TEST(TagReportOracle, DuplicatedChildLastOneWins) {
  const auto body = report({
      epc_data(5), epc_data(6), tv(ParamType::AntennaId, {0, 1}),
      tv(ParamType::AntennaId, {0, 3}), custom(kVendorId, 28, 100),
      custom(kVendorId, 28, 200),
      tv(ParamType::FirstSeenTimestampUtc, {0, 0, 0, 0, 0, 0, 0, 1}),
      tv(ParamType::FirstSeenTimestampUtc, {0, 0, 0, 0, 0, 0, 0, 2}),
  });
  const auto entries = decode_tag_reports(body);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].epc, rfid::Epc96::from_user_tag(6, 1));
  EXPECT_EQ(entries[0].antenna_id, 3u);
  EXPECT_EQ(entries[0].phase_4096, 200u);
  EXPECT_EQ(entries[0].first_seen_utc_us, 2u);
  EXPECT_TRUE(agrees(body, "duplicates"));
}

TEST(TagReportOracle, ReservedTypeBitsAreIgnored) {
  auto body = encode_tag_reports(sample_entries(2));
  const auto clean = decode_tag_reports(body);
  body[0] |= 0x7C;  // first TagReportData header
  const auto dirty = decode_tag_reports(body);
  ASSERT_EQ(dirty.size(), clean.size());
  EXPECT_TRUE(same_entry(dirty[0], clean[0]));
  std::size_t dropped = 0;
  EXPECT_EQ(decode_tag_reports_salvage(body, dropped).size(), 2u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_TRUE(agrees(body, "reserved bits"));
}

// --- byte pins ---------------------------------------------------------------

// FNV-1a of fixed encoder output, captured before the LLRP and telemetry
// codecs were merged with the journal's. A round trip cannot see a
// byte-order slip that writer and reader make together; this hash can.
TEST(BytePins, RoAccessReportAndControlMessage) {
  TagReportEntry a;
  a.epc = rfid::Epc96::from_user_tag(0x0102030405ull, 0x0607);
  a.antenna_id = 3;
  a.channel_index = 0x0102;
  a.first_seen_utc_us = 0x0011223344556677ull;
  a.peak_rssi_dbm = -61;
  a.rssi_centi_dbm = -6150;
  a.phase_4096 = 0x0ABC;
  a.doppler_16th_hz = -37;
  TagReportEntry b = a;
  b.epc = rfid::Epc96::from_user_tag(9, 2);
  b.antenna_id = 1;
  b.channel_index = 7;
  b.first_seen_utc_us = 1'700'000'000'123'456ull;
  b.phase_4096 = 4095;
  b.doppler_16th_hz = 258;

  std::vector<std::uint8_t> wire = encode_message(
      {MessageType::RoAccessReport, 0x01020304u,
       encode_tag_reports(std::vector<TagReportEntry>{a, b})});
  const auto control =
      encode_message({MessageType::GetReaderCapabilitiesResponse, 7,
                      encode_capabilities(ReaderCapabilities{})});
  wire.insert(wire.end(), control.begin(), control.end());
  EXPECT_EQ(wire.size(), 205u);
  EXPECT_EQ(testutil::byte_hash(wire), 0x10E4D64D9BF88ED8ull);
}

}  // namespace
}  // namespace tagbreathe::llrp

// --- the byte codec contract, for both orders ------------------------------

// The common codec under each format's aliases: LLRP/telemetry
// (big-endian, DecodeError) and journal/snapshot (little-endian,
// DurabilityError). Declared at global scope so that ctest names the
// cases ByteCodecContract.<test><BigEndianFormat>.
struct BigEndianFormat {
  using Writer = tagbreathe::llrp::ByteWriter;
  using Reader = tagbreathe::llrp::ByteReader;
  using Error = tagbreathe::llrp::DecodeError;
  static constexpr bool kBig = true;
};
struct LittleEndianFormat {
  using Writer = tagbreathe::core::ByteWriter;
  using Reader = tagbreathe::core::ByteReader;
  using Error = tagbreathe::core::DurabilityError;
  static constexpr bool kBig = false;
};

template <class Format>
class ByteCodecContract : public ::testing::Test {
 protected:
  /// The encoding of a value written most significant byte first.
  static std::vector<std::uint8_t> ordered(
      std::vector<std::uint8_t> msb_first) {
    if (!Format::kBig) std::reverse(msb_first.begin(), msb_first.end());
    return msb_first;
  }
  static std::vector<std::uint8_t> bytes_of(const typename Format::Writer& w) {
    return {w.data().begin(), w.data().end()};
  }
};
using Formats = ::testing::Types<BigEndianFormat, LittleEndianFormat>;
TYPED_TEST_SUITE(ByteCodecContract, Formats);

TYPED_TEST(ByteCodecContract, ExactLayoutOfEveryWidth) {
  typename TypeParam::Writer w;
  w.u8(0xAB);
  w.u16(0x0102);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-12.625);  // 0xC029400000000000
  const std::uint8_t raw[] = {7, 8, 9};
  w.bytes(raw);

  std::vector<std::uint8_t> expect{0xAB};
  for (const auto& part :
       {this->ordered({0x01, 0x02}), this->ordered({0xDE, 0xAD, 0xBE, 0xEF}),
        this->ordered({0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}),
        this->ordered({0xC0, 0x29, 0x40, 0, 0, 0, 0, 0}),
        std::vector<std::uint8_t>{7, 8, 9}})
    expect.insert(expect.end(), part.begin(), part.end());
  EXPECT_EQ(this->bytes_of(w), expect);
  EXPECT_EQ(w.size(), expect.size());
}

TYPED_TEST(ByteCodecContract, RoundTripAllWidths) {
  typename TypeParam::Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-12.625);
  const std::uint8_t raw[] = {1, 2, 3};
  w.bytes(raw);

  typename TypeParam::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -12.625);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.bytes(3), std::vector<std::uint8_t>(raw, raw + 3));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.empty());
}

TYPED_TEST(ByteCodecContract, F64IsBitExact) {
  const std::uint64_t kNegativeZero = 0x8000000000000000ull;
  const std::uint64_t kNanWithPayload = 0x7FF800000000ABCDull;
  typename TypeParam::Writer w;
  w.f64(-0.0);
  w.f64(std::bit_cast<double>(kNanWithPayload));
  std::vector<std::uint8_t> expect = this->ordered({0x80, 0, 0, 0, 0, 0, 0, 0});
  const auto nan = this->ordered({0x7F, 0xF8, 0, 0, 0, 0, 0xAB, 0xCD});
  expect.insert(expect.end(), nan.begin(), nan.end());
  EXPECT_EQ(this->bytes_of(w), expect);

  typename TypeParam::Reader r(w.data());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), kNegativeZero);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), kNanWithPayload);
}

TYPED_TEST(ByteCodecContract, TruncationThrowsTheFormatsError) {
  using Reader = typename TypeParam::Reader;
  using Error = typename TypeParam::Error;
  const std::vector<std::uint8_t> seven(7, 0x5A);
  const std::span<const std::uint8_t> all(seven);
  EXPECT_THROW(Reader(all.first(0)).u8(), Error);
  EXPECT_THROW(Reader(all.first(1)).u16(), Error);
  EXPECT_THROW(Reader(all.first(3)).u32(), Error);
  EXPECT_THROW(Reader(all.first(7)).u64(), Error);
  EXPECT_THROW(Reader(all.first(7)).f64(), Error);
  EXPECT_THROW(Reader(all.first(3)).bytes(4), Error);
  EXPECT_THROW(Reader(all.first(3)).view(4), Error);
  EXPECT_THROW(Reader(all.first(3)).sub(4), Error);

  // A read that runs past the end after earlier reads succeeded.
  typename TypeParam::Writer w;
  w.u16(7);
  Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.u16(), Error);
  r.u8();
  EXPECT_THROW(r.u8(), Error);
}

TYPED_TEST(ByteCodecContract, PatchWritesInPlaceAndThrowsPastTheEnd) {
  typename TypeParam::Writer w;
  w.u32(0);
  w.u8(9);
  w.patch_u32(0, 5);
  typename TypeParam::Reader r(w.data());
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_EQ(r.u8(), 9u);
  EXPECT_THROW(w.patch_u32(2, 1), std::out_of_range);

  typename TypeParam::Writer v;
  v.u16(0);
  v.u32(0);
  v.patch_u16(0, 0x0A0B);
  v.patch_u32(2, 0x01020304u);  // ends exactly at the end
  std::vector<std::uint8_t> expect = this->ordered({0x0A, 0x0B});
  const auto u32 = this->ordered({0x01, 0x02, 0x03, 0x04});
  expect.insert(expect.end(), u32.begin(), u32.end());
  EXPECT_EQ(this->bytes_of(v), expect);
  EXPECT_THROW(v.patch_u32(3, 1), std::out_of_range);
  EXPECT_THROW(v.patch_u16(5, 1), std::out_of_range);
  EXPECT_THROW(v.patch_u16(std::numeric_limits<std::size_t>::max(), 1),
               std::out_of_range);
  EXPECT_EQ(this->bytes_of(v), expect);
}
