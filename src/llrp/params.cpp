#include "llrp/params.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/units.hpp"

namespace tagbreathe::llrp {

std::size_t tv_value_length(std::uint16_t type) {
  switch (static_cast<ParamType>(type)) {
    case ParamType::AntennaId: return 2;
    case ParamType::FirstSeenTimestampUtc: return 8;
    case ParamType::PeakRssi: return 1;
    case ParamType::ChannelIndex: return 2;
    case ParamType::Epc96: return 12;
    default:
      throw DecodeError("unknown TV parameter type " + std::to_string(type));
  }
}

void encode_param(ByteWriter& w, const Param& param) {
  if (param.tv) {
    if (param.type > 0x7F)
      throw std::invalid_argument("TV parameter type exceeds 7 bits");
    if (param.value.size() != tv_value_length(param.type))
      throw std::invalid_argument("TV parameter value length mismatch");
    w.u8(static_cast<std::uint8_t>(0x80 | param.type));
    w.bytes(param.value);
    return;
  }
  const std::size_t header_at = w.size();
  w.u16(param.type & 0x3FF);
  w.u16(0);  // length, patched below
  w.bytes(param.value);
  for (const Param& child : param.children) encode_param(w, child);
  const std::size_t total = w.size() - header_at;
  if (total > 0xFFFF) throw std::invalid_argument("parameter too large");
  w.patch_u16(header_at + 2, static_cast<std::uint16_t>(total));
}

namespace {

/// Fixed-size value prefix a non-leaf TLV carries before its child
/// parameters (LLRP parameters have fixed field layouts; this is the
/// subset we use). ROSpec: u32 id + u8 priority + u8 state.
std::size_t tlv_value_prefix(std::uint16_t type) {
  switch (static_cast<ParamType>(type)) {
    case ParamType::RoSpec: return 6;
    default: return 0;
  }
}

/// TLV leaf types: their payload is raw value bytes, not nested params.
bool is_leaf_tlv(std::uint16_t type) {
  switch (static_cast<ParamType>(type)) {
    case ParamType::EpcData:
    case ParamType::LlrpStatus:
    case ParamType::Custom:
    case ParamType::RoSpecStartTrigger:
    case ParamType::RoSpecStopTrigger:
    case ParamType::AiSpecStopTrigger:
    case ParamType::InventoryParameterSpec:
    case ParamType::RoReportSpec:
      return true;
    default:
      return false;
  }
}

/// Deepest parameter nesting the decoders accept (1 = top level). This
/// dialect sends at most depth 3 (ROSpec -> AISpec ->
/// InventoryParameterSpec); a 64 KiB frame could otherwise nest 16381
/// TLV headers and recurse off the stack.
constexpr int kMaxParamDepth = 8;

/// One parameter's header and a reader over its value: the fixed-size
/// value of a TV, everything after the 4-byte header of a TLV.
struct ParamHeader {
  std::uint16_t type;
  bool tv;
  ByteReader value;

  /// Non-leaf TLVs carry nested parameters after their value prefix.
  bool nested() const { return !tv && !is_leaf_tlv(type); }
};

/// Reads the header of the parameter at nesting `depth`. Every TV/TLV
/// framing check lives here, for the Param tree and the report walker.
ParamHeader read_header(ByteReader& r, int depth) {
  if (depth > kMaxParamDepth)
    throw DecodeError("parameters nested deeper than " +
                      std::to_string(kMaxParamDepth));
  // The top bit of the first byte marks a TV; peek it on a copy.
  if (ByteReader(r).u8() & 0x80) {
    const std::uint16_t type = r.u8() & 0x7F;
    return {type, true, r.sub(tv_value_length(type))};
  }
  // TLV: 6 reserved bits (ignored) and a 10-bit type.
  const std::uint16_t type = r.u16() & 0x3FF;
  const std::uint16_t length = r.u16();
  if (length < 4) throw DecodeError("TLV length below header size");
  return {type, false, r.sub(length - 4u)};
}

Param decode_param(ByteReader& r, int depth) {
  ParamHeader h = read_header(r, depth);
  Param p;
  p.type = h.type;
  p.tv = h.tv;
  if (!h.nested()) {
    p.value = h.value.bytes(h.value.remaining());
    return p;
  }
  p.value = h.value.bytes(tlv_value_prefix(h.type));
  while (!h.value.empty())
    p.children.push_back(decode_param(h.value, depth + 1));
  return p;
}

/// Checks a nested parameter's children as decode_param would, building
/// nothing.
void skip_children(ParamHeader& h, int depth) {
  h.value.view(tlv_value_prefix(h.type));
  while (!h.value.empty()) {
    ParamHeader child = read_header(h.value, depth + 1);
    if (child.nested()) skip_children(child, depth + 1);
  }
}

}  // namespace

Param decode_one_param(ByteReader& r) { return decode_param(r, 1); }

std::vector<Param> decode_params(ByteReader& r) {
  std::vector<Param> out;
  while (!r.empty()) out.push_back(decode_param(r, 1));
  return out;
}

const Param* find_param(const std::vector<Param>& params, ParamType type) {
  for (const Param& p : params) {
    if (p.type == static_cast<std::uint16_t>(type)) return &p;
  }
  return nullptr;
}

const char* status_code_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::Success: return "Success";
    case StatusCode::ParameterError: return "ParameterError";
    case StatusCode::FieldError: return "FieldError";
    case StatusCode::DeviceError: return "DeviceError";
    case StatusCode::NoResponse: return "NoResponse";
  }
  return "?";
}

Param make_status(StatusCode code) {
  Param p;
  p.type = static_cast<std::uint16_t>(ParamType::LlrpStatus);
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(code));
  w.u16(0);  // empty error description
  p.value = w.take();
  return p;
}

StatusCode parse_status(const std::vector<Param>& params) {
  const Param* status = find_param(params, ParamType::LlrpStatus);
  if (status == nullptr) throw DecodeError("missing LLRPStatus");
  ByteReader r(status->value);
  return static_cast<StatusCode>(r.u16());
}

namespace {

Param tv_param(ParamType type, std::span<const std::uint8_t> value) {
  Param p;
  p.tv = true;
  p.type = static_cast<std::uint16_t>(type);
  p.value.assign(value.begin(), value.end());
  return p;
}

Param custom_param(CustomSubtype subtype, std::uint16_t value_u16) {
  Param p;
  p.type = static_cast<std::uint16_t>(ParamType::Custom);
  ByteWriter w;
  w.u32(kVendorId);
  w.u32(static_cast<std::uint32_t>(subtype));
  w.u16(value_u16);
  p.value = w.take();
  return p;
}

}  // namespace

std::vector<std::uint8_t> encode_tag_reports(
    std::span<const TagReportEntry> entries) {
  ByteWriter w;
  for (const TagReportEntry& e : entries) {
    Param report;
    report.type = static_cast<std::uint16_t>(ParamType::TagReportData);

    Param epc;
    epc.type = static_cast<std::uint16_t>(ParamType::EpcData);
    ByteWriter epc_w;
    epc_w.u16(96);  // EPC bit count
    epc_w.bytes(e.epc.bytes());
    epc.value = epc_w.take();
    report.children.push_back(std::move(epc));

    {
      ByteWriter v;
      v.u16(e.antenna_id);
      report.children.push_back(tv_param(ParamType::AntennaId, v.data()));
    }
    {
      ByteWriter v;
      v.u8(static_cast<std::uint8_t>(e.peak_rssi_dbm));
      report.children.push_back(tv_param(ParamType::PeakRssi, v.data()));
    }
    {
      ByteWriter v;
      v.u16(e.channel_index);
      report.children.push_back(tv_param(ParamType::ChannelIndex, v.data()));
    }
    {
      ByteWriter v;
      v.u64(e.first_seen_utc_us);
      report.children.push_back(
          tv_param(ParamType::FirstSeenTimestampUtc, v.data()));
    }
    report.children.push_back(
        custom_param(CustomSubtype::RfPhaseAngle, e.phase_4096));
    report.children.push_back(custom_param(
        CustomSubtype::PeakRssiCentiDbm,
        static_cast<std::uint16_t>(e.rssi_centi_dbm)));
    report.children.push_back(custom_param(
        CustomSubtype::RfDopplerFrequency,
        static_cast<std::uint16_t>(e.doppler_16th_hz)));

    encode_param(w, report);
  }
  return w.take();
}

namespace {

void read_custom(ByteReader& v, TagReportEntry& e) {
  if (v.u32() != kVendorId) return;  // another vendor's extension
  const auto subtype = static_cast<CustomSubtype>(v.u32());
  const std::uint16_t value = v.u16();
  switch (subtype) {
    case CustomSubtype::RfPhaseAngle:
      e.phase_4096 = value;
      break;
    case CustomSubtype::PeakRssiCentiDbm:
      e.rssi_centi_dbm = static_cast<std::int16_t>(value);
      break;
    case CustomSubtype::RfDopplerFrequency:
      e.doppler_16th_hz = static_cast<std::int16_t>(value);
      break;
  }
}

/// Decodes one top-level TagReportData straight from its children's
/// bytes. Children are checked exactly as the Param tree checks them;
/// a repeated child overwrites the earlier one.
TagReportEntry decode_report_entry(ParamHeader& report) {
  TagReportEntry e;
  while (!report.value.empty()) {
    ParamHeader c = read_header(report.value, 2);
    ByteReader& v = c.value;
    if (c.tv) {
      switch (static_cast<ParamType>(c.type)) {
        case ParamType::AntennaId: e.antenna_id = v.u16(); break;
        case ParamType::PeakRssi:
          e.peak_rssi_dbm = static_cast<std::int8_t>(v.u8());
          break;
        case ParamType::ChannelIndex: e.channel_index = v.u16(); break;
        case ParamType::FirstSeenTimestampUtc:
          e.first_seen_utc_us = v.u64();
          break;
        default: break;  // Epc96: the EPC is read from EpcData
      }
      continue;
    }
    if (c.nested()) {
      skip_children(c, 2);
      switch (static_cast<ParamType>(c.type)) {
        case ParamType::AntennaId:
        case ParamType::PeakRssi:
        case ParamType::ChannelIndex:
        case ParamType::FirstSeenTimestampUtc:
          throw DecodeError("TV field sent as a TLV without a value");
        default: break;  // tolerate unknown children, as LTK clients must
      }
      continue;
    }
    if (c.type == static_cast<std::uint16_t>(ParamType::EpcData)) {
      if (v.u16() != 96) throw DecodeError("unsupported EPC length");
      std::array<std::uint8_t, rfid::Epc96::kBytes> raw{};
      const auto bytes = v.view(raw.size());
      std::copy(bytes.begin(), bytes.end(), raw.begin());
      e.epc = rfid::Epc96(raw);
    } else if (c.type == static_cast<std::uint16_t>(ParamType::Custom)) {
      read_custom(v, e);
    }
  }
  return e;
}

}  // namespace

std::vector<TagReportEntry> decode_tag_reports(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  std::vector<TagReportEntry> out;
  while (!r.empty()) {
    ParamHeader h = read_header(r, 1);
    if (h.type == static_cast<std::uint16_t>(ParamType::TagReportData))
      out.push_back(decode_report_entry(h));
    else if (h.nested())
      skip_children(h, 1);
  }
  return out;
}

std::vector<TagReportEntry> decode_tag_reports_salvage(
    std::span<const std::uint8_t> body, std::size_t& entries_dropped) {
  std::vector<TagReportEntry> out;
  entries_dropped = 0;
  std::size_t pos = 0;
  while (pos + 4 <= body.size()) {
    // A salvageable region starts at a top-level TagReportData TLV
    // header. Anything else here is damage — scan forward one byte at a
    // time until the pattern reappears (the 16-bit type match makes
    // false positives rare).
    ByteReader header(body.subspan(pos, 4));
    const std::uint16_t type = header.u16();
    if ((type & 0x8000u) != 0 ||
        (type & 0x3FFu) !=
            static_cast<std::uint16_t>(ParamType::TagReportData)) {
      ++pos;
      continue;
    }
    const std::size_t len = header.u16();
    if (len < 4 || pos + len > body.size()) {
      ++pos;  // corrupted length: treat as a false header and scan on
      continue;
    }
    try {
      ByteReader region(body.subspan(pos, len));
      ParamHeader report = read_header(region, 1);
      out.push_back(decode_report_entry(report));
    } catch (const DecodeError&) {
      ++entries_dropped;  // this entry is damaged; the next may be fine
    }
    pos += len;
  }
  return out;
}

std::vector<std::uint8_t> encode_capabilities(
    const ReaderCapabilities& caps) {
  ByteWriter w;
  encode_param(w, make_status(StatusCode::Success));
  w.u16(caps.max_antennas);
  w.u16(caps.channel_count);
  w.u32(caps.first_channel_khz);
  w.u16(caps.channel_spacing_khz);
  w.u8(static_cast<std::uint8_t>((caps.reports_phase ? 1 : 0) |
                                 (caps.reports_doppler ? 2 : 0)));
  w.u32(caps.vendor_id);
  return w.take();
}

ReaderCapabilities decode_capabilities(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const std::vector<Param> status_params{decode_one_param(r)};
  if (parse_status(status_params) != StatusCode::Success)
    throw DecodeError("capabilities response carries an error status");
  ReaderCapabilities caps;
  caps.max_antennas = r.u16();
  caps.channel_count = r.u16();
  caps.first_channel_khz = r.u32();
  caps.channel_spacing_khz = r.u16();
  const std::uint8_t flags = r.u8();
  caps.reports_phase = (flags & 1) != 0;
  caps.reports_doppler = (flags & 2) != 0;
  caps.vendor_id = r.u32();
  return caps;
}

std::vector<std::uint8_t> encode_reader_event(ReaderEventKind kind,
                                              std::uint64_t timestamp_us) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(kind));
  w.u64(timestamp_us);
  return w.take();
}

ReaderEventKind decode_reader_event(std::span<const std::uint8_t> body,
                                    std::uint64_t& timestamp_us) {
  ByteReader r(body);
  const auto kind = static_cast<ReaderEventKind>(r.u16());
  timestamp_us = r.u64();
  return kind;
}

TagReportEntry to_wire(const core::TagRead& read) {
  TagReportEntry e;
  e.epc = read.epc;
  e.antenna_id = read.antenna_id;
  e.channel_index = read.channel_index;
  e.first_seen_utc_us =
      static_cast<std::uint64_t>(std::llround(read.time_s * 1e6));
  e.peak_rssi_dbm = static_cast<std::int8_t>(std::lround(read.rssi_dbm));
  e.rssi_centi_dbm =
      static_cast<std::int16_t>(std::lround(read.rssi_dbm * 100.0));
  const double frac = read.phase_rad / common::kTwoPi;
  e.phase_4096 = static_cast<std::uint16_t>(
      static_cast<std::uint32_t>(std::llround(frac * 4096.0)) % 4096u);
  e.doppler_16th_hz =
      static_cast<std::int16_t>(std::lround(read.doppler_hz * 16.0));
  return e;
}

core::TagRead from_wire(const TagReportEntry& entry,
                        const rfid::ChannelPlan& plan) {
  core::TagRead read;
  read.epc = entry.epc;
  read.antenna_id = static_cast<std::uint8_t>(entry.antenna_id);
  read.channel_index = entry.channel_index;
  read.frequency_hz = plan.frequency_hz(entry.channel_index);
  read.time_s = static_cast<double>(entry.first_seen_utc_us) * 1e-6;
  read.rssi_dbm = static_cast<double>(entry.rssi_centi_dbm) / 100.0;
  read.phase_rad =
      static_cast<double>(entry.phase_4096) / 4096.0 * common::kTwoPi;
  read.doppler_hz = static_cast<double>(entry.doppler_16th_hz) / 16.0;
  return read;
}

}  // namespace tagbreathe::llrp
