// llrp-lite parameters: generic TLV/TV trees plus the typed tag-report
// encoding.
//
// LLRP parameters are either TLV (6 reserved bits + 10-bit type, 16-bit
// length, nested children) or TV (1 marker bit + 7-bit type, fixed
// length). Tag reports (RO_ACCESS_REPORT) carry one TagReportData per
// read with the fields the paper's software consumes: EPC, antenna ID,
// channel index, peak RSSI, timestamp — and the low-level phase/Doppler
// values, which production readers expose through vendor Custom
// parameters (Impinj-style), encoded here the same way.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "llrp/message.hpp"
#include "rfid/channel_plan.hpp"
#include "rfid/epc.hpp"

namespace tagbreathe::llrp {

// --- Generic parameter tree ------------------------------------------------

/// LLRP 1.1 parameter type numbers for the subset we use.
enum class ParamType : std::uint16_t {
  // TV types (7-bit space).
  AntennaId = 1,
  FirstSeenTimestampUtc = 2,
  PeakRssi = 6,
  ChannelIndex = 7,
  Epc96 = 13,
  // TLV types.
  RoSpec = 177,
  RoBoundarySpec = 178,
  RoSpecStartTrigger = 179,
  RoSpecStopTrigger = 182,
  AiSpec = 183,
  AiSpecStopTrigger = 184,
  InventoryParameterSpec = 186,
  RoReportSpec = 237,
  TagReportData = 240,
  EpcData = 241,
  LlrpStatus = 287,
  Custom = 1023,
};

struct Param {
  std::uint16_t type = 0;
  bool tv = false;  // TV params have fixed-size values and no children
  std::vector<std::uint8_t> value;
  std::vector<Param> children;
};

/// Byte length of a TV parameter's value for the types we support.
std::size_t tv_value_length(std::uint16_t type);

void encode_param(ByteWriter& w, const Param& param);

/// Decodes parameters until the reader is exhausted.
std::vector<Param> decode_params(ByteReader& r);

/// Decodes exactly one parameter, leaving the reader at the next byte.
Param decode_one_param(ByteReader& r);

/// First child (recursive scan not included) of the given type, or null.
const Param* find_param(const std::vector<Param>& params, ParamType type);

// --- Reader capabilities ------------------------------------------------------

/// The capability summary a GET_READER_CAPABILITIES exchange carries in
/// this dialect (a condensed GeneralDeviceCapabilities /
/// RegulatoryCapabilities pair).
struct ReaderCapabilities {
  std::uint16_t max_antennas = 4;       // R420: 4 ports
  std::uint16_t channel_count = 10;     // active regulatory plan
  std::uint32_t first_channel_khz = 920250;
  std::uint16_t channel_spacing_khz = 500;
  bool reports_phase = true;            // vendor low-level data
  bool reports_doppler = true;
  std::uint32_t vendor_id = 25882;      // == kVendorId (declared below)
};

/// Encodes/decodes the capabilities as the body of
/// GET_READER_CAPABILITIES_RESPONSE (status + payload).
std::vector<std::uint8_t> encode_capabilities(const ReaderCapabilities& caps);
ReaderCapabilities decode_capabilities(std::span<const std::uint8_t> body);

// --- Reader events ---------------------------------------------------------------

/// READER_EVENT_NOTIFICATION payloads we emit: connection attempt
/// accepted, ROSpec lifecycle, antenna cycle.
enum class ReaderEventKind : std::uint16_t {
  ConnectionAttempt = 0,
  RoSpecStarted = 1,
  RoSpecStopped = 2,
};

std::vector<std::uint8_t> encode_reader_event(ReaderEventKind kind,
                                              std::uint64_t timestamp_us);
/// Returns the decoded kind and fills `timestamp_us`.
ReaderEventKind decode_reader_event(std::span<const std::uint8_t> body,
                                    std::uint64_t& timestamp_us);

// --- LLRPStatus -------------------------------------------------------------

enum class StatusCode : std::uint16_t {
  Success = 0,
  ParameterError = 100,
  FieldError = 101,
  DeviceError = 401,
  /// Host-side sentinel, never sent on the wire: no response of this
  /// type has been received yet. Distinguishes "never exchanged" from
  /// "reader rejected" in LlrpClient::last_status().
  NoResponse = 0xFFFF,
};

const char* status_code_name(StatusCode code) noexcept;

Param make_status(StatusCode code);
StatusCode parse_status(const std::vector<Param>& params);

// --- Typed tag reports -------------------------------------------------------

/// Vendor ID used for the low-level-data Custom parameters (Impinj's
/// IANA PEN, as real R420 reports use).
inline constexpr std::uint32_t kVendorId = 25882;

/// Custom parameter subtypes (Impinj-style).
enum class CustomSubtype : std::uint32_t {
  RfPhaseAngle = 28,       // u16: phase in units of 2*pi/4096
  PeakRssiCentiDbm = 57,   // s16: RSSI in 1/100 dBm
  RfDopplerFrequency = 68, // s16: Doppler in 1/16 Hz
};

/// One tag read as carried in a TagReportData parameter.
struct TagReportEntry {
  rfid::Epc96 epc;
  std::uint16_t antenna_id = 1;
  std::uint16_t channel_index = 0;
  std::uint64_t first_seen_utc_us = 0;
  std::int8_t peak_rssi_dbm = 0;        // standard coarse field
  std::int16_t rssi_centi_dbm = 0;      // vendor fine-grained field
  std::uint16_t phase_4096 = 0;         // 2*pi/4096 units
  std::int16_t doppler_16th_hz = 0;     // 1/16 Hz units
};

/// Encodes entries as a sequence of TagReportData parameters (the body of
/// an RO_ACCESS_REPORT message).
std::vector<std::uint8_t> encode_tag_reports(
    std::span<const TagReportEntry> entries);

/// Decodes an RO_ACCESS_REPORT body.
/// Damage-tolerant variant: decodes what it can from a corrupted report
/// body, skipping damaged entries instead of throwing. `entries_dropped`
/// counts TagReportData regions that framed but failed to decode. Used
/// by the client's receive path — one flipped byte costs one entry, not
/// the whole report batch.
std::vector<TagReportEntry> decode_tag_reports_salvage(
    std::span<const std::uint8_t> body, std::size_t& entries_dropped);

std::vector<TagReportEntry> decode_tag_reports(
    std::span<const std::uint8_t> body);

/// Converts a simulator/core read into a wire entry (quantising to the
/// wire units) and back. The channel plan maps channel index to carrier
/// frequency on the way out, exactly as LTK-based software does.
TagReportEntry to_wire(const core::TagRead& read);
core::TagRead from_wire(const TagReportEntry& entry,
                        const rfid::ChannelPlan& plan);

}  // namespace tagbreathe::llrp
