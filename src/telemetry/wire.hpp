// Framed binary wire protocol of the live telemetry service (ISSUE 7).
//
// The service fans monitor events out to nurse-station clients over the
// same byte-stream substrate the LLRP side uses (llrp::ByteChannel, so
// FaultyChannel can damage it in tests). Frames are big-endian, built
// on LLRP's aliases of the common byte codec (llrp::ByteWriter and
// llrp::ByteReader, common/bytes.hpp):
//
//   u16 magic 0x5442 ("TB") | u8 version | u8 type | u32 payload_len |
//   payload
//
// Client -> server: Subscribe (filter + overflow policy + resume
// cursor), Heartbeat. Server -> client: SubAck (subscription id, next
// sequence, replayed/gap accounting), Event (sequence-stamped monitor
// event), Gap (in-stream drop accounting — the client learns exactly
// how many events its slowness cost), Shed (the server is disconnecting
// this subscriber, with the reason).
//
// Robustness contract: FrameParser reassembles frames from arbitrary
// read boundaries and throws llrp::DecodeError on a malformed stream
// (bad magic/version/type, oversized payload) — the service treats that
// as a dead connection and the client redials with its resume cursor,
// so a corrupted byte costs a reconnect, never a wedged parser.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "core/pipeline.hpp"
#include "llrp/message.hpp"

namespace tagbreathe::telemetry {

inline constexpr std::uint16_t kWireMagic = 0x5442;  // "TB"
inline constexpr std::uint8_t kWireVersion = 1;
/// Fixed bytes before the payload: magic + version + type + length.
inline constexpr std::size_t kFrameHeaderBytes = 8;

enum class FrameType : std::uint8_t {
  Subscribe = 1,
  Heartbeat = 2,
  SubAck = 3,
  Event = 4,
  Gap = 5,
  Shed = 6,
};
inline constexpr std::size_t kFrameTypeCount = 6;
const char* frame_type_name(FrameType type) noexcept;

/// Subscription scope, evaluated bus-side at enqueue time so a narrow
/// subscriber never pays for events it will not receive.
enum class FilterKind : std::uint8_t {
  All = 0,        // the full merged stream
  User = 1,       // one user id
  Ward = 2,       // one ward (user -> ward mapping is bus-configured)
  AlarmOnly = 3,  // everything except routine RateUpdate events
};
inline constexpr std::size_t kFilterKindCount = 4;
const char* filter_kind_name(FilterKind kind) noexcept;

/// What a subscription's bounded queue does when an event arrives full.
enum class OverflowPolicy : std::uint8_t {
  /// Shed the oldest queued event (live dashboards: newest data wins).
  /// The shed count surfaces to the client as an in-stream Gap frame.
  DropOldest = 0,
  /// Overwrite the newest queued RateUpdate of the same user (one fresh
  /// rate per user survives overload; alarms are never coalesced).
  /// Falls back to DropOldest when no same-user rate is queued.
  CoalescePerUser = 1,
  /// Shed the subscriber itself: queue contents count as dropped and
  /// the connection is closed with ShedReason::Overflow.
  Disconnect = 2,
};
inline constexpr std::size_t kOverflowPolicyCount = 3;
const char* overflow_policy_name(OverflowPolicy policy) noexcept;

/// Why the server shed a subscriber.
enum class ShedReason : std::uint8_t {
  SlowConsumer = 0,      // Lagging beyond the configured patience
  HeartbeatTimeout = 1,  // client stopped heartbeating
  Overflow = 2,          // Disconnect overflow policy tripped
  ProtocolError = 3,     // malformed frame stream
  ServerShutdown = 4,
};
inline constexpr std::size_t kShedReasonCount = 5;
const char* shed_reason_name(ShedReason reason) noexcept;

struct FilterSpec {
  FilterKind kind = FilterKind::All;
  /// User id (FilterKind::User) or ward id (FilterKind::Ward).
  std::uint64_t id = 0;
};

/// One fan-out event: a merged fleet event stamped with the bus's
/// monotonic sequence number (sequences start at 1; 0 is "none").
struct TelemetryEvent {
  std::uint64_t seq = 0;
  std::uint16_t shard = 0;
  core::PipelineEventKind kind = core::PipelineEventKind::RateUpdate;
  core::SignalHealth health = core::SignalHealth::Ok;
  bool reliable = false;
  std::uint64_t user_id = 0;
  double time_s = 0.0;
  double rate_bpm = 0.0;
};

TelemetryEvent make_event(std::uint64_t seq, std::uint16_t shard,
                          const core::PipelineEvent& event);

// --- frames ----------------------------------------------------------------

struct SubscribeFrame {
  FilterSpec filter{};
  OverflowPolicy policy = OverflowPolicy::DropOldest;
  /// Last sequence this client delivered before disconnecting (0 = a
  /// fresh subscription; the server replays seq > cursor from its ring).
  std::uint64_t resume_cursor = 0;
};

struct HeartbeatFrame {
  double client_time_s = 0.0;
};

struct SubAckFrame {
  std::uint64_t subscription_id = 0;
  /// First live sequence this subscription will see after any replay.
  std::uint64_t next_seq = 1;
  /// Ring events re-enqueued to cover the resume gap.
  std::uint64_t replayed = 0;
  /// Sequences between the cursor and the ring's oldest retained event:
  /// irrecoverably missed (the client was away longer than the ring).
  std::uint64_t gap = 0;
};

struct EventFrame {
  TelemetryEvent event{};
};

/// In-stream drop accounting: `dropped` events before `next_seq` were
/// shed from this subscriber's queue (DropOldest under overload).
struct GapFrame {
  std::uint64_t next_seq = 0;
  std::uint64_t dropped = 0;
};

struct ShedFrame {
  ShedReason reason = ShedReason::SlowConsumer;
};

using Frame = std::variant<SubscribeFrame, HeartbeatFrame, SubAckFrame,
                           EventFrame, GapFrame, ShedFrame>;

FrameType frame_type(const Frame& frame) noexcept;

/// Serializes one frame (header + payload).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Incremental reassembler over an arbitrary byte-stream chunking.
class FrameParser {
 public:
  /// `max_payload` bounds accepted payload lengths: a corrupted or
  /// hostile length field is a DecodeError, never a giant allocation.
  explicit FrameParser(std::size_t max_payload = 1 << 16);

  void feed(std::span<const std::uint8_t> bytes);

  /// Next complete frame, or nullopt when more bytes are needed.
  /// Throws llrp::DecodeError on a malformed stream; the parser is
  /// unusable afterwards (tear the connection down).
  std::optional<Frame> next();

  std::size_t buffered() const noexcept { return buffer_.size() - head_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
};

}  // namespace tagbreathe::telemetry
