#include "telemetry/wire.hpp"

#include <cstring>
#include <string>

namespace tagbreathe::telemetry {

namespace {

template <typename Enum>
Enum checked_enum(std::uint8_t raw, std::size_t count, const char* what) {
  if (raw >= count)
    throw llrp::DecodeError(std::string("telemetry: bad ") + what + " value " +
                            std::to_string(raw));
  return static_cast<Enum>(raw);
}

}  // namespace

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::Subscribe: return "Subscribe";
    case FrameType::Heartbeat: return "Heartbeat";
    case FrameType::SubAck: return "SubAck";
    case FrameType::Event: return "Event";
    case FrameType::Gap: return "Gap";
    case FrameType::Shed: return "Shed";
  }
  return "Unknown";
}

const char* filter_kind_name(FilterKind kind) noexcept {
  switch (kind) {
    case FilterKind::All: return "All";
    case FilterKind::User: return "User";
    case FilterKind::Ward: return "Ward";
    case FilterKind::AlarmOnly: return "AlarmOnly";
  }
  return "Unknown";
}

const char* overflow_policy_name(OverflowPolicy policy) noexcept {
  switch (policy) {
    case OverflowPolicy::DropOldest: return "DropOldest";
    case OverflowPolicy::CoalescePerUser: return "CoalescePerUser";
    case OverflowPolicy::Disconnect: return "Disconnect";
  }
  return "Unknown";
}

const char* shed_reason_name(ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::SlowConsumer: return "SlowConsumer";
    case ShedReason::HeartbeatTimeout: return "HeartbeatTimeout";
    case ShedReason::Overflow: return "Overflow";
    case ShedReason::ProtocolError: return "ProtocolError";
    case ShedReason::ServerShutdown: return "ServerShutdown";
  }
  return "Unknown";
}

TelemetryEvent make_event(std::uint64_t seq, std::uint16_t shard,
                          const core::PipelineEvent& event) {
  TelemetryEvent e;
  e.seq = seq;
  e.shard = shard;
  e.kind = event.kind;
  e.health = event.health;
  e.reliable = event.reliable;
  e.user_id = event.user_id;
  e.time_s = event.time_s;
  e.rate_bpm = event.rate_bpm;
  return e;
}

FrameType frame_type(const Frame& frame) noexcept {
  struct Visitor {
    FrameType operator()(const SubscribeFrame&) { return FrameType::Subscribe; }
    FrameType operator()(const HeartbeatFrame&) { return FrameType::Heartbeat; }
    FrameType operator()(const SubAckFrame&) { return FrameType::SubAck; }
    FrameType operator()(const EventFrame&) { return FrameType::Event; }
    FrameType operator()(const GapFrame&) { return FrameType::Gap; }
    FrameType operator()(const ShedFrame&) { return FrameType::Shed; }
  };
  return std::visit(Visitor{}, frame);
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  llrp::ByteWriter w;
  w.u16(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(frame_type(frame)));
  const std::size_t len_at = w.size();
  w.u32(0);  // payload length, patched below

  struct Payload {
    llrp::ByteWriter& w;
    void operator()(const SubscribeFrame& f) {
      w.u8(static_cast<std::uint8_t>(f.filter.kind));
      w.u64(f.filter.id);
      w.u8(static_cast<std::uint8_t>(f.policy));
      w.u64(f.resume_cursor);
    }
    void operator()(const HeartbeatFrame& f) { w.f64(f.client_time_s); }
    void operator()(const SubAckFrame& f) {
      w.u64(f.subscription_id);
      w.u64(f.next_seq);
      w.u64(f.replayed);
      w.u64(f.gap);
    }
    void operator()(const EventFrame& f) {
      w.u64(f.event.seq);
      w.u16(f.event.shard);
      w.u8(static_cast<std::uint8_t>(f.event.kind));
      w.u8(static_cast<std::uint8_t>(f.event.health));
      w.u8(f.event.reliable ? 1 : 0);
      w.u64(f.event.user_id);
      w.f64(f.event.time_s);
      w.f64(f.event.rate_bpm);
    }
    void operator()(const GapFrame& f) {
      w.u64(f.next_seq);
      w.u64(f.dropped);
    }
    void operator()(const ShedFrame& f) {
      w.u8(static_cast<std::uint8_t>(f.reason));
    }
  };
  std::visit(Payload{w}, frame);
  w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - len_at - 4));
  return w.take();
}

FrameParser::FrameParser(std::size_t max_payload) : max_payload_(max_payload) {}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  // Compact once the dead prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (head_ > 4096 && head_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameParser::next() {
  if (buffered() < kFrameHeaderBytes) return std::nullopt;
  llrp::ByteReader header(
      std::span<const std::uint8_t>(buffer_).subspan(head_, kFrameHeaderBytes));
  const std::uint16_t magic = header.u16();
  if (magic != kWireMagic)
    throw llrp::DecodeError("telemetry: bad frame magic " +
                            std::to_string(magic));
  const std::uint8_t version = header.u8();
  if (version != kWireVersion)
    throw llrp::DecodeError("telemetry: unsupported wire version " +
                            std::to_string(version));
  const std::uint8_t raw_type = header.u8();
  const std::uint32_t payload_len = header.u32();
  if (payload_len > max_payload_)
    throw llrp::DecodeError("telemetry: oversized frame payload " +
                            std::to_string(payload_len));
  if (buffered() < kFrameHeaderBytes + payload_len) return std::nullopt;

  llrp::ByteReader r(std::span<const std::uint8_t>(buffer_).subspan(
      head_ + kFrameHeaderBytes, payload_len));
  Frame frame;
  switch (checked_enum<FrameType>(raw_type, kFrameTypeCount + 1, "frame type")) {
    case FrameType::Subscribe: {
      SubscribeFrame f;
      f.filter.kind =
          checked_enum<FilterKind>(r.u8(), kFilterKindCount, "filter kind");
      f.filter.id = r.u64();
      f.policy = checked_enum<OverflowPolicy>(r.u8(), kOverflowPolicyCount,
                                              "overflow policy");
      f.resume_cursor = r.u64();
      frame = f;
      break;
    }
    case FrameType::Heartbeat: {
      HeartbeatFrame f;
      f.client_time_s = r.f64();
      frame = f;
      break;
    }
    case FrameType::SubAck: {
      SubAckFrame f;
      f.subscription_id = r.u64();
      f.next_seq = r.u64();
      f.replayed = r.u64();
      f.gap = r.u64();
      frame = f;
      break;
    }
    case FrameType::Event: {
      EventFrame f;
      f.event.seq = r.u64();
      f.event.shard = r.u16();
      f.event.kind = checked_enum<core::PipelineEventKind>(r.u8(), 4,
                                                           "event kind");
      f.event.health =
          checked_enum<core::SignalHealth>(r.u8(), 3, "signal health");
      f.event.reliable = r.u8() != 0;
      f.event.user_id = r.u64();
      f.event.time_s = r.f64();
      f.event.rate_bpm = r.f64();
      frame = f;
      break;
    }
    case FrameType::Gap: {
      GapFrame f;
      f.next_seq = r.u64();
      f.dropped = r.u64();
      frame = f;
      break;
    }
    case FrameType::Shed: {
      ShedFrame f;
      f.reason =
          checked_enum<ShedReason>(r.u8(), kShedReasonCount, "shed reason");
      frame = f;
      break;
    }
    default:
      throw llrp::DecodeError("telemetry: unknown frame type " +
                              std::to_string(raw_type));
  }
  if (!r.empty())
    throw llrp::DecodeError("telemetry: trailing bytes in frame payload");
  head_ += kFrameHeaderBytes + payload_len;
  return frame;
}

}  // namespace tagbreathe::telemetry
