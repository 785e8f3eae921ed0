#include "llrp/message.hpp"

namespace tagbreathe::llrp {

const char* message_type_name(MessageType type) noexcept {
  switch (type) {
    case MessageType::GetReaderCapabilities: return "GET_READER_CAPABILITIES";
    case MessageType::GetReaderCapabilitiesResponse:
      return "GET_READER_CAPABILITIES_RESPONSE";
    case MessageType::AddRoSpec: return "ADD_ROSPEC";
    case MessageType::AddRoSpecResponse: return "ADD_ROSPEC_RESPONSE";
    case MessageType::DeleteRoSpec: return "DELETE_ROSPEC";
    case MessageType::DeleteRoSpecResponse: return "DELETE_ROSPEC_RESPONSE";
    case MessageType::StartRoSpec: return "START_ROSPEC";
    case MessageType::StartRoSpecResponse: return "START_ROSPEC_RESPONSE";
    case MessageType::StopRoSpec: return "STOP_ROSPEC";
    case MessageType::StopRoSpecResponse: return "STOP_ROSPEC_RESPONSE";
    case MessageType::EnableRoSpec: return "ENABLE_ROSPEC";
    case MessageType::EnableRoSpecResponse: return "ENABLE_ROSPEC_RESPONSE";
    case MessageType::CloseConnection: return "CLOSE_CONNECTION";
    case MessageType::CloseConnectionResponse:
      return "CLOSE_CONNECTION_RESPONSE";
    case MessageType::RoAccessReport: return "RO_ACCESS_REPORT";
    case MessageType::KeepAlive: return "KEEPALIVE";
    case MessageType::ReaderEventNotification:
      return "READER_EVENT_NOTIFICATION";
    case MessageType::ErrorMessage: return "ERROR_MESSAGE";
  }
  return "UNKNOWN";
}

std::vector<std::uint8_t> encode_message(const Message& message) {
  ByteWriter w;
  const std::uint16_t version_type =
      static_cast<std::uint16_t>((kProtocolVersion & 0x7) << 10) |
      (static_cast<std::uint16_t>(message.type) & 0x3FF);
  w.u16(version_type);
  w.u32(static_cast<std::uint32_t>(kHeaderBytes + message.body.size()));
  w.u32(message.message_id);
  w.bytes(message.body);
  return w.take();
}

Message decode_message(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  const std::uint16_t version_type = r.u16();
  const std::uint8_t version = (version_type >> 10) & 0x7;
  if (version != kProtocolVersion)
    throw DecodeError("unsupported protocol version " +
                      std::to_string(version));
  Message m;
  m.type = static_cast<MessageType>(version_type & 0x3FF);
  const std::uint32_t length = r.u32();
  if (length < kHeaderBytes)
    throw DecodeError("message length below header size");
  if (length != wire.size())
    throw DecodeError("message length mismatch");
  m.message_id = r.u32();
  m.body = r.bytes(length - kHeaderBytes);
  return m;
}

void MessageFramer::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void MessageFramer::reset() noexcept { buffer_.clear(); }

bool is_known_message_type(std::uint16_t type) noexcept {
  switch (static_cast<MessageType>(type)) {
    case MessageType::GetReaderCapabilities:
    case MessageType::GetReaderCapabilitiesResponse:
    case MessageType::AddRoSpec:
    case MessageType::AddRoSpecResponse:
    case MessageType::DeleteRoSpec:
    case MessageType::DeleteRoSpecResponse:
    case MessageType::StartRoSpec:
    case MessageType::StartRoSpecResponse:
    case MessageType::StopRoSpec:
    case MessageType::StopRoSpecResponse:
    case MessageType::EnableRoSpec:
    case MessageType::EnableRoSpecResponse:
    case MessageType::CloseConnection:
    case MessageType::CloseConnectionResponse:
    case MessageType::RoAccessReport:
    case MessageType::KeepAlive:
    case MessageType::ReaderEventNotification:
    case MessageType::ErrorMessage:
      return true;
  }
  return false;
}

MessageFramer::HeaderCheck MessageFramer::check_header(
    std::size_t pos) const noexcept {
  const std::size_t avail = buffer_.size() - pos;
  if (avail == 0) return HeaderCheck::NeedMore;
  // Version bits live in the top of the first byte.
  if (((buffer_[pos] >> 2) & 0x7) != kProtocolVersion)
    return HeaderCheck::Implausible;
  if (avail < 2) return HeaderCheck::NeedMore;
  // Requiring a known message type makes false sync points rare (a
  // random byte pair passes version+type with probability ~2e-3, not
  // 1/8), so a resync almost always lands on a true frame boundary
  // instead of mid-body garbage that stalls the stream. The reads below
  // stay within `avail`, so the reader never throws here.
  ByteReader header(std::span<const std::uint8_t>(buffer_).subspan(pos));
  if (!is_known_message_type(header.u16() & 0x3FF))
    return HeaderCheck::Implausible;
  if (avail < 6) return HeaderCheck::NeedMore;  // length not visible yet
  const std::uint32_t length = header.u32();
  if (length < kHeaderBytes || length > kMaxFrameBytes)
    return HeaderCheck::Implausible;
  return HeaderCheck::Plausible;
}

void MessageFramer::resync(std::size_t from_pos) {
  std::size_t pos = from_pos;
  while (pos < buffer_.size() &&
         check_header(pos) == HeaderCheck::Implausible)
    ++pos;
  ++stats_.resyncs;
  stats_.bytes_skipped += pos;
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
}

bool MessageFramer::next(Message& out) {
  while (!buffer_.empty()) {
    switch (check_header(0)) {
      case HeaderCheck::Implausible:
        resync(1);
        continue;
      case HeaderCheck::NeedMore:
        return false;
      case HeaderCheck::Plausible:
        break;
    }
    const std::uint32_t length =
        ByteReader(std::span<const std::uint8_t>(buffer_).subspan(2)).u32();
    if (buffer_.size() < length) return false;
    try {
      out = decode_message(
          std::span<const std::uint8_t>(buffer_.data(), length));
    } catch (const DecodeError&) {
      // Header looked fine but the frame is damaged; shift one byte and
      // hunt for the next frame boundary.
      resync(1);
      continue;
    }
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(length));
    ++stats_.messages;
    return true;
  }
  return false;
}

}  // namespace tagbreathe::llrp
