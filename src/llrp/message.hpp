// llrp-lite message framing.
//
// Messages follow the LLRP header layout: a 16-bit field carrying the
// protocol version (3 bits) and message type (10 bits), a 32-bit total
// length (header included), and a 32-bit message ID used to pair
// responses with requests. Message type numbers follow the LLRP 1.1
// assignments for the subset we implement.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace tagbreathe::llrp {

/// Thrown on truncated or malformed wire data.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// LLRP is big-endian on the wire, and so are the telemetry frames.
using ByteWriter = common::ByteWriter<common::ByteOrder::Big>;
using ByteReader = common::ByteReader<common::ByteOrder::Big, DecodeError>;

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 10;

enum class MessageType : std::uint16_t {
  GetReaderCapabilities = 1,
  GetReaderCapabilitiesResponse = 11,
  AddRoSpec = 20,
  AddRoSpecResponse = 30,
  DeleteRoSpec = 21,
  DeleteRoSpecResponse = 31,
  StartRoSpec = 22,
  StartRoSpecResponse = 32,
  StopRoSpec = 23,
  StopRoSpecResponse = 33,
  EnableRoSpec = 24,
  EnableRoSpecResponse = 34,
  CloseConnection = 14,
  CloseConnectionResponse = 4,
  RoAccessReport = 61,
  KeepAlive = 62,
  ReaderEventNotification = 63,
  ErrorMessage = 100,
};

const char* message_type_name(MessageType type) noexcept;

/// True when `type` (the 10-bit wire value) is a message this dialect
/// implements. The framer uses it to tell real frame boundaries from
/// corrupted-stream coincidences.
bool is_known_message_type(std::uint16_t type) noexcept;

struct Message {
  MessageType type = MessageType::KeepAlive;
  std::uint32_t message_id = 0;
  /// Message body (everything after the 10-byte header).
  std::vector<std::uint8_t> body;
};

/// Serialises header + body.
std::vector<std::uint8_t> encode_message(const Message& message);

/// Parses one complete message. Throws DecodeError on malformed input.
Message decode_message(std::span<const std::uint8_t> wire);

/// Stream framer: accumulates bytes and yields complete messages, as a
/// TCP-borne LLRP connection would.
///
/// Robust against a damaged stream: a header whose version bits are
/// wrong or whose length field is implausible (below the header size or
/// above kMaxFrameBytes) cannot stall or desynchronize the framer — it
/// skips forward to the next byte position that could start a valid
/// header and keeps going, counting the resync. A single corrupted byte
/// therefore costs at most the frames it touched, never the connection.
class MessageFramer {
 public:
  /// Upper bound on one frame. Real LLRP reports are tens of KiB at
  /// most (TLV lengths are 16-bit); anything claiming more is damage.
  /// Kept tight so a corrupted-but-plausible length field can only make
  /// the framer wait for a bounded number of bytes before the stream
  /// self-corrects (or the session watchdog resets it).
  static constexpr std::size_t kMaxFrameBytes = 1 << 16;

  struct Stats {
    std::size_t messages = 0;      // complete frames handed out
    std::size_t resyncs = 0;       // times the framer skipped garbage
    std::size_t bytes_skipped = 0; // bytes discarded while resyncing
  };

  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete message, if any. Never throws: garbage
  /// is skipped (see class comment), not surfaced.
  bool next(Message& out);

  /// Drops all buffered bytes (a new connection starts mid-stream clean).
  void reset() noexcept;

  std::size_t buffered_bytes() const noexcept { return buffer_.size(); }
  const Stats& stats() const noexcept { return stats_; }

 private:
  /// Could `buffer_[pos..]` start a valid frame? Judged on however many
  /// header bytes are available.
  enum class HeaderCheck { Implausible, NeedMore, Plausible };
  HeaderCheck check_header(std::size_t pos) const noexcept;
  /// Drops bytes up to the next position that could start a frame.
  void resync(std::size_t from_pos);

  std::vector<std::uint8_t> buffer_;
  Stats stats_;
};

}  // namespace tagbreathe::llrp
