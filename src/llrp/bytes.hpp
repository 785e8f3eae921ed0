// Big-endian byte codec for the llrp-lite wire format.
//
// LLRP (EPCglobal Low Level Reader Protocol) is a big-endian binary
// protocol of framed messages containing nested TLV/TV parameters. This
// module provides the bounds-checked primitive reads/writes everything
// above is built from.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace tagbreathe::llrp {

/// Thrown on truncated or malformed wire data.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Signed 16-bit (RSSI fields are signed in LLRP).
  void i16(std::int16_t v);
  void bytes(std::span<const std::uint8_t> data);

  /// Patches a previously written u32 at `offset` (message/parameter
  /// lengths are back-filled once the body size is known).
  void patch_u32(std::size_t offset, std::uint32_t v);
  void patch_u16(std::size_t offset, std::uint16_t v);

  std::size_t size() const noexcept { return buffer_.size(); }
  const std::vector<std::uint8_t>& data() const noexcept { return buffer_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  // The fixed-width reads are inline: the tag-report walker makes
  // several per read.
  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(big_endian(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(big_endian(4)); }
  std::uint64_t u64() { return big_endian(8); }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::vector<std::uint8_t> bytes(std::size_t count);
  /// The next `count` bytes without copying; advances past them.
  std::span<const std::uint8_t> view(std::size_t count) {
    need(count);
    const auto out = data_.subspan(pos_, count);
    pos_ += count;
    return out;
  }

  /// Reader over the next `count` bytes; advances this reader past them.
  ByteReader sub(std::size_t count) { return ByteReader(view(count)); }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool empty() const noexcept { return remaining() == 0; }

 private:
  void need(std::size_t count) const {
    if (count > remaining()) throw_truncated(count);
  }
  [[noreturn]] void throw_truncated(std::size_t count) const;
  std::uint64_t big_endian(std::size_t width) {
    need(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += width;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace tagbreathe::llrp
