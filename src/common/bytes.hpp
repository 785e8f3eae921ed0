// Bounds-checked byte codec shared by every binary format: LLRP and
// telemetry frames (big-endian on the wire), journal segments and
// snapshots (little-endian on disk). Each format fixes its byte order,
// and the error a truncated read throws, with one alias of each class
// (llrp::ByteWriter/ByteReader, core::ByteWriter/ByteReader).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tagbreathe::common {

enum class ByteOrder { Big, Little };

/// Append-only byte buffer. The appends are out of line, instantiated
/// once per order in bytes.cpp.
template <ByteOrder Order>
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// The IEEE-754 bits, as a u64.
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);

  /// Overwrite a value written earlier at `offset` (message and
  /// parameter lengths are back-filled once the body size is known).
  /// Throws std::out_of_range past the end.
  void patch_u16(std::size_t offset, std::uint16_t v);
  void patch_u32(std::size_t offset, std::uint32_t v);

  void clear() noexcept { buffer_.clear(); }
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  std::size_t size() const noexcept { return buffer_.size(); }
  std::span<const std::uint8_t> data() const noexcept { return buffer_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

extern template class ByteWriter<ByteOrder::Big>;
extern template class ByteWriter<ByteOrder::Little>;

/// "truncated input: need `count` bytes, have `have`".
std::string truncation_message(std::size_t count, std::size_t have);

/// Reader over a byte range. A read past the end throws `Error`, the
/// format's own decode error: a truncated input fails loudly instead of
/// reading garbage.
template <ByteOrder Order, class Error>
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  // The fixed-width reads are inline: the tag-report walker makes
  // several per read.
  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(fixed(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed(4)); }
  std::uint64_t u64() { return fixed(8); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::vector<std::uint8_t> bytes(std::size_t count) {
    const auto v = view(count);
    return {v.begin(), v.end()};
  }
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
  bool empty() const noexcept { return remaining() == 0; }

 private:
  void need(std::size_t count) const {
    if (count > remaining()) throw_truncated(count, remaining());
  }
  // Static, so that the throw path does not force a reader out of
  // registers.
  [[noreturn]] static void throw_truncated(std::size_t count,
                                           std::size_t have) {
    throw Error(truncation_message(count, have));
  }
  std::uint64_t fixed(std::size_t width) {
    need(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      const std::uint64_t byte = data_[pos_ + i];
      if constexpr (Order == ByteOrder::Big) v = (v << 8) | byte;
      else v |= byte << (8 * i);
    }
    pos_ += width;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace tagbreathe::common
