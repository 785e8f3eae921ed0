#include "common/bytes.hpp"

#include <stdexcept>

namespace tagbreathe::common {

namespace {

// The width is a template argument, so that each width compiles to its
// own constant shifts instead of one loop over a run-time width.

/// Byte `i` of the `Width`-byte encoding of `v`.
template <ByteOrder Order, std::size_t Width>
std::uint8_t byte_at(std::uint64_t v, std::size_t i) {
  const std::size_t shift = 8 * (Order == ByteOrder::Big ? Width - 1 - i : i);
  return static_cast<std::uint8_t>(v >> shift);
}

template <ByteOrder Order, std::size_t Width>
void append(std::vector<std::uint8_t>& buffer, std::uint64_t v) {
  for (std::size_t i = 0; i < Width; ++i)
    buffer.push_back(byte_at<Order, Width>(v, i));
}

template <ByteOrder Order, std::size_t Width>
void patch(std::vector<std::uint8_t>& buffer, std::size_t offset,
           std::uint64_t v) {
  if (offset > buffer.size() || Width > buffer.size() - offset)
    throw std::out_of_range("ByteWriter: patch past end");
  for (std::size_t i = 0; i < Width; ++i)
    buffer[offset + i] = byte_at<Order, Width>(v, i);
}

}  // namespace

template <ByteOrder Order>
void ByteWriter<Order>::u8(std::uint8_t v) {
  buffer_.push_back(v);
}

template <ByteOrder Order>
void ByteWriter<Order>::u16(std::uint16_t v) {
  append<Order, 2>(buffer_, v);
}

template <ByteOrder Order>
void ByteWriter<Order>::u32(std::uint32_t v) {
  append<Order, 4>(buffer_, v);
}

template <ByteOrder Order>
void ByteWriter<Order>::u64(std::uint64_t v) {
  append<Order, 8>(buffer_, v);
}

template <ByteOrder Order>
void ByteWriter<Order>::f64(double v) {
  append<Order, 8>(buffer_, std::bit_cast<std::uint64_t>(v));
}

template <ByteOrder Order>
void ByteWriter<Order>::bytes(std::span<const std::uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

template <ByteOrder Order>
void ByteWriter<Order>::patch_u16(std::size_t offset, std::uint16_t v) {
  patch<Order, 2>(buffer_, offset, v);
}

template <ByteOrder Order>
void ByteWriter<Order>::patch_u32(std::size_t offset, std::uint32_t v) {
  patch<Order, 4>(buffer_, offset, v);
}

template class ByteWriter<ByteOrder::Big>;
template class ByteWriter<ByteOrder::Little>;

std::string truncation_message(std::size_t count, std::size_t have) {
  return "truncated input: need " + std::to_string(count) + " bytes, have " +
         std::to_string(have);
}

}  // namespace tagbreathe::common
