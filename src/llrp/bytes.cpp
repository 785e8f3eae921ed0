#include "llrp/bytes.hpp"

namespace tagbreathe::llrp {

void ByteWriter::u8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buffer_.size())
    throw std::out_of_range("ByteWriter::patch_u32 past end");
  for (int i = 0; i < 4; ++i)
    buffer_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buffer_.size())
    throw std::out_of_range("ByteWriter::patch_u16 past end");
  buffer_[offset] = static_cast<std::uint8_t>(v >> 8);
  buffer_[offset + 1] = static_cast<std::uint8_t>(v);
}

void ByteReader::throw_truncated(std::size_t count) const {
  throw DecodeError("truncated data: need " + std::to_string(count) +
                    " bytes, have " + std::to_string(remaining()));
}

std::vector<std::uint8_t> ByteReader::bytes(std::size_t count) {
  const auto v = view(count);
  return {v.begin(), v.end()};
}

}  // namespace tagbreathe::llrp
