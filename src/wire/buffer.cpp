#include "wire/buffer.hpp"

#include <cstring>

namespace raptee::wire {

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::raw(const std::uint8_t* data, std::size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void Writer::bytes_field(const std::vector<std::uint8_t>& v) {
  varint(v.size());
  raw(v.data(), v.size());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw WireError("truncated input: need " + std::to_string(n) + " bytes, have " +
                    std::to_string(remaining()));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t byte = data_[pos_++];
    if (shift == 63 && (byte & 0x7E)) throw WireError("varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) return v;
    shift += 7;
    if (shift > 63) throw WireError("varint too long");
  }
}

void Reader::raw(std::uint8_t* out, std::size_t len) {
  need(len);
  // An empty bytes_field hands in an empty vector's data(), which may be
  // null, and memcpy must not see a null pointer even for zero bytes.
  if (len == 0) return;
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
}

std::vector<std::uint8_t> Reader::bytes_field() {
  const std::uint64_t len = varint();
  if (len > remaining()) throw WireError("bytes field longer than input");
  std::vector<std::uint8_t> out(static_cast<std::size_t>(len));
  raw(out.data(), out.size());
  return out;
}

std::vector<NodeId> Reader::node_ids(std::size_t max_count) {
  std::vector<NodeId> ids;
  node_ids_into(ids, max_count);
  return ids;
}

void Reader::node_ids_into(std::vector<NodeId>& out, std::size_t max_count) {
  const std::uint64_t count = varint();
  if (count > max_count) throw WireError("node id list exceeds bound");
  if (count * 4 > remaining()) throw WireError("node id list longer than input");
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(node_id());
}

void Reader::expect_done() const {
  if (!done()) throw WireError("trailing bytes: " + std::to_string(remaining()));
}

}  // namespace raptee::wire
