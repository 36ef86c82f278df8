#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "crypto/sha256_kernel.hpp"

namespace raptee::crypto {

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_compress_portable(Sha256::State& state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g; g = f; f = e;
      e = d + temp1;
      d = c; c = b; b = a;
      a = temp1 + temp2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

Sha256Compress sha256_kernel() {
  static const Sha256Compress kernel = [] {
    const Sha256Compress shani = sha256_shani_kernel();
    return shani != nullptr ? shani : &sha256_compress_portable;
  }();
  return kernel;
}

}  // namespace detail

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_bits_ = 0;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  total_bits_ += static_cast<std::uint64_t>(len) * 8;
  const detail::Sha256Compress compress = detail::sha256_kernel();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress(h_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks compress straight from the caller's bytes.
  const std::size_t blocks = len / buffer_.size();
  if (blocks > 0) {
    compress(h_, data, blocks);
    data += blocks * buffer_.size();
    len -= blocks * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

const Sha256::State& Sha256::chaining_value() const {
  RAPTEE_ASSERT(buffer_len_ == 0);
  return h_;
}

Digest256 Sha256::finish() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length. The length takes
  // the last 8 bytes of a block; when the 0x80 byte leaves no room for it,
  // the zeros run to the end of this block and a second block follows.
  const detail::Sha256Compress compress = detail::sha256_kernel();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    compress(h_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
  }
  compress(h_, buffer_.data(), 1);
  buffer_len_ = 0;

  Digest256 out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Digest256 sha256(const std::uint8_t* data, std::size_t len) {
  Sha256 ctx;
  ctx.update(data, len);
  return ctx.finish();
}

Digest256 sha256(std::string_view s) {
  // raptee-lint: allow(cast-allowlist) audited byte pun: char -> uint8_t view of the same buffer
  return sha256(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

Digest256 sha256(const std::vector<std::uint8_t>& v) { return sha256(v.data(), v.size()); }

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (auto byte : bytes) {
    out.push_back(hex[byte >> 4]);
    out.push_back(hex[byte & 0xF]);
  }
  return out;
}

bool digest_equal(const Digest256& a, const Digest256& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace raptee::crypto
