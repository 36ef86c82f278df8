#include "crypto/aes.hpp"

#include <cstring>

#include "common/assert.hpp"

namespace raptee::crypto {

namespace {

// S-box from FIPS 197.
constexpr std::array<std::uint8_t, 256> kSbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr std::uint32_t sub_word(std::uint32_t w) {
  return (static_cast<std::uint32_t>(kSbox[(w >> 24) & 0xFF]) << 24) |
         (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xFF]) << 16) |
         (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xFF]) << 8) |
         static_cast<std::uint32_t>(kSbox[w & 0xFF]);
}

constexpr std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

constexpr std::array<std::uint32_t, 15> kRcon = {
    0x00000000, 0x01000000, 0x02000000, 0x04000000, 0x08000000,
    0x10000000, 0x20000000, 0x40000000, 0x80000000, 0x1b000000,
    0x36000000, 0x6c000000, 0xd8000000, 0xab000000, 0x4d000000};

}  // namespace

Aes::Aes(const std::uint8_t* key, KeySize size) {
  const int nk = (size == KeySize::k128) ? 4 : 8;
  rounds_ = (size == KeySize::k128) ? 10 : 14;
  const int total_words = 4 * (rounds_ + 1);

  for (int i = 0; i < nk; ++i) {
    round_keys_[i] = (static_cast<std::uint32_t>(key[4 * i]) << 24) |
                     (static_cast<std::uint32_t>(key[4 * i + 1]) << 16) |
                     (static_cast<std::uint32_t>(key[4 * i + 2]) << 8) |
                     static_cast<std::uint32_t>(key[4 * i + 3]);
  }
  for (int i = nk; i < total_words; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ kRcon[i / nk];
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
}

namespace {

void add_round_key(Block& s, const std::uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    s[4 * c] ^= static_cast<std::uint8_t>(rk[c] >> 24);
    s[4 * c + 1] ^= static_cast<std::uint8_t>(rk[c] >> 16);
    s[4 * c + 2] ^= static_cast<std::uint8_t>(rk[c] >> 8);
    s[4 * c + 3] ^= static_cast<std::uint8_t>(rk[c]);
  }
}

void sub_bytes(Block& s) {
  for (auto& b : s) b = kSbox[b];
}

// State layout: s[4*c + r] is row r, column c (column-major as in FIPS 197).
void shift_rows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) s[4 * c + r] = t[4 * ((c + r) % 4) + r];
  }
}

void mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

}  // namespace

void Aes::encrypt_block(Block& block) const {
  add_round_key(block, &round_keys_[0]);
  for (int round = 1; round < rounds_; ++round) {
    sub_bytes(block);
    shift_rows(block);
    mix_columns(block);
    add_round_key(block, &round_keys_[4 * round]);
  }
  sub_bytes(block);
  shift_rows(block);
  add_round_key(block, &round_keys_[4 * rounds_]);
}

AesCtr::AesCtr(const Aes& aes, const Block& initial_counter)
    : aes_(aes), counter_(initial_counter) {}

void AesCtr::reset(const Block& initial_counter) {
  counter_ = initial_counter;
  keystream_used_ = 16;
}

void AesCtr::refill() {
  keystream_ = counter_;
  aes_.encrypt_block(keystream_);
  keystream_used_ = 0;
  // Increment the low 32 bits big-endian (SP 800-38A standard increment).
  for (int i = 15; i >= 12; --i) {
    if (++counter_[i] != 0) break;
  }
}

void AesCtr::process(std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (keystream_used_ == 16) refill();
    data[i] ^= keystream_[keystream_used_++];
  }
}

std::vector<std::uint8_t> aes_ctr_transform(const Aes& aes, const Block& initial_counter,
                                            const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> out = data;
  AesCtr ctr(aes, initial_counter);
  ctr.process(out);
  return out;
}

Block make_counter_block(const std::array<std::uint8_t, 12>& nonce, std::uint32_t initial) {
  Block block{};
  std::memcpy(block.data(), nonce.data(), nonce.size());
  block[12] = static_cast<std::uint8_t>(initial >> 24);
  block[13] = static_cast<std::uint8_t>(initial >> 16);
  block[14] = static_cast<std::uint8_t>(initial >> 8);
  block[15] = static_cast<std::uint8_t>(initial);
  return block;
}

}  // namespace raptee::crypto
