#include "crypto/key.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace raptee::crypto {

SymmetricKey SymmetricKey::derive(std::string_view label) const {
  const auto okm = hkdf_sha256(/*salt=*/{}, to_vector(), label, kBytes);
  std::array<std::uint8_t, kBytes> out{};
  std::memcpy(out.data(), okm.data(), kBytes);
  return SymmetricKey(out);
}

std::uint64_t SymmetricKey::fingerprint() const {
  const Digest256 d = sha256(bytes_.data(), bytes_.size());
  std::uint64_t fp = 0;
  for (int i = 0; i < 8; ++i) fp = (fp << 8) | d[static_cast<std::size_t>(i)];
  return fp;
}

namespace {

HmacKey drbg_seed_key(std::uint64_t seed, std::string_view personalization) {
  std::uint8_t seed_bytes[8];
  for (int i = 0; i < 8; ++i) seed_bytes[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  HmacSha256 mac(seed_bytes, sizeof seed_bytes);
  mac.update(personalization);
  const Digest256 key = mac.finish();
  return HmacKey(key.data(), key.size());
}

}  // namespace

Drbg::Drbg(std::uint64_t seed, std::string_view personalization)
    : seed_key_(drbg_seed_key(seed, personalization)) {}

void Drbg::fill(std::uint8_t* out, std::size_t len) {
  while (len > 0) {
    std::uint8_t ctr_bytes[8];
    for (int i = 0; i < 8; ++i) ctr_bytes[i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
    ++counter_;
    HmacSha256 mac(seed_key_);
    mac.update(ctr_bytes, sizeof ctr_bytes);
    const Digest256 block = mac.finish();
    const std::size_t take = std::min<std::size_t>(len, block.size());
    std::memcpy(out, block.data(), take);
    out += take;
    len -= take;
  }
}

std::vector<std::uint8_t> Drbg::bytes(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  fill(out.data(), out.size());
  return out;
}

std::uint64_t Drbg::next_u64() {
  std::uint8_t buf[8];
  fill(buf, sizeof buf);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return v;
}

SymmetricKey Drbg::generate_key() {
  std::array<std::uint8_t, SymmetricKey::kBytes> bytes{};
  fill(bytes.data(), bytes.size());
  return SymmetricKey(bytes);
}

std::array<std::uint8_t, 12> Drbg::generate_nonce() {
  std::array<std::uint8_t, 12> nonce{};
  fill(nonce.data(), nonce.size());
  return nonce;
}

Drbg Drbg::fork(std::string_view label) {
  Drbg child(next_u64(), label);
  return child;
}

}  // namespace raptee::crypto
