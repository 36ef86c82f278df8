#include "crypto/hmac.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "crypto/hmac_kernel.hpp"

namespace raptee::crypto {

namespace detail {

Digest256 hmac_counter_portable(const Sha256::State& inner, const Sha256::State& outer,
                                std::uint64_t counter) {
  std::uint8_t ctr_bytes[8];
  for (int i = 0; i < 8; ++i) ctr_bytes[i] = static_cast<std::uint8_t>(counter >> (8 * i));
  HmacSha256 mac(inner, outer);
  mac.update(ctr_bytes, sizeof ctr_bytes);
  return mac.finish();
}

Digest256 hmac_tagged_portable(const Sha256::State& inner, const Sha256::State& outer,
                               std::span<const std::uint8_t, 4> tag,
                               std::span<const std::uint8_t, 16> first,
                               std::span<const std::uint8_t, 16> second) {
  HmacSha256 mac(inner, outer);
  mac.update(tag.data(), tag.size());
  mac.update(first.data(), first.size());
  mac.update(second.data(), second.size());
  return mac.finish();
}

const HmacKernels& hmac_kernels() {
  static const HmacKernels kernels = [] {
    const HmacCounter counter = hmac_counter_shani_kernel();
    const HmacTagged tagged = hmac_tagged_shani_kernel();
    return HmacKernels{counter != nullptr ? counter : &hmac_counter_portable,
                       tagged != nullptr ? tagged : &hmac_tagged_portable};
  }();
  return kernels;
}

}  // namespace detail

HmacKey::HmacKey(const std::uint8_t* key, std::size_t key_len) {
  std::array<std::uint8_t, 64> block_key{};
  if (key_len > block_key.size()) {
    const Digest256 kd = sha256(key, key_len);
    std::memcpy(block_key.data(), kd.data(), kd.size());
  } else {
    std::memcpy(block_key.data(), key, key_len);
  }
  std::array<std::uint8_t, 64> pad{};
  for (std::size_t i = 0; i < pad.size(); ++i) {
    pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
  }
  Sha256 inner;
  inner.update(pad.data(), pad.size());
  inner_ = inner.chaining_value();
  for (std::size_t i = 0; i < pad.size(); ++i) {
    pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  }
  Sha256 outer;
  outer.update(pad.data(), pad.size());
  outer_ = outer.chaining_value();
}

Digest256 HmacKey::mac_counter(std::uint64_t counter) const {
  return detail::hmac_kernels().counter(inner_, outer_, counter);
}

Digest256 HmacKey::mac_tagged(std::span<const std::uint8_t, 4> tag,
                              std::span<const std::uint8_t, 16> first,
                              std::span<const std::uint8_t, 16> second) const {
  return detail::hmac_kernels().tagged(inner_, outer_, tag, first, second);
}

Digest256 HmacSha256::finish() {
  const Digest256 inner_digest = inner_.finish();
  Sha256 outer(outer_, 1);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest256 hmac_sha256(const std::uint8_t* key, std::size_t key_len,
                      const std::uint8_t* data, std::size_t data_len) {
  HmacSha256 mac(key, key_len);
  mac.update(data, data_len);
  return mac.finish();
}

Digest256 hmac_sha256(const std::vector<std::uint8_t>& key, std::string_view data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

std::vector<std::uint8_t> hkdf_sha256(const std::vector<std::uint8_t>& salt,
                                      const std::vector<std::uint8_t>& ikm,
                                      std::string_view info, std::size_t length) {
  RAPTEE_REQUIRE(length <= 255 * 32, "HKDF output limited to 255 blocks");
  // Extract
  HmacSha256 extract(salt.empty() ? std::vector<std::uint8_t>(32, 0) : salt);
  extract.update(ikm);
  const Digest256 prk = extract.finish();

  // Expand
  std::vector<std::uint8_t> okm;
  okm.reserve(length);
  Digest256 t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    HmacSha256 mac(prk.data(), prk.size());
    mac.update(t.data(), t_len);
    mac.update(info);
    mac.update(&counter, 1);
    t = mac.finish();
    t_len = t.size();
    const std::size_t take = std::min(t.size(), length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
    ++counter;
  }
  return okm;
}

}  // namespace raptee::crypto
