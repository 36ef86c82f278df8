// HMAC-SHA-256 (RFC 2104 / FIPS 198-1) and an HKDF-style key derivation.
// Used for message authentication on encrypted links, attestation quotes,
// and deriving per-purpose subkeys from node master secrets.
//
// HmacKey is a key's schedule: the SHA-256 chaining values after one block
// of key XOR ipad and one of key XOR opad, 64 bytes built once per key. A
// MAC started from it skips both pad compressions, so a message of up to
// 55 bytes costs two compressions instead of four. Code that MACs many
// messages under one key (the DRBG, the authenticators, the link ciphers,
// the enclave) keeps one. A schedule is key-equivalent material: guard it
// like the key.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"

namespace raptee::crypto {

/// A fixed key's HMAC-SHA-256 schedule (see the file comment).
class HmacKey {
 public:
  /// Keys longer than a block are hashed first, as RFC 2104 says.
  HmacKey(const std::uint8_t* key, std::size_t key_len);

 private:
  friend class HmacSha256;
  Sha256::State inner_{};  ///< after the block key XOR ipad
  Sha256::State outer_{};  ///< after the block key XOR opad
};

/// Incremental HMAC-SHA-256.
class HmacSha256 {
 public:
  /// Starts from a precomputed schedule.
  explicit HmacSha256(const HmacKey& key) : inner_(key.inner_, 1), outer_(key.outer_) {}
  HmacSha256(const std::uint8_t* key, std::size_t key_len)
      : HmacSha256(HmacKey(key, key_len)) {}
  explicit HmacSha256(const std::vector<std::uint8_t>& key)
      : HmacSha256(key.data(), key.size()) {}

  void update(const std::uint8_t* data, std::size_t len) { inner_.update(data, len); }
  void update(std::string_view s) { inner_.update(s); }
  void update(const std::vector<std::uint8_t>& v) { inner_.update(v); }

  [[nodiscard]] Digest256 finish();

 private:
  Sha256 inner_;
  Sha256::State outer_;
};

/// One-shot HMAC.
[[nodiscard]] Digest256 hmac_sha256(const std::uint8_t* key, std::size_t key_len,
                                    const std::uint8_t* data, std::size_t data_len);
[[nodiscard]] Digest256 hmac_sha256(const std::vector<std::uint8_t>& key,
                                    std::string_view data);

/// HKDF-Extract-then-Expand (RFC 5869), SHA-256 based, producing `length`
/// bytes of key material bound to `info`.
[[nodiscard]] std::vector<std::uint8_t> hkdf_sha256(
    const std::vector<std::uint8_t>& salt, const std::vector<std::uint8_t>& ikm,
    std::string_view info, std::size_t length);

}  // namespace raptee::crypto
