// Symmetric key material and a deterministic DRBG.
//
// Key model (paper §IV-A): every untrusted node generates a random secret
// key at initialization; all trusted nodes share a common *group* secret
// provisioned during remote attestation. Keys here are 256-bit.
//
// The DRBG is HMAC-SHA-256 in counter mode seeded from the simulation seed —
// deterministic so that experiments reproduce, yet structurally the same as
// a deployed CSPRNG. It keeps its state key as an HmacKey schedule, so each
// 32-byte output block is one HmacKey::mac_counter kernel call: two SHA-256
// compressions, register-resident on CPUs with SHA-NI.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/hmac.hpp"

namespace raptee::crypto {

/// 256-bit symmetric secret.
class SymmetricKey {
 public:
  static constexpr std::size_t kBytes = 32;

  SymmetricKey() = default;
  explicit SymmetricKey(std::array<std::uint8_t, kBytes> bytes) : bytes_(bytes) {}

  [[nodiscard]] const std::array<std::uint8_t, kBytes>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> to_vector() const {
    return {bytes_.begin(), bytes_.end()};
  }

  /// Derives a purpose-bound subkey (HKDF with `label` as info).
  [[nodiscard]] SymmetricKey derive(std::string_view label) const;

  /// Short public fingerprint (first 8 bytes of SHA-256 of the key). Safe to
  /// expose: preimage-resistant, reveals only equality of keys — and RAPTEE
  /// never sends it in clear anyway (see auth protocol).
  [[nodiscard]] std::uint64_t fingerprint() const;

  friend bool operator==(const SymmetricKey& a, const SymmetricKey& b) {
    // Constant-time compare.
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < kBytes; ++i) diff |= a.bytes_[i] ^ b.bytes_[i];
    return diff == 0;
  }
  friend bool operator!=(const SymmetricKey& a, const SymmetricKey& b) {
    return !(a == b);
  }

 private:
  std::array<std::uint8_t, kBytes> bytes_{};
};

/// Deterministic HMAC-DRBG (simplified SP 800-90A shape): out_i =
/// HMAC(seed_key, counter), seed_key = HMAC(seed, personalization).
/// Fork-able for independent streams.
class Drbg {
 public:
  explicit Drbg(std::uint64_t seed, std::string_view personalization = "raptee-drbg");

  /// Fills `out` with pseudo-random bytes.
  void fill(std::uint8_t* out, std::size_t len);
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t len);
  [[nodiscard]] std::uint64_t next_u64();
  [[nodiscard]] SymmetricKey generate_key();
  [[nodiscard]] std::array<std::uint8_t, 12> generate_nonce();

  /// Derives an independent DRBG (e.g. one per node).
  [[nodiscard]] Drbg fork(std::string_view label);

 private:
  HmacKey seed_key_;  ///< schedule of seed_key
  std::uint64_t counter_ = 0;
};

}  // namespace raptee::crypto
