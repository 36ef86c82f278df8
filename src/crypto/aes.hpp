// AES-128 / AES-256 block cipher (FIPS 197) with CTR-mode streaming
// (NIST SP 800-38A), implemented from scratch for this offline
// reproduction. The paper's implementation uses Intel SGX-SSL AES-CTR for
// symmetric link encryption and for the mutual-authentication protocol's
// `[H(rA·rB)]_K` operation; this module provides both.
//
// A software table-based implementation (not constant-time against cache
// timing); acceptable here because the adversary lives inside the simulator
// and has no microarchitectural channel.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace raptee::crypto {

using Block = std::array<std::uint8_t, 16>;

/// Expanded-key AES context supporting the two key sizes used in practice.
class Aes {
 public:
  enum class KeySize { k128, k256 };

  Aes(const std::uint8_t* key, KeySize size);
  static Aes aes256(const std::array<std::uint8_t, 32>& key) {
    return Aes(key.data(), KeySize::k256);
  }

  /// Encrypts one 16-byte block in place. CTR mode only ever encrypts, so
  /// there is no block decryption.
  void encrypt_block(Block& block) const;

  [[nodiscard]] int rounds() const { return rounds_; }

 private:
  int rounds_ = 0;                              // 10 for AES-128, 14 for AES-256
  std::array<std::uint32_t, 60> round_keys_{};  // max 15 round keys * 4 words
};

/// AES-CTR keystream cipher. Encryption and decryption are the same
/// operation (XOR with the keystream). The 16-byte initial counter block is
/// conventionally nonce(12) || counter(4, big-endian).
class AesCtr {
 public:
  AesCtr(const Aes& aes, const Block& initial_counter);

  /// XORs the keystream into `data` in place.
  void process(std::uint8_t* data, std::size_t len);
  void process(std::vector<std::uint8_t>& data) { process(data.data(), data.size()); }

  /// Resets to a new counter block (fresh message under the same key).
  void reset(const Block& initial_counter);

 private:
  void refill();

  const Aes& aes_;
  Block counter_{};
  Block keystream_{};
  std::size_t keystream_used_ = 16;
};

/// One-shot CTR transform: returns data XOR keystream(key, counter0).
[[nodiscard]] std::vector<std::uint8_t> aes_ctr_transform(
    const Aes& aes, const Block& initial_counter, const std::vector<std::uint8_t>& data);

/// Builds the conventional initial counter block nonce(12) || big-endian 0.
[[nodiscard]] Block make_counter_block(const std::array<std::uint8_t, 12>& nonce,
                                       std::uint32_t initial = 0);

}  // namespace raptee::crypto
