// Authenticated link encryption: AES-256-CTR + HMAC-SHA-256,
// encrypt-then-MAC, with an explicit 64-bit sequence number as nonce.
//
// Models the paper's requirement that "communications between any two
// nodes, including trusted ones, are cyphered with symmetric encryption to
// protect against an eavesdropping adversary" (§III-B). The simulator can
// route every message leg through a LinkCipher pair (sealed mode) or skip
// the byte round-trip (fast mode) — tests assert both modes deliver
// identical payloads.
//
// Frame layout: seq(8) || ciphertext || tag(32).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key.hpp"

namespace raptee::wire {

class LinkCipher {
 public:
  /// `secret` is the shared link secret; independent encryption and MAC
  /// subkeys are derived from it. `direction` domain-separates the two
  /// directions of a duplex link so A->B and B->A never reuse a keystream.
  LinkCipher(const crypto::SymmetricKey& secret, std::uint8_t direction);

  /// Seals a plaintext frame; consumes one sequence number.
  [[nodiscard]] std::vector<std::uint8_t> seal(const std::vector<std::uint8_t>& plaintext);
  /// Allocation-free variant: clears and refills the caller-owned `frame`
  /// (its capacity amortizes across legs — in steady state sealing
  /// allocates nothing).
  void seal_into(const std::uint8_t* plaintext, std::size_t len,
                 std::vector<std::uint8_t>& frame);

  /// Opens a frame; returns nullopt on any authenticity/ordering failure
  /// (bad tag, truncated frame, replayed or reordered sequence number).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> open(
      const std::vector<std::uint8_t>& frame);
  /// Allocation-free variant: on success fills the caller-owned `plaintext`
  /// and returns true; on failure returns false and leaves `plaintext`
  /// unspecified. Never allocates once `plaintext` has warmed capacity.
  [[nodiscard]] bool open_into(const std::uint8_t* frame, std::size_t len,
                               std::vector<std::uint8_t>& plaintext);

  [[nodiscard]] std::uint64_t sent() const { return send_seq_; }
  [[nodiscard]] std::uint64_t received() const { return recv_seq_; }

 private:
  [[nodiscard]] crypto::Block counter_block_for(std::uint64_t seq) const;

  crypto::Aes aes_;
  crypto::HmacKey mac_key_;
  std::uint8_t direction_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace raptee::wire
