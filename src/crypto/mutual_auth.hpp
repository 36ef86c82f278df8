// RAPTEE mutual-authentication protocol (paper §IV-A).
//
// Goal: let two trusted nodes discover that they share the attested group
// secret, while any mixed or untrusted pair learns nothing except "not my
// key". Three messages, run before every pull request:
//
//   A -> B : rA                                  (random challenge)
//   B -> A : rB, [H(rA · rB)]_KB                 (proof under B's key)
//   A -> B : [H(rB · rA)]_KA                     (proof under A's key)
//
// A decrypts B's token with its own key KA; if the result equals H(rA·rB),
// the keys are identical and A marks B trusted. B symmetrically verifies
// A's third message. Encryption is AES-256-CTR with a nonce derived from
// both challenges (fresh per handshake, preventing replay), hashing is
// SHA-256.
//
// Cost note: the simulation offers two behaviourally-equivalent transports
// (design decision D5): the full three-message handshake below and a single
// keyed-MAC comparison. Tests assert both yield identical trust decisions.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/key.hpp"
#include "crypto/sha256.hpp"

namespace raptee::crypto {

/// 16-byte handshake challenge.
using AuthNonce = std::array<std::uint8_t, 16>;

/// Encrypted 32-byte proof token.
using AuthToken = std::array<std::uint8_t, 32>;

/// Message 1 (A -> B).
struct AuthChallenge {
  AuthNonce r_a{};
};

/// Message 2 (B -> A).
struct AuthResponse {
  AuthNonce r_b{};
  AuthToken proof_b{};  // [H(rA · rB)]_KB
};

/// Message 3 (A -> B).
struct AuthConfirm {
  AuthToken proof_a{};  // [H(rB · rA)]_KA
};

/// Initiator-side state machine.
class AuthInitiator {
 public:
  AuthInitiator(const SymmetricKey& own_key, Drbg& rng);

  /// Produces message 1.
  [[nodiscard]] AuthChallenge challenge() const { return {r_a_}; }

  /// Consumes message 2; returns true iff the responder proved knowledge of
  /// our key (i.e. both parties are trusted). Always produces message 3 so
  /// the traffic pattern is identical either way (the confirm token is
  /// garbage-but-well-formed under our own key when authentication failed —
  /// indistinguishable from a genuine token without the group key).
  bool consume_response(const AuthResponse& response, AuthConfirm& out_confirm);

  [[nodiscard]] bool peer_trusted() const { return peer_trusted_; }

 private:
  SymmetricKey key_;
  AuthNonce r_a_{};
  bool peer_trusted_ = false;
};

/// Responder-side state machine.
class AuthResponder {
 public:
  AuthResponder(const SymmetricKey& own_key, Drbg& rng);

  /// Consumes message 1, produces message 2.
  [[nodiscard]] AuthResponse respond(const AuthChallenge& challenge);

  /// Consumes message 3; afterwards peer_trusted() reports whether the
  /// initiator shares our key.
  void consume_confirm(const AuthConfirm& confirm);

  [[nodiscard]] bool peer_trusted() const { return peer_trusted_; }

 private:
  SymmetricKey key_;
  AuthNonce r_a_{};
  AuthNonce r_b_{};
  bool peer_trusted_ = false;
};

/// Encrypts H(first · second) under `key` with a nonce bound to both
/// challenges. Exposed for white-box tests.
[[nodiscard]] AuthToken make_proof(const SymmetricKey& key, const AuthNonce& first,
                                   const AuthNonce& second);

/// Verifies a proof token: decrypts under `key` and compares against
/// H(first · second).
[[nodiscard]] bool check_proof(const SymmetricKey& key, const AuthNonce& first,
                               const AuthNonce& second, const AuthToken& token);

}  // namespace raptee::crypto
