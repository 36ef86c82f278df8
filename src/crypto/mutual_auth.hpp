// RAPTEE mutual-authentication protocol (paper §IV-A): the messages, and
// the proofs one key makes and checks.
//
// Goal: let two trusted nodes discover that they share the attested group
// secret, while any mixed or untrusted pair learns nothing except "not my
// key". Three messages, run before every pull request:
//
//   A -> B : rA                                  (random challenge)
//   B -> A : rB, [H(rA · rB)]_KB                 (proof under B's key)
//   A -> B : [H(rB · rA)]_KA                     (proof under A's key)
//
// A checks B's token against its own key KA; if it matches, the keys are
// identical and A marks B trusted. B symmetrically checks A's third
// message. Who sends which message, and when, is brahms::Authenticator's
// job; this file only says what a proof is.
//
// Two behaviourally-equivalent transports (design decision D5), chosen by
// AuthMode:
//   kFull        — the paper's proof: H(first · second) under AES-256-CTR
//                  with a nonce derived from both challenges (fresh per
//                  handshake, preventing replay), hashing with SHA-256. The
//                  nonce order alone separates message 2 from message 3.
//   kFingerprint — HMAC-SHA-256(key, domain · first · second), the domain
//                  naming the leg ("resp" for message 2, "init" for
//                  message 3). It is one HmacKey::mac_tagged call from
//                  the key's cached HMAC schedule, so a whole handshake
//                  (two DRBG blocks and four proofs) costs about 0.75 µs
//                  against about 8 µs for kFull (4-vCPU x86-64 KVM guest
//                  with SHA extensions, GCC 12, RelWithDebInfo).
// Both yield the same trust decision: a proof checks iff both keys are
// equal. ProofKey holds the only switch between them.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/hmac.hpp"
#include "crypto/key.hpp"

namespace raptee::crypto {

/// 16-byte handshake challenge.
using AuthNonce = std::array<std::uint8_t, 16>;

/// 32-byte proof token.
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

/// The proof transport (design decision D5).
enum class AuthMode : std::uint8_t { kFull, kFingerprint };

/// Which message a proof travels in: message 2 (the responder's proof over
/// rA · rB) or message 3 (the initiator's proof over rB · rA).
enum class AuthLeg : std::uint8_t { kResponse, kConfirm };

/// A handshake key: the symmetric key plus its HMAC schedule, built once.
/// Both are key-equivalent secrets.
class ProofKey {
 public:
  explicit ProofKey(const SymmetricKey& key);

  [[nodiscard]] const SymmetricKey& key() const { return key_; }

  /// This key's proof over (first, second) for `leg`.
  [[nodiscard]] AuthToken prove(AuthMode mode, AuthLeg leg, const AuthNonce& first,
                                const AuthNonce& second) const;
  /// Whether `token` is this key's proof over (first, second) for `leg`.
  [[nodiscard]] bool check(AuthMode mode, AuthLeg leg, const AuthNonce& first,
                           const AuthNonce& second, const AuthToken& token) const;

 private:
  SymmetricKey key_;
  HmacKey mac_key_;
};

/// kFull's proof: encrypts H(first · second) under `key` with a nonce bound
/// to both challenges. Exposed for white-box tests.
[[nodiscard]] AuthToken make_proof(const SymmetricKey& key, const AuthNonce& first,
                                   const AuthNonce& second);

/// Verifies a kFull proof token against H(first · second) under `key`.
[[nodiscard]] bool check_proof(const SymmetricKey& key, const AuthNonce& first,
                               const AuthNonce& second, const AuthToken& token);

}  // namespace raptee::crypto
