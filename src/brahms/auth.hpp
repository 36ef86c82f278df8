// Authenticator abstraction used by every node for the challenge–response
// that precedes pull requests (paper §IV-A).
//
// KeyedAuthenticator implements the two behaviourally-equivalent
// transports of design decision D5:
//   kFull        — the paper's exact 3-message protocol (AES-256-CTR +
//                  SHA-256 proofs); used by tests and examples.
//   kFingerprint — a single keyed MAC per direction proving knowledge of
//                  the same key; same trust decisions. Default for
//                  simulation sweeps. Its MACs start from the key's cached
//                  HMAC schedule, so one whole handshake (challenge,
//                  response, both checks) costs about 1.5 µs against about
//                  8 µs for kFull (4-vCPU x86-64 KVM guest with SHA
//                  extensions, GCC 12, RelWithDebInfo; perfbench's
//                  brahms.auth_handshake_us reads 1.56 µs).
//
// A gtest (test_auth_modes) asserts the two modes produce identical trust
// decisions over identical populations.
#pragma once

#include <memory>

#include "crypto/hmac.hpp"
#include "crypto/key.hpp"
#include "crypto/mutual_auth.hpp"

namespace raptee::brahms {

enum class AuthMode : std::uint8_t { kFull, kFingerprint };

class IAuthenticator {
 public:
  virtual ~IAuthenticator() = default;

  /// Initiator: auth message 1.
  [[nodiscard]] virtual crypto::AuthChallenge make_challenge() = 0;
  /// Responder: auth message 2.
  [[nodiscard]] virtual crypto::AuthResponse make_response(
      const crypto::AuthChallenge& challenge) = 0;
  /// Initiator: verifies message 2 against the challenge it sent, fills the
  /// confirm (message 3), and returns whether the responder proved knowledge
  /// of this node's key.
  [[nodiscard]] virtual bool verify_response(const crypto::AuthChallenge& challenge,
                                             const crypto::AuthResponse& response,
                                             crypto::AuthConfirm* confirm_out) = 0;
  /// Responder: verifies message 3 against the (challenge, response) pair.
  [[nodiscard]] virtual bool verify_confirm(const crypto::AuthChallenge& challenge,
                                            const crypto::AuthResponse& response,
                                            const crypto::AuthConfirm& confirm) = 0;
};

/// Authenticator bound to a symmetric key (per-node random key for untrusted
/// nodes; the attested group key for trusted nodes — in that case the key
/// lives inside the enclave and core::EnclaveAuthenticator is used instead).
class KeyedAuthenticator final : public IAuthenticator {
 public:
  KeyedAuthenticator(AuthMode mode, crypto::SymmetricKey key, crypto::Drbg drbg);

  [[nodiscard]] crypto::AuthChallenge make_challenge() override;
  [[nodiscard]] crypto::AuthResponse make_response(
      const crypto::AuthChallenge& challenge) override;
  [[nodiscard]] bool verify_response(const crypto::AuthChallenge& challenge,
                                     const crypto::AuthResponse& response,
                                     crypto::AuthConfirm* confirm_out) override;
  [[nodiscard]] bool verify_confirm(const crypto::AuthChallenge& challenge,
                                    const crypto::AuthResponse& response,
                                    const crypto::AuthConfirm& confirm) override;

  [[nodiscard]] AuthMode mode() const { return mode_; }

 private:
  AuthMode mode_;
  crypto::SymmetricKey key_;  ///< kFull's AES and SHA-256 proofs
  crypto::HmacKey mac_key_;   ///< key_'s schedule, for kFingerprint's MACs
  crypto::Drbg drbg_;
};

/// Helpers shared with the enclave-backed authenticator (core/):
namespace auth_detail {
/// Fingerprint-mode proof: HMAC(key, domain || a || b) truncated to 32 bytes.
[[nodiscard]] crypto::AuthToken mac_proof(const crypto::HmacKey& key, const char* domain,
                                          const crypto::AuthNonce& a,
                                          const crypto::AuthNonce& b);
[[nodiscard]] bool tokens_equal(const crypto::AuthToken& a, const crypto::AuthToken& b);
}  // namespace auth_detail

}  // namespace raptee::brahms
