// The challenge–response every node runs before each pull (paper §IV-A).
//
// Authenticator runs the whole handshake: it draws the nonces from its
// DRBG, orders them for each leg and always sends a confirm, trusted or
// not. A subclass says only where the key lives, through two private
// calls, prove and check:
//   KeyedAuthenticator            — the node holds the key (a per-node
//                                   random key for an untrusted node);
//   core::EnclaveAuthenticator    — an sgx::Enclave holds the attested
//                                   group key and every proof is an ecall.
// So trusted and untrusted nodes run the same lines and send the same
// traffic: the camouflage the §VI-A identification attack tries to break.
// The proof transport (kFull or kFingerprint, design decision D5) is the
// AuthMode; crypto::ProofKey implements both.
//
// A gtest (test_auth_modes) asserts both modes produce identical trust
// decisions for either kind of key holder.
#pragma once

#include "common/prefetch.hpp"
#include "crypto/key.hpp"
#include "crypto/mutual_auth.hpp"

namespace raptee::brahms {

using AuthMode = crypto::AuthMode;

class Authenticator {
 public:
  Authenticator(AuthMode mode, crypto::Drbg drbg);
  virtual ~Authenticator() = default;
  Authenticator(const Authenticator&) = delete;
  Authenticator& operator=(const Authenticator&) = delete;

  /// Initiator: auth message 1.
  [[nodiscard]] crypto::AuthChallenge make_challenge();
  /// Responder: auth message 2.
  [[nodiscard]] crypto::AuthResponse make_response(const crypto::AuthChallenge& challenge);
  /// Initiator: verifies message 2 against the challenge it sent, fills the
  /// confirm (message 3), and returns whether the responder proved knowledge
  /// of this node's key. The confirm is a well-formed proof under this
  /// node's key either way, so a failed handshake looks like a good one.
  [[nodiscard]] bool verify_response(const crypto::AuthChallenge& challenge,
                                     const crypto::AuthResponse& response,
                                     crypto::AuthConfirm* confirm_out);
  /// Responder: verifies message 3 against the (challenge, response) pair.
  [[nodiscard]] bool verify_confirm(const crypto::AuthChallenge& challenge,
                                    const crypto::AuthResponse& response,
                                    const crypto::AuthConfirm& confirm);

  [[nodiscard]] AuthMode mode() const { return mode_; }

  /// Hints the cache lines of this authenticator's own state, the DRBG's
  /// schedule and the key holder's, ahead of an exchange (the hint
  /// sim::INode::prefetch gives). Each final class covers its own extent.
  virtual void prefetch() const = 0;

 private:
  /// This node's proof over (first, second) for `leg`.
  [[nodiscard]] virtual crypto::AuthToken prove(crypto::AuthLeg leg,
                                                const crypto::AuthNonce& first,
                                                const crypto::AuthNonce& second) = 0;
  /// Whether `token` is the proof this node's key makes over (first, second).
  [[nodiscard]] virtual bool check(crypto::AuthLeg leg, const crypto::AuthNonce& first,
                                   const crypto::AuthNonce& second,
                                   const crypto::AuthToken& token) = 0;

  AuthMode mode_;
  crypto::Drbg drbg_;
};

/// Authenticator whose node holds its key.
class KeyedAuthenticator final : public Authenticator {
 public:
  KeyedAuthenticator(AuthMode mode, crypto::SymmetricKey key, crypto::Drbg drbg);

  void prefetch() const override { prefetch_bytes(this, sizeof *this); }

 private:
  [[nodiscard]] crypto::AuthToken prove(crypto::AuthLeg leg, const crypto::AuthNonce& first,
                                        const crypto::AuthNonce& second) override;
  [[nodiscard]] bool check(crypto::AuthLeg leg, const crypto::AuthNonce& first,
                           const crypto::AuthNonce& second,
                           const crypto::AuthToken& token) override;

  crypto::ProofKey key_;
};

}  // namespace raptee::brahms
