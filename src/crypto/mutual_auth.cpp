#include "crypto/mutual_auth.hpp"

#include <cstring>

#include "crypto/aes.hpp"
#include "crypto/sha256.hpp"

namespace raptee::crypto {

namespace {

/// Nonce for the proof cipher: first 12 bytes of H(first · second · "nonce").
/// Binding the CTR nonce to both challenges makes every handshake's
/// keystream fresh, so tokens cannot be replayed across handshakes.
Block proof_counter_block(const AuthNonce& first, const AuthNonce& second) {
  Sha256 ctx;
  ctx.update(first.data(), first.size());
  ctx.update(second.data(), second.size());
  ctx.update("raptee-auth-nonce");
  const Digest256 d = ctx.finish();
  std::array<std::uint8_t, 12> nonce{};
  std::memcpy(nonce.data(), d.data(), nonce.size());
  return make_counter_block(nonce);
}

/// The domains naming a proof's leg: message 2, message 3.
constexpr std::array<std::uint8_t, 4> kResponseDomain{'r', 'e', 's', 'p'};
constexpr std::array<std::uint8_t, 4> kConfirmDomain{'i', 'n', 'i', 't'};

/// kFingerprint's proof: HMAC(key, domain || first || second), a whole
/// digest per token.
AuthToken mac_proof(const HmacKey& key, AuthLeg leg, const AuthNonce& first,
                    const AuthNonce& second) {
  return key.mac_tagged(leg == AuthLeg::kResponse ? kResponseDomain : kConfirmDomain, first,
                        second);
}

/// Constant-time token comparison.
bool tokens_equal(const AuthToken& a, const AuthToken& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace

AuthToken make_proof(const SymmetricKey& key, const AuthNonce& first,
                     const AuthNonce& second) {
  Sha256 ctx;
  ctx.update(first.data(), first.size());
  ctx.update(second.data(), second.size());
  const Digest256 h = ctx.finish();
  AuthToken token{};
  std::memcpy(token.data(), h.data(), h.size());
  const Aes aes = Aes::aes256(key.bytes());
  AesCtr ctr(aes, proof_counter_block(first, second));
  ctr.process(token.data(), token.size());
  return token;
}

bool check_proof(const SymmetricKey& key, const AuthNonce& first, const AuthNonce& second,
                 const AuthToken& token) {
  // CTR encryption is an XOR with the keystream, so a token decrypts to
  // H(first · second) exactly when it equals that hash's encryption.
  return tokens_equal(token, make_proof(key, first, second));
}

ProofKey::ProofKey(const SymmetricKey& key)
    : key_(key), mac_key_(key.bytes().data(), key.bytes().size()) {}

AuthToken ProofKey::prove(AuthMode mode, AuthLeg leg, const AuthNonce& first,
                          const AuthNonce& second) const {
  switch (mode) {
    case AuthMode::kFull: return make_proof(key_, first, second);
    case AuthMode::kFingerprint: return mac_proof(mac_key_, leg, first, second);
  }
  return {};
}

bool ProofKey::check(AuthMode mode, AuthLeg leg, const AuthNonce& first,
                     const AuthNonce& second, const AuthToken& token) const {
  switch (mode) {
    case AuthMode::kFull: return check_proof(key_, first, second, token);
    case AuthMode::kFingerprint:
      return tokens_equal(token, mac_proof(mac_key_, leg, first, second));
  }
  return false;
}

}  // namespace raptee::crypto
