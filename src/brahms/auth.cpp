#include "brahms/auth.hpp"

#include <cstring>

#include "crypto/hmac.hpp"

namespace raptee::brahms {

namespace auth_detail {

crypto::AuthToken mac_proof(const crypto::SymmetricKey& key, const char* domain,
                            const crypto::AuthNonce& a, const crypto::AuthNonce& b) {
  crypto::HmacSha256 mac(key.bytes().data(), key.bytes().size());
  mac.update(domain);
  mac.update(a.data(), a.size());
  mac.update(b.data(), b.size());
  const crypto::Digest256 d = mac.finish();
  crypto::AuthToken token{};
  std::memcpy(token.data(), d.data(), token.size());
  return token;
}

bool tokens_equal(const crypto::AuthToken& a, const crypto::AuthToken& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace auth_detail

using auth_detail::mac_proof;
using auth_detail::tokens_equal;

KeyedAuthenticator::KeyedAuthenticator(AuthMode mode, crypto::SymmetricKey key,
                                       crypto::Drbg drbg)
    : mode_(mode), key_(key), drbg_(std::move(drbg)) {}

crypto::AuthChallenge KeyedAuthenticator::make_challenge() {
  crypto::AuthChallenge challenge;
  drbg_.fill(challenge.r_a.data(), challenge.r_a.size());
  return challenge;
}

crypto::AuthResponse KeyedAuthenticator::make_response(
    const crypto::AuthChallenge& challenge) {
  crypto::AuthResponse response;
  drbg_.fill(response.r_b.data(), response.r_b.size());
  switch (mode_) {
    case AuthMode::kFull:
      response.proof_b = crypto::make_proof(key_, challenge.r_a, response.r_b);
      break;
    case AuthMode::kFingerprint:
      response.proof_b = mac_proof(key_, "resp", challenge.r_a, response.r_b);
      break;
  }
  return response;
}

bool KeyedAuthenticator::verify_response(const crypto::AuthChallenge& challenge,
                                         const crypto::AuthResponse& response,
                                         crypto::AuthConfirm* confirm_out) {
  bool trusted = false;
  crypto::AuthConfirm confirm;
  switch (mode_) {
    case AuthMode::kFull:
      trusted = crypto::check_proof(key_, challenge.r_a, response.r_b, response.proof_b);
      confirm.proof_a = crypto::make_proof(key_, response.r_b, challenge.r_a);
      break;
    case AuthMode::kFingerprint:
      trusted = tokens_equal(response.proof_b,
                             mac_proof(key_, "resp", challenge.r_a, response.r_b));
      confirm.proof_a = mac_proof(key_, "init", response.r_b, challenge.r_a);
      break;
  }
  if (confirm_out != nullptr) *confirm_out = confirm;
  return trusted;
}

bool KeyedAuthenticator::verify_confirm(const crypto::AuthChallenge& challenge,
                                        const crypto::AuthResponse& response,
                                        const crypto::AuthConfirm& confirm) {
  switch (mode_) {
    case AuthMode::kFull:
      return crypto::check_proof(key_, response.r_b, challenge.r_a, confirm.proof_a);
    case AuthMode::kFingerprint:
      return tokens_equal(confirm.proof_a,
                          mac_proof(key_, "init", response.r_b, challenge.r_a));
  }
  return false;
}

}  // namespace raptee::brahms
