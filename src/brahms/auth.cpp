#include "brahms/auth.hpp"

#include <utility>

namespace raptee::brahms {

using crypto::AuthLeg;

Authenticator::Authenticator(AuthMode mode, crypto::Drbg drbg)
    : mode_(mode), drbg_(std::move(drbg)) {}

crypto::AuthChallenge Authenticator::make_challenge() {
  crypto::AuthChallenge challenge;
  drbg_.fill(challenge.r_a.data(), challenge.r_a.size());
  return challenge;
}

crypto::AuthResponse Authenticator::make_response(const crypto::AuthChallenge& challenge) {
  crypto::AuthResponse response;
  drbg_.fill(response.r_b.data(), response.r_b.size());
  response.proof_b = prove(AuthLeg::kResponse, challenge.r_a, response.r_b);
  return response;
}

bool Authenticator::verify_response(const crypto::AuthChallenge& challenge,
                                    const crypto::AuthResponse& response,
                                    crypto::AuthConfirm* confirm_out) {
  const bool trusted =
      check(AuthLeg::kResponse, challenge.r_a, response.r_b, response.proof_b);
  const crypto::AuthConfirm confirm{prove(AuthLeg::kConfirm, response.r_b, challenge.r_a)};
  if (confirm_out != nullptr) *confirm_out = confirm;
  return trusted;
}

bool Authenticator::verify_confirm(const crypto::AuthChallenge& challenge,
                                   const crypto::AuthResponse& response,
                                   const crypto::AuthConfirm& confirm) {
  return check(AuthLeg::kConfirm, response.r_b, challenge.r_a, confirm.proof_a);
}

KeyedAuthenticator::KeyedAuthenticator(AuthMode mode, crypto::SymmetricKey key,
                                       crypto::Drbg drbg)
    : Authenticator(mode, std::move(drbg)), key_(key) {}

crypto::AuthToken KeyedAuthenticator::prove(AuthLeg leg, const crypto::AuthNonce& first,
                                            const crypto::AuthNonce& second) {
  return key_.prove(mode(), leg, first, second);
}

bool KeyedAuthenticator::check(AuthLeg leg, const crypto::AuthNonce& first,
                               const crypto::AuthNonce& second,
                               const crypto::AuthToken& token) {
  return key_.check(mode(), leg, first, second, token);
}

}  // namespace raptee::brahms
