#include "core/enclave_auth.hpp"

#include "common/assert.hpp"

namespace raptee::core {

using brahms::AuthMode;
using brahms::auth_detail::tokens_equal;

EnclaveAuthenticator::EnclaveAuthenticator(AuthMode mode, sgx::Enclave& enclave,
                                           crypto::Drbg drbg)
    : mode_(mode), enclave_(enclave), drbg_(std::move(drbg)) {
  RAPTEE_REQUIRE(enclave_.has_group_key(),
                 "EnclaveAuthenticator requires a provisioned enclave");
}

crypto::AuthChallenge EnclaveAuthenticator::make_challenge() {
  crypto::AuthChallenge challenge;
  drbg_.fill(challenge.r_a.data(), challenge.r_a.size());
  return challenge;
}

crypto::AuthResponse EnclaveAuthenticator::make_response(
    const crypto::AuthChallenge& challenge) {
  crypto::AuthResponse response;
  drbg_.fill(response.r_b.data(), response.r_b.size());
  switch (mode_) {
    case AuthMode::kFull:
      response.proof_b = enclave_.auth_make_proof(challenge.r_a, response.r_b);
      break;
    case AuthMode::kFingerprint:
      response.proof_b = enclave_.auth_mac_proof("resp", challenge.r_a, response.r_b);
      break;
  }
  return response;
}

bool EnclaveAuthenticator::verify_response(const crypto::AuthChallenge& challenge,
                                           const crypto::AuthResponse& response,
                                           crypto::AuthConfirm* confirm_out) {
  bool trusted = false;
  crypto::AuthConfirm confirm;
  switch (mode_) {
    case AuthMode::kFull:
      trusted = enclave_.auth_check_proof(challenge.r_a, response.r_b, response.proof_b);
      confirm.proof_a = enclave_.auth_make_proof(response.r_b, challenge.r_a);
      break;
    case AuthMode::kFingerprint:
      trusted = tokens_equal(
          response.proof_b, enclave_.auth_mac_proof("resp", challenge.r_a, response.r_b));
      confirm.proof_a = enclave_.auth_mac_proof("init", response.r_b, challenge.r_a);
      break;
  }
  if (confirm_out != nullptr) *confirm_out = confirm;
  return trusted;
}

bool EnclaveAuthenticator::verify_confirm(const crypto::AuthChallenge& challenge,
                                          const crypto::AuthResponse& response,
                                          const crypto::AuthConfirm& confirm) {
  switch (mode_) {
    case AuthMode::kFull:
      return enclave_.auth_check_proof(response.r_b, challenge.r_a, confirm.proof_a);
    case AuthMode::kFingerprint:
      return tokens_equal(confirm.proof_a,
                          enclave_.auth_mac_proof("init", response.r_b, challenge.r_a));
  }
  return false;
}

}  // namespace raptee::core
