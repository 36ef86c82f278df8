#include "core/enclave_auth.hpp"

#include <utility>

#include "common/assert.hpp"

namespace raptee::core {

EnclaveAuthenticator::EnclaveAuthenticator(brahms::AuthMode mode, sgx::Enclave& enclave,
                                           crypto::Drbg drbg)
    : Authenticator(mode, std::move(drbg)), enclave_(enclave) {
  RAPTEE_REQUIRE(enclave_.has_group_key(),
                 "EnclaveAuthenticator requires a provisioned enclave");
}

crypto::AuthToken EnclaveAuthenticator::prove(crypto::AuthLeg leg,
                                              const crypto::AuthNonce& first,
                                              const crypto::AuthNonce& second) {
  return enclave_.auth_prove(mode(), leg, first, second);
}

bool EnclaveAuthenticator::check(crypto::AuthLeg leg, const crypto::AuthNonce& first,
                                 const crypto::AuthNonce& second,
                                 const crypto::AuthToken& token) {
  return enclave_.auth_check(mode(), leg, first, second, token);
}

}  // namespace raptee::core
