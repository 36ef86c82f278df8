// EnclaveAuthenticator: the trusted node's key holder for the mutual-auth
// handshake. brahms::Authenticator runs the handshake itself, the same
// lines an untrusted node runs; this subclass only forwards each proof and
// each check to the sgx::Enclave as one ecall, so the group key never
// exists outside the enclave.
#pragma once

#include "brahms/auth.hpp"
#include "common/prefetch.hpp"
#include "sgx/enclave.hpp"

namespace raptee::core {

class EnclaveAuthenticator final : public brahms::Authenticator {
 public:
  /// The enclave must already be provisioned (attested) — asserted.
  EnclaveAuthenticator(brahms::AuthMode mode, sgx::Enclave& enclave, crypto::Drbg drbg);

  void prefetch() const override { prefetch_bytes(this, sizeof *this); }

 private:
  [[nodiscard]] crypto::AuthToken prove(crypto::AuthLeg leg, const crypto::AuthNonce& first,
                                        const crypto::AuthNonce& second) override;
  [[nodiscard]] bool check(crypto::AuthLeg leg, const crypto::AuthNonce& first,
                           const crypto::AuthNonce& second,
                           const crypto::AuthToken& token) override;

  sgx::Enclave& enclave_;
};

}  // namespace raptee::core
