// NodeFactory — assembles protocol participants with correctly wired
// key material. Every node runs the same brahms::Authenticator handshake;
// only where its key lives differs:
//   * honest untrusted nodes: a fresh random secret key the node holds
//     (KeyedAuthenticator);
//   * trusted nodes: the group key inside a genuine enclave, attested and
//     provisioned by the shared AttestationService (EnclaveAuthenticator).
//
// The factory owns the attestation service and the master key-generation
// DRBG, so a whole experiment population shares one consistent trust root.
#pragma once

#include <functional>
#include <memory>

#include "brahms/node.hpp"
#include "core/raptee_node.hpp"
#include "sgx/attestation.hpp"

namespace raptee::core {

class NodeFactory {
 public:
  NodeFactory(std::uint64_t seed, brahms::AuthMode auth_mode,
              const sgx::CycleModel* cycle_model = nullptr);

  /// An honest untrusted node (modified Brahms with its own random key).
  [[nodiscard]] std::unique_ptr<brahms::BrahmsNode> make_honest(
      NodeId id, const brahms::BrahmsConfig& config,
      std::function<bool(NodeId)> alive_probe = {});

  /// A trusted node: instantiates the genuine enclave, runs attestation,
  /// and wires the enclave-backed authenticator.
  [[nodiscard]] std::unique_ptr<RapteeNode> make_trusted(
      NodeId id, const RapteeConfig& config,
      std::function<bool(NodeId)> alive_probe = {});

  [[nodiscard]] sgx::AttestationService& attestation() { return attestation_; }
  [[nodiscard]] brahms::AuthMode auth_mode() const { return auth_mode_; }

 private:
  brahms::AuthMode auth_mode_;
  const sgx::CycleModel* cycle_model_;
  sgx::AttestationService attestation_;
  crypto::Drbg key_drbg_;
  Rng rng_;
};

}  // namespace raptee::core
