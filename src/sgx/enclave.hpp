// Enclave emulation runtime.
//
// What the paper uses: Intel SGX SDK enclaves whose code is remotely
// attested; attestation provisions the trusted group secret into the
// enclave; the secret never leaves it; Byzantine nodes can neither read
// enclave memory nor forge attested code.
//
// What we build (substitution, DESIGN.md §2): an Enclave object that
//   * carries a measurement (SHA-256 of its code identity string);
//   * holds the group secret in private state, set only through the
//     attestation flow (AttestationService is the sole befriended writer —
//     C++ access control models the hardware isolation boundary);
//   * exposes only the operations the trusted RAPTEE logic needs (auth
//     proofs and checks, pulled-ID filtering, swap-half selection), so the
//     secret is used inside and never returned. The group key is kept as a
//     crypto::ProofKey — the key plus its HMAC schedule, both
//     key-equivalent — built inside whenever the key is installed or
//     unsealed, and the enclave has no accessor for it;
//   * charges every entry ("ecall") to a CycleLedger via the Table-I
//     CycleModel, reproducing the paper's emulated-SGX timing methodology;
//   * offers sealed storage (AES-CTR + HMAC under a measurement-bound
//     sealing key), the SGX idiom for persisting secrets across restarts.
//
// Why the substitution preserves behaviour: the protocol-visible properties
// of SGX here are (1) only attested code obtains the group key, (2) the key
// is confidential, (3) trusted code cannot be made to deviate. All three
// are enforced by this runtime's construction; performance effects are
// captured by the calibrated cycle model, exactly as in the paper's own
// large-scale emulation.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/key.hpp"
#include "crypto/mutual_auth.hpp"
#include "crypto/sha256.hpp"
#include "sgx/overhead.hpp"

namespace raptee::sgx {

class AttestationService;

/// MRENCLAVE-style code measurement.
struct Measurement {
  crypto::Digest256 value{};

  friend bool operator==(const Measurement&, const Measurement&) = default;
};

[[nodiscard]] Measurement measure_code(const std::string& code_identity);

/// The canonical identity of the genuine RAPTEE trusted-node enclave.
[[nodiscard]] const std::string& raptee_enclave_identity();

class Enclave {
 public:
  /// Instantiates an enclave running `code_identity`. Anyone — including
  /// the adversary — may run the *genuine* enclave binary (that is exactly
  /// the paper's poisoned-trusted-node attack); what nobody can do is run
  /// *modified* code under the genuine measurement.
  Enclave(std::string code_identity, std::uint64_t seed, const CycleModel* model = nullptr);

  [[nodiscard]] const Measurement& measurement() const { return measurement_; }
  [[nodiscard]] const std::string& code_identity() const { return code_identity_; }
  [[nodiscard]] bool has_group_key() const { return group_key_.has_value(); }
  [[nodiscard]] const CycleLedger& ledger() const { return ledger_; }

  /// Report data bound into this enclave's quote (fresh nonce).
  [[nodiscard]] std::array<std::uint8_t, 32> make_report_data();

  // --- trusted operations (all charge the ledger; all require the key) ---

  /// The group key's mutual-auth proof over (a, b) for `leg`
  /// (crypto::ProofKey::prove).
  [[nodiscard]] crypto::AuthToken auth_prove(crypto::AuthMode mode, crypto::AuthLeg leg,
                                             const crypto::AuthNonce& a,
                                             const crypto::AuthNonce& b);
  /// Whether `token` is the group key's proof over (a, b) for `leg`.
  [[nodiscard]] bool auth_check(crypto::AuthMode mode, crypto::AuthLeg leg,
                                const crypto::AuthNonce& a, const crypto::AuthNonce& b,
                                const crypto::AuthToken& token);
  /// Group-key fingerprint: lets attestation tests check group membership
  /// without exporting the key.
  [[nodiscard]] std::uint64_t group_fingerprint();

  /// Byzantine-eviction filter (§IV-C): keeps a uniformly chosen
  /// (1 - eviction_rate) fraction of `ids`, written into `kept` (cleared
  /// first; its capacity persists). Runs inside the enclave so the
  /// dropped/kept decision is not adversarially observable.
  void filter_pulled(std::span<const NodeId> ids, double eviction_rate,
                     std::vector<NodeId>& kept);

  /// Uniform half-view selection for a trusted exchange, written into
  /// `half` (cleared first; its capacity persists).
  void select_swap_half(std::span<const NodeId> view_ids, std::vector<NodeId>& half);

  // --- sealed storage (persists the group key across "restarts") ---
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> seal_group_key();
  /// Restores the group key from a blob sealed by an enclave with the SAME
  /// measurement; returns false on tamper or measurement mismatch.
  bool unseal_group_key(const std::vector<std::uint8_t>& blob);

  /// Generic cycle charge for enclave-hosted protocol phases the node
  /// executes inline (sample-list and view computation, per Table I).
  void charge(FunctionClass fc);

 private:
  friend class AttestationService;
  /// Attestation-channel-only entry point (models the secret provisioning
  /// over the remote-attestation secure channel).
  void install_group_key(const crypto::SymmetricKey& key);

  [[nodiscard]] crypto::SymmetricKey sealing_key() const;
  void require_key(const char* op) const;

  std::string code_identity_;
  Measurement measurement_;
  const CycleModel* model_;  // nullptr => zero-cost model
  /// Overhead sampling only. Kept strictly separate from protocol_rng_ so
  /// that cycle accounting can never perturb protocol behaviour (auth-mode
  /// equivalence, design decision D5, depends on this).
  Rng cycle_rng_;
  /// Protocol-relevant randomness (eviction filter, swap-half selection).
  Rng protocol_rng_;
  /// Index draws of the two protocol selections; keeps its capacity.
  std::vector<std::size_t> picks_;
  crypto::Drbg drbg_;
  CycleLedger ledger_;
  crypto::SymmetricKey device_secret_;  // per-device sealing root
  std::optional<crypto::ProofKey> group_key_;
};

}  // namespace raptee::sgx
