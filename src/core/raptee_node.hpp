// RapteeNode — a trusted (SGX-capable) RAPTEE participant.
//
// Extends BrahmsNode (every node runs the modified Brahms) with the three
// trusted-node behaviours of §IV:
//
//   * Mutual authentication through the enclave: the node runs the same
//     brahms::Authenticator handshake as every other node, but the group
//     secret is held by the sgx::Enclave and each proof or check is one
//     ecall (EnclaveAuthenticator).
//
//   * Trusted communication: when a pull exchange mutually authenticates,
//     the initiator offers half of its view plus a self link (Jelasity
//     framework criteria 2–3); the responder swaps its own half back. Both
//     halves are applied to the dynamic views immediately (swap semantics)
//     AND forwarded to the Brahms pulled-ID buffer, so trusted knowledge
//     reaches the samplers and the β·l1 renewal slice.
//
//   * Byzantine eviction: at end of round, pulled IDs from *untrusted*
//     peers are filtered inside the enclave at the configured eviction
//     rate (fixed or adaptive on the round's trusted-exchange ratio).
//
// Camouflage invariant: a RapteeNode's observable traffic (push/pull
// counts, pull-answer shape, auth handshakes) is identical to an untrusted
// node's unless the counterpart itself proves group membership — the
// property the §VI identification attack tries, and mostly fails, to break.
//
// Optional extension (design decision D1, default off): a trusted overlay —
// each round the node adds one extra pull aimed at the oldest known trusted
// peer, turning discovered trusted contacts into a standing Jelasity-style
// sub-overlay.
#pragma once

#include <memory>

#include "brahms/node.hpp"
#include "core/eviction.hpp"
#include "core/trusted_store.hpp"
#include "sgx/enclave.hpp"

namespace raptee::core {

struct RapteeConfig {
  brahms::BrahmsConfig brahms;
  EvictionSpec eviction = EvictionSpec::adaptive();
  bool trusted_overlay = false;          ///< D1 extension
};

class RapteeNode : public brahms::BrahmsNode {
 public:
  /// `enclave` must already be attested/provisioned; the authenticator must
  /// be an EnclaveAuthenticator over the same enclave (node_factory wires
  /// this up).
  RapteeNode(NodeId self, RapteeConfig config,
             std::unique_ptr<brahms::Authenticator> auth,
             std::unique_ptr<sgx::Enclave> enclave, Rng rng,
             std::function<bool(NodeId)> alive_probe = {});

  void begin_round(Round r) override;
  void pull_targets(std::vector<NodeId>& out) override;

  [[nodiscard]] const sgx::Enclave& enclave() const { return *enclave_; }
  [[nodiscard]] const TrustedStore& trusted_store() const { return trusted_store_; }
  [[nodiscard]] const RapteeConfig& raptee_config() const { return config_; }
  /// Eviction rate applied in the last completed round.
  [[nodiscard]] double last_eviction_rate() const { return last_eviction_rate_; }
  /// Ratio of completed pulls that were trusted exchanges, last round.
  [[nodiscard]] double last_trusted_ratio() const { return last_trusted_ratio_; }

 protected:
  [[nodiscard]] bool make_swap_offer(NodeId peer, std::vector<NodeId>& offer) override;
  [[nodiscard]] bool accept_swap_offer(NodeId peer, const std::vector<NodeId>& offer,
                                       std::vector<NodeId>& half) override;
  void integrate_swap_reply(NodeId peer, const std::vector<NodeId>& half) override;
  void process_pulled(PulledContribution& out) override;
  void after_view_update() override;

 private:
  /// Applies one swap side with `peer`: drop `sent` from the view, insert
  /// `received` (skipping self/duplicates), trim back to capacity, and add
  /// the received IDs to the round's pulled-ID list.
  void apply_swap(NodeId peer, const std::vector<NodeId>& sent,
                  const std::vector<NodeId>& received);

  RapteeConfig config_;
  std::unique_ptr<sgx::Enclave> enclave_;
  TrustedStore trusted_store_;

  /// The open trusted exchange this node initiated; `sent` keeps its
  /// capacity across exchanges.
  struct PendingSwap {
    bool active = false;
    NodeId peer;
    std::vector<NodeId> sent;
  } pending_swap_;
  /// The view's IDs, copied for the enclave's swap-half draw, and a
  /// received half as view entries, for the merge.
  std::vector<NodeId> view_ids_;
  std::vector<gossip::ViewEntry> incoming_;

  double last_eviction_rate_ = 0.0;
  double last_trusted_ratio_ = 0.0;
};

}  // namespace raptee::core
