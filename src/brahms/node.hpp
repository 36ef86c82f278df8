// BrahmsNode — full Brahms protocol participant (gossip component, sampling
// component, and all four defence mechanisms), implementing sim::INode.
//
// Per round, a node:
//   * sends α·l1 push messages and β·l1 pull requests to targets drawn
//     uniformly (with replacement) from its dynamic view V;
//   * answers every pull with its full view (paper §III-A);
//   * precedes each pull by the mutual-authentication challenge–response
//     (RAPTEE's modification — honest untrusted nodes run it too, with
//     their own random key, so trusted nodes stay camouflaged);
//   * at end of round feeds received IDs to the l2 samplers and, unless
//     blocked, renews V as rand(α·l1 of pushed) ∪ rand(β·l1 of pulled) ∪
//     rand(γ·l1 of sample list).
//
// Defence mechanisms:
//   (i)   limited pushes — nodes send exactly α·l1 pushes; the adversary's
//         budget is rate-limited system-wide (enforced by the adversary
//         model, mirroring the paper's Merkle-puzzle assumption);
//   (ii)  attack detection & blocking — if more than α·l1 pushes arrive in
//         a round, the view update is skipped entirely;
//   (iii) balanced push/pull contribution — the α/β split above;
//   (iv)  history sampling — the γ·l1 slice re-injects unbiased samples,
//         providing self-healing after targeted attacks.
//
// Extension hooks (protected virtuals) let core::RapteeNode add trusted
// exchanges and Byzantine eviction without duplicating protocol code.
#pragma once

#include <memory>
#include <optional>

#include "brahms/auth.hpp"
#include "brahms/params.hpp"
#include "brahms/sampler.hpp"
#include "common/rng.hpp"
#include "gossip/view.hpp"
#include "sim/node.hpp"

namespace raptee::brahms {

struct BrahmsConfig {
  Params params;
  /// Probe held samples for liveness every this many rounds (0 = never).
  /// A no-op without churn; essential with it.
  Round sampler_validation_period = 10;
};

/// Per-round observable state, for metrics, tests and the SGX ledger.
struct RoundTelemetry {
  std::size_t pushes_received = 0;
  std::size_t pulls_answered = 0;
  std::size_t pulls_completed = 0;     ///< outgoing pulls that returned a reply
  std::size_t trusted_exchanges = 0;   ///< completed pulls with mutual trust
  std::size_t pulled_ids_total = 0;    ///< IDs received via pulls (pre-filter)
  std::size_t pulled_ids_kept = 0;     ///< after the eviction hook
  double eviction_rate = 0.0;          ///< rate applied this round (trusted nodes)
  bool update_blocked = false;         ///< defence (ii) triggered
};

class BrahmsNode : public sim::INode {
 public:
  BrahmsNode(NodeId self, BrahmsConfig config, std::unique_ptr<Authenticator> auth,
             Rng rng, std::function<bool(NodeId)> alive_probe = {});

  // --- sim::INode ---
  [[nodiscard]] NodeId id() const override { return self_; }
  void bootstrap(const std::vector<NodeId>& initial_peers) override;
  void begin_round(Round r) override;
  void push_targets(std::vector<NodeId>& out) override;
  [[nodiscard]] wire::PushMessage make_push() override;
  void on_push(const wire::PushMessage& push) override;
  void pull_targets(std::vector<NodeId>& out) override;
  [[nodiscard]] wire::PullRequest open_pull(NodeId target) override;
  [[nodiscard]] wire::PullReply answer_pull(const wire::PullRequest& request) override;
  [[nodiscard]] wire::AuthConfirm process_pull_reply(const wire::PullReply& reply) override;
  [[nodiscard]] std::optional<wire::SwapReply> process_confirm(
      const wire::AuthConfirm& confirm) override;
  void process_swap_reply(const wire::SwapReply& reply) override;
  void on_pull_timeout(NodeId target) override;
  void end_round(Round r) override;
  /// The dynamic view has fixed capacity l1 — a constant slab-slot bound.
  [[nodiscard]] std::size_t view_capacity() const override { return view_.capacity(); }
  std::size_t copy_view(NodeId* out, std::size_t cap) const override {
    return view_.copy_ids(out, cap);
  }

  // --- public API (peer-sampling service surface) ---
  /// Uniform samples accumulated by the sampling component.
  [[nodiscard]] std::vector<NodeId> sample_list() const { return samplers_.sample_list(); }
  [[nodiscard]] const gossip::PartialView& view() const { return view_; }
  [[nodiscard]] const Params& params() const { return config_.params; }
  [[nodiscard]] const RoundTelemetry& telemetry() const { return telemetry_; }

 protected:
  /// One completed outgoing pull: the responder, whether mutual trust was
  /// established, and the IDs it returned.
  struct PullRecord {
    NodeId peer;
    bool trusted = false;
    std::vector<NodeId> ids;
  };

  // --- extension hooks for RAPTEE ---
  /// Initiator-side, after authenticating `peer` as trusted. Return a swap
  /// offer (half view + self link) to open a trusted exchange; default none.
  [[nodiscard]] virtual std::optional<std::vector<NodeId>> make_swap_offer(NodeId peer);
  /// Responder-side, after verifying the initiator as trusted and receiving
  /// its swap offer. Return the half view to send back; default ignore.
  [[nodiscard]] virtual std::optional<std::vector<NodeId>> accept_swap_offer(
      NodeId peer, const std::vector<NodeId>& offer);
  /// Initiator-side, closing a trusted exchange with the responder's half.
  virtual void integrate_swap_reply(NodeId peer, const std::vector<NodeId>& half);

  /// What this round's pulled IDs contribute downstream. RAPTEE's eviction
  /// overrides the default (which keeps everything, plain Brahms).
  struct PulledContribution {
    /// Stream fed to the samplers (post-eviction).
    std::vector<NodeId> sampler_ids;
    /// Renewal stream from trusted-authenticated sources (pull answers of
    /// trusted peers + swap halves); never capped.
    std::vector<NodeId> renewal_trusted;
    /// Renewal stream from untrusted sources.
    std::vector<NodeId> renewal_untrusted;
    /// Untrusted IDs may fill at most this fraction of the β·l1 slice
    /// (1 - eviction rate); the vacated slots fall through to the history
    /// sample and the D3 retention rule.
    double untrusted_slice_cap = 1.0;
  };
  [[nodiscard]] virtual PulledContribution process_pulled(
      const std::vector<PullRecord>& records);
  /// Called when the view was renewed (not blocked) — RAPTEE uses it to
  /// refresh trusted bookkeeping.
  virtual void after_view_update() {}

  /// Accessors for subclasses.
  [[nodiscard]] gossip::PartialView& mutable_view() { return view_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] Authenticator& authenticator() { return *auth_; }
  [[nodiscard]] RoundTelemetry& mutable_telemetry() { return telemetry_; }

 private:
  void renew_view(const PulledContribution& pulled);

  NodeId self_;
  BrahmsConfig config_;
  std::unique_ptr<Authenticator> auth_;
  Rng rng_;
  std::function<bool(NodeId)> alive_probe_;

  gossip::PartialView view_;
  SamplerArray samplers_;

  // Per-round buffers.
  std::vector<NodeId> pushed_;          ///< advertised IDs from received pushes
  std::size_t raw_push_count_ = 0;      ///< including duplicates (flood detection)
  std::vector<PullRecord> pulled_;

  // Single-slot exchange state (the engine completes each exchange's legs
  // before starting the next; asserted in debug).
  struct InitiatorSlot {
    bool active = false;
    NodeId target;
    crypto::AuthChallenge challenge;
  } initiator_slot_;
  struct ResponderSlot {
    bool active = false;
    NodeId peer;
    crypto::AuthChallenge challenge;
    crypto::AuthResponse response;
  } responder_slot_;

  RoundTelemetry telemetry_;
};

}  // namespace raptee::brahms
