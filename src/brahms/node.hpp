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
//
// Memory: a round runs in reused memory. Each completed pull (and each
// trusted swap) appends its IDs to one per-node pulled-ID slab, reserved at
// pull_slice() · l1 IDs, and begin_round only resets lengths. end_round works in the scratch the
// engine lends (the sampler-feed dedup, the renewal streams), which the
// engine keeps per block of nodes, not per node.
#pragma once

#include <memory>
#include <span>

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
  double eviction_rate = 0.0;          ///< rate applied this round (trusted nodes)
  bool update_blocked = false;         ///< defence (ii) triggered

  friend bool operator==(const RoundTelemetry&, const RoundTelemetry&) = default;
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
  void open_pull(NodeId target, wire::PullRequest& out) override;
  void answer_pull(const wire::PullRequest& request, wire::PullReply& out) override;
  void process_pull_reply(const wire::PullReply& reply, wire::AuthConfirm& out) override;
  [[nodiscard]] bool process_confirm(const wire::AuthConfirm& confirm,
                                     wire::SwapReply& out) override;
  void process_swap_reply(const wire::SwapReply& reply) override;
  void on_pull_timeout(NodeId target) override;
  void end_round(Round r, sim::RoundScratch& scratch) override;
  /// Hints this object, the authenticator, the view's entries and the next
  /// pull answer's room in the pulled-ID slab.
  void prefetch() const override;
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
  /// One entry of the round's pulled-ID list: a completed outgoing pull —
  /// the responder and whether mutual trust was established — or the half
  /// view a trusted swap brought in, which §IV-B also "transmits to the
  /// list of pulled IDs". Its `len` IDs sit in the pulled-ID slab, in
  /// arrival order.
  struct PullRecord {
    NodeId peer;
    std::uint32_t len = 0;
    bool trusted = false;
    bool swap = false;
  };

  // --- extension hooks for RAPTEE ---
  /// Initiator-side, after authenticating `peer` as trusted. Return true to
  /// open a trusted exchange with the swap offer (half view + self link)
  /// written into `offer`; default none.
  [[nodiscard]] virtual bool make_swap_offer(NodeId peer, std::vector<NodeId>& offer);
  /// Responder-side, after verifying the initiator as trusted and receiving
  /// its swap offer. Return true to send back the half view written into
  /// `half`; default ignore.
  [[nodiscard]] virtual bool accept_swap_offer(NodeId peer, const std::vector<NodeId>& offer,
                                               std::vector<NodeId>& half);
  /// Initiator-side, closing a trusted exchange with the responder's half.
  virtual void integrate_swap_reply(NodeId peer, const std::vector<NodeId>& half);

  /// One entry of the β·l1 renewal stream and whether an untrusted source
  /// delivered it.
  struct RenewalEntry {
    NodeId id;
    bool untrusted;
  };
  /// What this round's pulled IDs contribute downstream, written into
  /// end_round's workspace. RAPTEE's eviction overrides the default (which
  /// keeps everything, plain Brahms).
  struct PulledContribution {
    /// The sampler feed (post-eviction); it already holds the pushes.
    SamplerFeed& sampler_feed;
    /// The renewal stream: trusted-authenticated sources first (pull
    /// answers of trusted peers, then swap halves; never capped), then
    /// untrusted ones, each in completion order.
    std::vector<RenewalEntry>& renewal;
    /// Free scratch for the hook (RAPTEE's eviction survivors).
    std::vector<NodeId>& scratch;
    /// Untrusted IDs may fill at most this fraction of the β·l1 slice
    /// (1 - eviction rate); the vacated slots fall through to the history
    /// sample and the D3 retention rule.
    double untrusted_slice_cap = 1.0;
  };
  virtual void process_pulled(PulledContribution& out);
  /// Called when the view was renewed (not blocked) — RAPTEE uses it to
  /// refresh trusted bookkeeping.
  virtual void after_view_update() {}

  /// Appends a trusted swap's received half to the round's pulled-ID list.
  void add_swap_ids(NodeId peer, std::span<const NodeId> ids);
  /// Calls fn(record, ids) for each entry of the round's pulled-ID list, in
  /// arrival order, with the IDs it brought.
  template <typename Fn>
  void for_each_pulled(Fn&& fn) const {
    const std::span<const NodeId> slab(pulled_ids_);
    std::size_t at = 0;
    for (const PullRecord& record : pulled_) {
      fn(record, slab.subspan(at, record.len));
      at += record.len;
    }
  }

  /// Accessors for subclasses.
  [[nodiscard]] gossip::PartialView& mutable_view() { return view_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] Authenticator& authenticator() { return *auth_; }
  [[nodiscard]] RoundTelemetry& mutable_telemetry() { return telemetry_; }

 private:
  void add_pulled(const PullRecord& record, std::span<const NodeId> ids);
  /// end_round's working memory, kept in the engine's RoundScratch.
  struct Workspace;
  void renew_view(Workspace& work, double untrusted_slice_cap);

  NodeId self_;
  BrahmsConfig config_;
  std::unique_ptr<Authenticator> auth_;
  Rng rng_;
  std::function<bool(NodeId)> alive_probe_;

  gossip::PartialView view_;
  SamplerArray samplers_;

  // Per-round buffers; begin_round resets their lengths, never their
  // capacity.
  std::vector<NodeId> pushed_;          ///< the first push_slice() pushed IDs
  std::size_t raw_push_count_ = 0;      ///< including duplicates (flood detection)
  std::vector<PullRecord> pulled_;
  std::vector<NodeId> pulled_ids_;      ///< the pulled-ID slab (see PullRecord)

  // Single-slot exchange state: a node is in one exchange at a time (the
  // engine runs each exchange's legs to completion, and no two exchanges
  // of a wave share a node; asserted).
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
