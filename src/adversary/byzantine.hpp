// The adversary: a coordinator with global knowledge driving every
// Byzantine node (paper §III-B).
//
// The Coordinator owns the shared machinery — the sorted member list, the
// current victim (correct) population, the optional targeted-victim subset,
// the global-knowledge RNG and the round-scoped flat push schedule — and
// delegates every behavioural decision to a pluggable adversary::IStrategy
// (strategy.hpp). The default strategy is `balanced`, the Brahms-optimal
// attack the paper assumes:
//   * balanced pushes — the adversary's total push budget (rate-limited to
//     α·l1 per member per round, the "limited pushes" assumption enforced
//     system-wide) is spread evenly over all correct nodes, each push
//     advertising a Byzantine ID;
//   * poisoned pull answers — every pull request is answered with a view
//     of exclusively Byzantine IDs;
//   * camouflaged pulls — Byzantine nodes issue pull requests like honest
//     ones, both to blend in and to harvest the pull-answer observations
//     that feed the §VI-A identification attack.
// Its observable results are bit-identical to the pre-strategy hardcoded
// adversary (asserted by scenario_test_attack_determinism).
//
// AttackConfig::targeted_victims focuses the push budget on a victim
// subset (the eclipse attempt Brahms' history sampling defends against);
// the eclipse strategy populates it from AttackSpec::victim_fraction.
//
// Each Coordinator call has one form: push_slice() is a member's span of
// the round's schedule, and pull_targets(), answer_view() and faulty_view()
// fill caller-owned vectors. ByzantineNode relays them through the
// one-form sim::INode calls and keeps no view of its own.
//
// The §VI-A identification attack is the adversary's own ledger: when the
// Coordinator holds one, every member records each pull reply it receives
// (record_pull_reply), keyed by the target the member pulled.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/key.hpp"

#include "adversary/strategy.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/node.hpp"

namespace raptee::adversary {

class IdentificationAttack;

/// Resolved, mechanism-level knobs (strategy-independent). AttackSpec is
/// the declarative front door; experiments map it onto this struct when
/// building the Coordinator.
struct AttackConfig {
  std::size_t push_budget_per_member = 0;  ///< pushes per member per round (α·l1)
  std::size_t pull_fanout = 0;             ///< pull requests per member (β·l1)
  std::size_t advertised_view_size = 0;    ///< size of poisoned pull answers (l1)
  /// When non-empty, the push budget is focused on these victims only.
  std::vector<NodeId> targeted_victims;
  /// Attach a bogus swap offer to every confirm (probes the swap defence).
  bool attach_bogus_swap_offer = false;
};

class Coordinator {
 public:
  /// `strategy` must be non-null. `ledger`, when set, receives every pull
  /// reply a member records and must outlive the coordinator.
  Coordinator(std::vector<NodeId> members, std::vector<NodeId> victims,
              AttackConfig config, std::uint64_t seed,
              std::unique_ptr<IStrategy> strategy,
              IdentificationAttack* ledger = nullptr);

  /// Recomputes this round's push schedule via the strategy. Idempotent per
  /// round: every member calls it, the first call does the work.
  void begin_round(Round r);

  /// The push targets assigned to `member` this round: its slice of the
  /// flat schedule, valid until the next begin_round.
  [[nodiscard]] std::span<const NodeId> push_slice(NodeId member) const;

  /// Replaces the contents of `out` with one member's pull targets this
  /// round (strategy policy; balanced: uniform over victims). Draws on the
  /// shared coordinator rng — callers serialize (the engine runs Byzantine
  /// nodes on the coordinating thread in every sharded phase).
  void pull_targets(std::vector<NodeId>& out);

  /// Whether members answer pull requests at all this round (the omission
  /// strategy refuses; the engine counts suppressed legs).
  [[nodiscard]] bool answers_pulls() const;
  /// The view a member advertises in a pull answer (strategy policy;
  /// balanced: k Byzantine IDs). Clears and fills `out`.
  void answer_view(std::size_t k, std::vector<NodeId>& out);
  /// Whether confirms carry a forged swap offer this round.
  [[nodiscard]] bool attach_bogus_swap() const;

  /// Replaces the contents of `out` with a poisoned view: `k` Byzantine
  /// IDs (distinct while possible).
  void faulty_view(std::size_t k, std::vector<NodeId>& out);
  [[nodiscard]] NodeId faulty_id();

  /// A member pulled `responder` and received `view`: forwarded to the
  /// identification ledger when the coordinator holds one.
  void record_pull_reply(NodeId responder, std::span<const NodeId> view);

  [[nodiscard]] bool is_member(NodeId id) const;
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }
  [[nodiscard]] const std::vector<NodeId>& victims() const { return victims_; }
  [[nodiscard]] const std::vector<NodeId>& targeted() const {
    return config_.targeted_victims;
  }
  [[nodiscard]] const AttackConfig& config() const { return config_; }
  [[nodiscard]] const IStrategy& strategy() const { return *strategy_; }

  /// Whether the strategy is on duty in the current round (true before the
  /// first begin_round so construction-time queries see the attack armed).
  [[nodiscard]] bool active() const { return active_; }
  /// Rounds the strategy was on duty so far (oscillating telemetry).
  [[nodiscard]] std::uint64_t rounds_active() const { return rounds_active_; }

  /// The global-knowledge random stream strategies must draw from.
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Round-scoped scratches for strategies building shuffled victim pools
  /// (capacity persists across rounds; background_scratch is a second,
  /// independently-lived pool for schedules composed of two parts).
  [[nodiscard]] std::vector<NodeId>& pool_scratch() { return pool_scratch_; }
  [[nodiscard]] std::vector<NodeId>& background_scratch() { return background_scratch_; }

 private:
  std::vector<NodeId> members_;  // sorted; a member's slice index is its rank
  std::vector<NodeId> victims_;
  AttackConfig config_;
  Rng rng_;
  std::unique_ptr<IStrategy> strategy_;
  IdentificationAttack* ledger_;
  /// Flat schedule: push j of the round goes to schedule_[j]; member i owns
  /// slice [i·budget, (i+1)·budget).
  std::vector<NodeId> schedule_;
  std::vector<NodeId> pool_scratch_;
  std::vector<NodeId> background_scratch_;
  std::vector<std::size_t> index_scratch_;  // faulty_view sampling
  std::optional<Round> prepared_round_;
  bool active_ = true;
  std::uint64_t rounds_active_ = 0;
};

/// One adversary-controlled protocol participant. All intelligence lives in
/// the Coordinator; the node relays.
class ByzantineNode final : public sim::INode {
 public:
  ByzantineNode(NodeId self, std::shared_ptr<Coordinator> coordinator,
                std::uint64_t seed);

  [[nodiscard]] NodeId id() const override { return self_; }
  void bootstrap(const std::vector<NodeId>& initial_peers) override;
  void begin_round(Round r) override;
  void push_targets(std::vector<NodeId>& out) override;
  [[nodiscard]] wire::PushMessage make_push() override;
  void on_push(const wire::PushMessage& push) override;
  void pull_targets(std::vector<NodeId>& out) override;
  void open_pull(NodeId target, wire::PullRequest& out) override;
  [[nodiscard]] bool answers_pull(NodeId requester) override;
  void answer_pull(const wire::PullRequest& request, wire::PullReply& out) override;
  void process_pull_reply(const wire::PullReply& reply, wire::AuthConfirm& out) override;
  [[nodiscard]] bool process_confirm(const wire::AuthConfirm& confirm,
                                     wire::SwapReply& out) override;
  void process_swap_reply(const wire::SwapReply& reply) override;
  void end_round(Round r, sim::RoundScratch& scratch) override;
  /// Byzantine nodes opt out of the engine's SoA view slab: they keep no
  /// view (the Coordinator answers pulls) and are excluded from every
  /// honest-side metric.
  [[nodiscard]] std::size_t view_capacity() const override { return 0; }
  std::size_t copy_view(NodeId*, std::size_t) const override { return 0; }

 private:
  NodeId self_;
  std::shared_ptr<Coordinator> coordinator_;
  crypto::Drbg drbg_;  // random bytes for camouflage auth fields
  NodeId pulled_;  // target of the open pull; its reply is recorded under it
};

}  // namespace raptee::adversary
