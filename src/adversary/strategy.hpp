// IStrategy: the adversary's pluggable brain, factored out of the formerly
// monolithic Coordinator (byzantine.hpp). The Coordinator keeps the shared
// machinery — member/victim bookkeeping, the round-scoped push schedule,
// the global-knowledge RNG — and delegates every behavioural decision to a
// strategy:
//
//   * push-allocation policy   (plan_pushes: fills the round's flat schedule)
//   * pull-target policy       (plan_pulls: where members send camouflage pulls)
//   * pull-answer policy       (answers_pulls + answer_view: refuse, poison
//                               or camouflage)
//   * swap policy              (attach_bogus_swap)
//   * per-round activation     (active: duty cycles / adaptive dormancy)
//
// The strategies form a fixed catalog (strategy_catalog(), one row per
// IStrategy class in strategy.cpp), so experiments select an adversary by
// name through the public scenario API (ScenarioSpec::attack). Adding a
// strategy means adding one IStrategy class and one catalog row.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "adversary/attack.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace raptee::adversary {

class Coordinator;

/// Behavioural policy driving a Coordinator. Hooks receive the Coordinator
/// for shared state (members(), victims(), targeted(), config(), rng(),
/// faulty_view()). All randomness flows through the Coordinator's stream so
/// a (seed, spec) pair reproduces the attack bit-for-bit: the planning
/// hooks draw on coord.rng() itself, and answer_view draws on the stream it
/// is handed — a copy of coord.rng() positioned at the answer's turn in the
/// round's exchange order (see ByzantineNode::plan_exchange).
class IStrategy {
 public:
  virtual ~IStrategy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether the attack machinery runs this round (oscillating duty cycle).
  /// Dormant rounds push nothing and answer pulls with camouflage views.
  [[nodiscard]] virtual bool active(Round r) const {
    (void)r;
    return true;
  }

  /// Fills the round's flat push schedule: push j goes to schedule[j],
  /// member of rank i owns slice [i·budget, (i+1)·budget). A schedule
  /// shorter than members × budget wastes the tail budget (throttling).
  virtual void plan_pushes(Round r, Coordinator& coord,
                           std::vector<NodeId>& schedule) = 0;

  /// Pull targets for one member this round. Default: pull_fanout uniform
  /// draws over the correct population (camouflage + §VI-A harvesting).
  virtual void plan_pulls(Coordinator& coord, std::vector<NodeId>& out);

  /// False = members refuse to answer pull requests (omission attacker);
  /// the engine counts each refusal as a suppressed leg.
  [[nodiscard]] virtual bool answers_pulls(Round r) const {
    (void)r;
    return true;
  }

  /// The view advertised in one pull answer, drawn on `rng` with `scratch`
  /// as sampling memory. Default: k Byzantine IDs (distinct while possible)
  /// — the poisoned answer of the balanced attack. Members answer
  /// concurrently during the exchange phase, each on its own stream, so
  /// this reads nothing that changes within a round besides its arguments.
  virtual void answer_view(Round r, const Coordinator& coord, Rng& rng,
                           std::vector<std::size_t>& scratch, std::size_t k,
                           std::vector<NodeId>& out) const;

  /// Whether AuthConfirms carry a forged swap offer this round. Default:
  /// the AttackConfig/AttackSpec flag.
  [[nodiscard]] virtual bool attach_bogus_swap(Round r, const Coordinator& coord) const;

  /// Whether this strategy attacks a victim subset — the experiment then
  /// resolves AttackSpec::victim_fraction/victim_count into a concrete
  /// targeted set (and attaches victim-centric metrics).
  [[nodiscard]] virtual bool wants_victims() const { return false; }

  /// Extra per-link latency (µs) injected on top of the event-mode latency
  /// model — the delay-assisted attacker's lever (delay_eclipse slows
  /// honest→victim links so refresh arrives past the round deadline).
  /// Ignored in round mode. Must be a pure function of its arguments so
  /// event runs stay bit-identical across worker counts.
  [[nodiscard]] virtual std::uint64_t extra_delay_us(Round r, NodeId from, NodeId to,
                                                     const Coordinator& coord) const {
    (void)r;
    (void)from;
    (void)to;
    (void)coord;
    return 0;
  }
};

/// One row of the strategy catalog.
struct StrategyEntry {
  std::string_view name;
  std::string_view summary;
  /// The strategy's default spec (what AttackSpec::named returns).
  AttackSpec (*preset)();
  /// Builds the strategy for a spec naming it.
  std::unique_ptr<IStrategy> (*make)(const AttackSpec& spec);
};

/// Every strategy (balanced, bogus_swap, delay_eclipse, eclipse, omission,
/// oscillating, partition_eclipse), sorted by name.
[[nodiscard]] std::span<const StrategyEntry> strategy_catalog();
/// The catalog row named `name`, or nullptr.
[[nodiscard]] const StrategyEntry* find_strategy(std::string_view name);
/// Builds the strategy for `spec.strategy`; throws std::invalid_argument
/// for a name not in the catalog (listing the catalog).
[[nodiscard]] std::unique_ptr<IStrategy> make_strategy(const AttackSpec& spec);

}  // namespace raptee::adversary
