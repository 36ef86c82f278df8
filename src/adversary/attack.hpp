// AttackSpec: the declarative, validated description of the adversary —
// a catalog strategy name plus per-strategy parameters, playing the same
// role for the attack axis that core::EvictionSpec plays for the defence
// axis. The spec is pure data: resolution to behaviour happens through the
// strategy catalog (strategy.hpp, make_strategy) when an experiment builds
// its Coordinator.
//
// The catalog (see strategy.cpp for the behaviours):
//   balanced     — the Brahms-optimal balanced attack the paper assumes
//                  (push budget spread evenly, poisoned pull answers,
//                  camouflaged pulls). The default; observable results are
//                  bit-identical to the pre-strategy hardcoded adversary.
//   eclipse      — the targeted attack BASALT evaluates against: the whole
//                  push budget focuses on a victim subset (capped per
//                  victim to stay under Brahms' flood detection) and pulls
//                  harvest the victims.
//   oscillating  — BASALT's adaptive adversary: an on/off duty cycle that
//                  attacks in bursts and camouflages as honest in between,
//                  evading window-smoothed eviction and identification.
//   omission     — a liveness attacker: sends nothing and refuses to answer
//                  pulls, burning the initiators' round slots (the engine
//                  counts the suppressed legs).
//   bogus_swap   — balanced plus a forged swap offer on every AuthConfirm,
//                  probing the trusted-swap authentication defence.
//   delay_eclipse— eclipse assisted by link delay (event-driven time only):
//                  the adversary slows honest→victim links by delay_ms so
//                  honest refresh arrives past the round deadline, leaving
//                  its own poison as the victims' freshest input. In round
//                  mode it degrades to plain eclipse.
//   partition_eclipse — eclipse concentrated in a [window_from,
//                  window_until) round window, built to exploit a network
//                  partition: capture views while the victims' region is
//                  cut off from honest refresh, camouflage before and after.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace raptee::adversary {

struct AttackSpec {
  /// Catalog strategy name (strategy_catalog()); "balanced" is the
  /// paper's default adversary.
  std::string strategy = "balanced";

  /// Victim-targeting strategies (eclipse): share of the correct population
  /// under attack, used when victim_count == 0. At least one victim is
  /// drawn whenever the strategy wants victims.
  double victim_fraction = 0.05;
  /// Explicit victim count (overrides victim_fraction when > 0; clamped to
  /// the correct population).
  std::size_t victim_count = 0;
  /// Which slice of the correct population victims are drawn from:
  /// kAny (default) samples all correct nodes; kHonest only untrusted
  /// honest nodes; kTrusted only trusted nodes (the hardened targets —
  /// whether eviction saves them is exactly what bench/attack_matrix
  /// sweeps). Falls back to kAny when the requested slice is empty.
  enum class VictimKind : std::uint8_t { kAny, kHonest, kTrusted };
  VictimKind victim_kind = VictimKind::kAny;

  /// Eclipse: per-victim per-round push cap as a fraction of the α·l1 push
  /// slice. Brahms blocks a node's view update outright when more than
  /// α·l1 pushes arrive in one round, so a smart eclipse attacker throttles
  /// below the honest background rate instead of flooding.
  double push_cap_fraction = 0.5;

  /// A victim counts as isolated in a round once the Byzantine share of its
  /// view reaches this threshold (rounds_to_isolation fires at the first
  /// round every alive victim is isolated).
  double isolation_threshold = 0.75;

  /// Oscillating duty cycle: rounds r with (r mod (on+off)) < on attack;
  /// the rest camouflage.
  Round on_rounds = 8;
  Round off_rounds = 8;

  /// Attach a forged swap offer to every AuthConfirm (always true for the
  /// bogus_swap strategy; composable with any other).
  bool attach_bogus_swap_offer = false;

  /// delay_eclipse: extra one-way latency (ms) injected on every
  /// honest→victim link while the strategy is on duty. Only the event
  /// scheduler consults it (IStrategy::extra_delay_us); capped at 60 s.
  std::uint64_t delay_ms = 400;

  /// partition_eclipse: the round window [window_from, window_until) the
  /// focused attack runs in — normally aligned with a PartitionWindow so
  /// the capture happens while honest refresh is severed. until == 0 means
  /// "always on" (plain eclipse behaviour).
  Round window_from = 0;
  Round window_until = 0;

  [[nodiscard]] static AttackSpec balanced();
  [[nodiscard]] static AttackSpec eclipse(double victim_fraction = 0.05);
  [[nodiscard]] static AttackSpec oscillating(Round on_rounds = 8, Round off_rounds = 8);
  [[nodiscard]] static AttackSpec omission();
  [[nodiscard]] static AttackSpec bogus_swap();
  [[nodiscard]] static AttackSpec delay_eclipse(std::uint64_t delay_ms = 400,
                                                double victim_fraction = 0.05);
  [[nodiscard]] static AttackSpec partition_eclipse(Round window_from = 0,
                                                    Round window_until = 0,
                                                    double victim_fraction = 0.05);
  /// The catalog preset for a strategy name (one of the constructors
  /// above, default arguments); throws std::invalid_argument for a name
  /// not in the catalog.
  [[nodiscard]] static AttackSpec named(const std::string& name);

  /// Parameter ranges plus catalog membership of `strategy`.
  void validate() const;
};

}  // namespace raptee::adversary
