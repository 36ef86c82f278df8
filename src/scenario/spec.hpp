// ScenarioSpec: the one front door to the simulator.
//
// The paper's evaluation is a grid of scenarios — Byzantine fraction ×
// trusted fraction × eviction × churn × identification × wire fidelity —
// and before this API every layer (benches, examples, tests) assembled raw
// metrics::ExperimentConfig structs field by field. ScenarioSpec is the
// composable, validated builder they all share now:
//
//   auto result = scenario::ScenarioSpec()
//                     .population(400)
//                     .adversary(0.2)        // f, share of the base population
//                     .trusted_share(0.3)    // of the *correct* population
//                     .eviction(core::EvictionSpec::adaptive())
//                     .churn(true)
//                     .seed(7)
//                     .run();
//
// `trusted_share` is denominated in the correct population (1.0 = every
// correct node is trusted at any f); `trusted` sets the population-wide
// fraction directly, like ExperimentConfig::trusted_fraction. The last one
// called wins. ExperimentConfig stays as the validated POD underneath —
// `config()` materializes it; Runner (runner.hpp) executes specs.
//
// The adversary is a catalog strategy (attack). Event-driven time
// composes from event_mode, latency, partition and round_interval_ms; the
// topology's region count follows from the latency model and the partition.
#pragma once

#include <cstdint>
#include <string>

#include "metrics/experiment.hpp"

namespace raptee::scenario {

class ScenarioSpec {
 public:
  ScenarioSpec() = default;
  /// Adopts an existing config (escape hatch for legacy call sites).
  explicit ScenarioSpec(const metrics::ExperimentConfig& config) : base_(config) {}

  // --- population & schedule ---
  ScenarioSpec& population(std::size_t n);
  ScenarioSpec& view_size(std::size_t l1);  ///< sets l1 and l2 together
  ScenarioSpec& rounds(Round rounds);
  ScenarioSpec& seed(std::uint64_t seed);

  // --- adversary ---
  /// Byzantine fraction f of the base population.
  ScenarioSpec& adversary(double fraction);
  ScenarioSpec& adversary_pct(int percent) { return adversary(percent / 100.0); }
  /// Selects the adversary's behaviour: any strategy in
  /// adversary::strategy_catalog() plus its parameters. The default
  /// (AttackSpec::balanced()) is bit-identical to not calling attack().
  ScenarioSpec& attack(const adversary::AttackSpec& spec);
  /// Catalog strategy name with its default parameters
  /// (adversary::AttackSpec::named).
  ScenarioSpec& attack(const std::string& strategy_name);
  /// Injected view-poisoned trusted nodes, as a fraction of the base
  /// population (the §VI-B injection attack).
  ScenarioSpec& poisoned_extra(double fraction);
  /// Attaches the §VI-A trusted-node identification attack.
  ScenarioSpec& identification(double threshold = 0.10);

  // --- trusted population ---
  /// Trusted fraction of the WHOLE population (paper's t).
  ScenarioSpec& trusted(double fraction);
  ScenarioSpec& trusted_pct(int percent) { return trusted(percent / 100.0); }
  /// Trusted fraction of the CORRECT population; resolved to
  /// trusted_fraction = share * (1 - f) when the config is materialized.
  ScenarioSpec& trusted_share(double share);
  ScenarioSpec& trusted_overlay(bool enabled);

  // --- defenses ---
  /// Fixed Byzantine-eviction rate in percent; 0 disables eviction.
  ScenarioSpec& eviction_pct(int percent);
  ScenarioSpec& eviction(const core::EvictionSpec& spec);

  // --- dynamics & fidelity ---
  /// Steady background churn (default spec: 2 %/round, 5-round downtime,
  /// rejoin) — or a custom spec.
  ScenarioSpec& churn(bool enabled);
  ScenarioSpec& churn(const metrics::ChurnSpec& spec);
  ScenarioSpec& auth_mode(brahms::AuthMode mode);
  /// Engine-internal parallelism for THIS run — every round phase: push
  /// generation and delivery, pull-target generation, begin_round, the
  /// pull exchanges (in conflict-free waves) and end_round (eviction/view
  /// renewal). 1 = a pool of one that runs the phases inline (default),
  /// 0 = hardware concurrency, n > 1 = shard over n workers. Results are
  /// bit-identical for every width, lossy runs included; the exchanges of a
  /// lossy or tampered run stay serial (their loss/tamper draws share one
  /// stream). Batch-level fan-out lives on Runner, not here.
  ScenarioSpec& threads(std::size_t n);
  ScenarioSpec& wire_roundtrip(bool enabled);
  ScenarioSpec& encrypt_links(bool enabled);
  ScenarioSpec& message_loss(double probability);
  /// Per-leg on-path bit-flip probability (implies the byte round-trip);
  /// with encrypt_links the AEAD rejects every flip, without it only
  /// structural corruption is caught by the typed-leg validator.
  ScenarioSpec& tamper_rate(double probability);

  // --- event-driven time (src/evt) ---
  /// Switches the engine onto the event scheduler (virtual clock, per-link
  /// latency, partitions). Off = round mode, the bit-exact baseline.
  ScenarioSpec& event_mode(bool enabled = true);
  /// Per-link latency model; implies event_mode(true). A region-matrix
  /// model also sets the topology's region count to its own.
  ScenarioSpec& latency(const evt::LatencySpec& spec);
  /// Named latency model from evt::LatencySpec::named ("zero", "lan", "wan",
  /// "tail", "geo3"); implies event_mode(true).
  ScenarioSpec& latency(const std::string& name);
  /// Timed region partition; implies event_mode(true) and at least two
  /// regions.
  ScenarioSpec& partition(const evt::PartitionSchedule& schedule);
  /// Named partition schedule from evt::PartitionSchedule::named ("none",
  /// "mid-third", "late-half"), resolved against rounds(); implies
  /// event_mode(true).
  ScenarioSpec& partition(const std::string& name);
  /// Virtual round deadline; messages past it are counted late and dropped.
  ScenarioSpec& round_interval_ms(std::uint64_t ms);

  /// Free-form label carried into result provenance (JSON "label" field).
  ScenarioSpec& label(std::string text);
  [[nodiscard]] const std::string& label() const { return label_; }

  /// The fully-resolved, NOT yet validated config (share -> fraction
  /// mapping applied); run()/Runner validate before executing.
  [[nodiscard]] metrics::ExperimentConfig config() const;

  /// Builds and runs the experiment (convenience for one-shot callers;
  /// use Runner for repetition, comparison, grids and observers).
  [[nodiscard]] metrics::ExperimentResult run() const;

 private:
  metrics::ExperimentConfig base_{};
  double trusted_share_ = 0.0;
  bool use_trusted_share_ = false;
  std::string label_;
};

}  // namespace raptee::scenario
