// Experiment harness: one function from configuration to the paper's
// metrics, plus the repetition seeds, aggregation and baseline comparison
// that scenario::Runner — the executor under every bench binary (Figs. 3,
// 5–13) — builds on.
//
// A single experiment:
//   1. builds the population — h honest, t trusted, f Byzantine (optionally
//      + injected poisoned-trusted) with attested enclaves and wired keys;
//   2. bootstraps every correct node with a uniform sample of the global
//      membership (poisoned-trusted nodes get all-Byzantine views);
//   3. runs `rounds` synchronous rounds under the configured attack. After
//      each Engine::step() it refreshes the view slab once and calls the
//      trackers' observe() (trackers.hpp); the identification ledger is
//      fed by the Byzantine nodes themselves, inside the step;
//   4. reports steady-state pollution, discovery round, stability round,
//      adaptive-eviction telemetry, identification-attack scores and
//      enclave cycle totals.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "adversary/attack.hpp"
#include "adversary/identification.hpp"
#include "brahms/auth.hpp"
#include "brahms/params.hpp"
#include "core/eviction.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "evt/config.hpp"

namespace raptee::scenario {
class IScenarioObserver;
}  // namespace raptee::scenario

namespace raptee::metrics {

/// Declarative churn for an experiment: every round in [from, until) a
/// `rate_per_round` fraction of the correct population crashes (Byzantine
/// nodes never churn — the adversary keeps its members online), optionally
/// rejoining `downtime` rounds later with a fresh bootstrap view. Each
/// correct node crashes at most once per run (sim::ChurnSchedule draws
/// victims from a shuffled pool without replacement), so churn tapers off
/// once rate_per_round × window exceeds the correct population. The
/// schedule is drawn from a seed-derived stream, so churned runs stay
/// bit-for-bit reproducible.
struct ChurnSpec {
  bool enabled = false;
  Round from = 0;
  Round until = 0;             ///< exclusive; 0 = run length
  double rate_per_round = 0.01;
  Round downtime = 5;
  bool rejoin = true;

  [[nodiscard]] static ChurnSpec none() { return {}; }
  [[nodiscard]] static ChurnSpec steady(double rate_per_round, Round downtime = 5,
                                        bool rejoin = true) {
    ChurnSpec s;
    s.enabled = true;
    s.rate_per_round = rate_per_round;
    s.downtime = downtime;
    s.rejoin = rejoin;
    return s;
  }
  void validate() const;
};

/// D4 stability estimator: per-node pollution smoothing window (rounds).
inline constexpr std::size_t kStabilityWindow = 10;

struct ExperimentConfig {
  std::size_t n = 600;               ///< base population (excludes injected nodes)
  double byzantine_fraction = 0.10;  ///< f
  double trusted_fraction = 0.0;     ///< t
  double poisoned_extra_fraction = 0.0;  ///< injected poisoned-trusted, as fraction of n

  brahms::Params brahms{};                      ///< l1/l2/α/β/γ
  /// The adversary: a catalog strategy + parameters. The default
  /// (`balanced`) reproduces the pre-strategy hardcoded attack bit for bit.
  adversary::AttackSpec attack{};
  core::EvictionSpec eviction = core::EvictionSpec::none();
  ChurnSpec churn = ChurnSpec::none();
  bool trusted_overlay = false;                 ///< D1 extension
  brahms::AuthMode auth_mode = brahms::AuthMode::kFingerprint;

  Round rounds = 100;
  std::uint64_t seed = 42;

  bool run_identification = false;  ///< attach the §VI-A attack
  double identification_threshold = 0.10;

  bool wire_roundtrip = false;   ///< encode/decode every leg
  bool encrypt_links = false;    ///< AES-CTR+HMAC every leg
  double message_loss = 0.0;
  /// Per-leg probability that an on-path adversary flips one bit of the
  /// serialized leg (implies the byte round-trip). With encrypt_links the
  /// AEAD rejects every flip; without it only what fails typed decoding is
  /// dropped — the rest models undetected corruption reaching the protocol.
  double tamper_rate = 0.0;

  /// Engine-internal parallelism (sim::EngineConfig::threads): 1 = one
  /// inline worker (the default), 0 = shard over hardware concurrency,
  /// n > 1 = shard over n workers. Shards every round phase, the exchanges
  /// of a lossless, untampered run included; results are bit-identical
  /// across every width and machine, lossy runs included.
  /// ScenarioSpec::threads() sets this.
  std::size_t engine_threads = 1;

  /// Event-driven time (sim::EngineConfig::event, src/evt): opt-in message
  /// latency/jitter, region partitions and a virtual clock. Off = round
  /// mode, the bit-exact baseline. ScenarioSpec's event setters fill this.
  evt::EventConfig event{};

  [[nodiscard]] std::size_t byzantine_count() const;
  [[nodiscard]] std::size_t trusted_count() const;
  [[nodiscard]] std::size_t poisoned_count() const;
  void validate() const;
};

/// Attack-side observables of one run. `engaged` is false for the default
/// balanced attack with no extra knobs — results::to_json then omits the
/// whole block, keeping default-run documents byte-identical to the
/// pre-AttackSpec schema.
struct AttackOutcome {
  bool engaged = false;
  std::string strategy = "balanced";   ///< resolved strategy name
  std::size_t victims = 0;             ///< size of the targeted set
  double steady_victim_pollution = 0.0;
  std::vector<double> victim_pollution_series;  ///< mean victim pollution per round
  std::optional<Round> rounds_to_isolation;     ///< all victims eclipsed
  std::uint64_t legs_suppressed = 0;   ///< pulls the adversary refused to answer
  std::uint64_t rounds_active = 0;     ///< rounds the strategy was on duty
};

/// Event-mode observables of one run. `engaged` is false when event mode is
/// off — results::to_json then omits the whole block, keeping round-mode
/// documents byte-identical to the pre-evt schema.
struct EvtOutcome {
  bool engaged = false;
  std::uint64_t virtual_ms = 0;       ///< total simulated virtual time
  std::uint64_t legs_late = 0;        ///< messages past their round deadline
  std::uint64_t partition_drops = 0;  ///< messages cut by an active partition
  /// Wall-clock-realistic dissemination figure: virtual time at which every
  /// correct node had discovered the full membership (the DiscoveryTracker
  /// round, denominated in the configured round interval). 0 when discovery
  /// was not reached within the run.
  std::uint64_t dissemination_time_ms = 0;
};

struct ExperimentResult {
  double steady_pollution = 0.0;  ///< fraction of Byzantine IDs, steady state
  double steady_pollution_honest = 0.0;   ///< honest untrusted nodes only
  double steady_pollution_trusted = 0.0;  ///< trusted nodes only
  std::optional<Round> discovery_round;
  std::optional<Round> stability_round;
  std::vector<double> pollution_series;
  std::vector<double> pollution_series_trusted;  ///< trusted (incl. poisoned) only
  std::vector<double> min_knowledge_series;
  double mean_eviction_rate = 0.0;
  double mean_trusted_ratio = 0.0;
  adversary::IdentificationResult ident_best;   ///< best F1 over all rounds
  adversary::IdentificationResult ident_final;  ///< at the last round
  Cycles enclave_cycles_total = 0;              ///< summed over trusted nodes
  std::uint64_t swaps_completed = 0;
  std::uint64_t pulls_completed = 0;
  std::uint64_t legs_dropped = 0;    ///< loss + corruption, all legs
  std::uint64_t legs_tampered = 0;   ///< on-path flips (tamper_rate draws)
  std::uint64_t legs_corrupted = 0;  ///< legs the receiver rejected
  std::uint64_t wire_bytes = 0;      ///< serialized bytes put on the wire
  AttackOutcome attack;              ///< adversary-side observables
  EvtOutcome evt;                    ///< event-mode observables
};

/// Runs one experiment. `observer`, when given, receives one RoundSnapshot
/// per round plus run-boundary hooks (see scenario/observer.hpp); the
/// callbacks never change the simulation outcome.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              scenario::IScenarioObserver* observer = nullptr);

/// Mean/σ aggregation over seed-decorrelated runs (aggregate_runs; the
/// scenario::Runner executes the runs).
struct RepeatedResult {
  RunningStats pollution;        // fractions, all non-Byzantine nodes
  RunningStats pollution_honest; // fractions, honest untrusted nodes only
  RunningStats pollution_trusted;
  RunningStats discovery;       // rounds (only runs that reached it)
  RunningStats stability;       // rounds (only runs that reached it)
  RunningStats eviction_rate;
  RunningStats trusted_ratio;
  RunningStats ident_best_precision;
  RunningStats ident_best_recall;
  RunningStats ident_best_f1;
  /// Attack-side aggregates (samples only from runs whose attack engaged
  /// the corresponding feature; all empty for default balanced runs).
  RunningStats victim_pollution;   // steady-state victim pollution, runs with victims
  RunningStats isolation_round;    // runs that reached full isolation
  RunningStats legs_suppressed;    // runs with an engaged attack
  std::size_t isolation_reached = 0;
  std::size_t attacked_runs = 0;   // runs with attack.engaged
  std::size_t runs = 0;
  std::size_t discovery_reached = 0;
  std::size_t stability_reached = 0;
};

/// RAPTEE-vs-Brahms comparison at matched f: the paper's "resilience
/// improvement" (relative drop in the Byzantine share of *honest* nodes'
/// views, §V-B) and round-overhead percentages for discovery and stability.
struct ComparisonResult {
  RepeatedResult raptee;
  RepeatedResult baseline;
  /// Relative pollution drop over all correct (non-Byzantine) nodes — the
  /// figures' "views of correct nodes" metric.
  double resilience_improvement_pct = 0.0;
  /// Same, restricted to honest untrusted nodes (§V-C prose metric).
  double resilience_improvement_honest_pct = 0.0;
  std::optional<double> discovery_overhead_pct;
  std::optional<double> stability_overhead_pct;
};

/// The matched-f Brahms baseline a comparison measures against: same
/// config with the trusted population, eviction, overlay and injection
/// stripped.
[[nodiscard]] ExperimentConfig comparison_baseline(const ExperimentConfig& raptee_config);

/// Derived comparison percentages from two already-aggregated sides (the
/// last step of scenario::Runner::run_comparison, and the one copy of this
/// math the comparison benches read).
[[nodiscard]] ComparisonResult finalize_comparison(RepeatedResult raptee,
                                                   RepeatedResult baseline);

/// The seed-decorrelation stream used by every scenario::Runner batch:
/// repetition `rep` of a spec with base seed `base_seed` always runs with
/// this derived seed, so a batch cell and a standalone repetition of the
/// same spec agree bit for bit.
[[nodiscard]] std::uint64_t repetition_seed(std::uint64_t base_seed, std::size_t rep);

/// Aggregates a contiguous slice of per-run results into mean/σ form (the
/// reduction step under every scenario::Runner aggregate).
[[nodiscard]] RepeatedResult aggregate_runs(const ExperimentResult* results,
                                            std::size_t count);

}  // namespace raptee::metrics
