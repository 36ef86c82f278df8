// Metric trackers implementing the paper's three evaluation quantities:
//
//   * resilience       — percentage of Byzantine IDs in the views of
//                        non-Byzantine nodes (PollutionTracker);
//   * view stability   — first round at which every non-Byzantine node's
//                        view pollution is within 10 % of the population
//                        average (PollutionTracker; relative band with a
//                        1/l1 floor — design decision D4);
//   * system discovery — first round at which every non-Byzantine node has
//                        discovered ≥ 75 % of non-Byzantine IDs
//                        (DiscoveryTracker; "discovered" = the ID has
//                        appeared in the node's dynamic view — the
//                        peer-sampling service's actual product. Raw
//                        message traffic would trivially saturate in one
//                        round at any scale; view admission is the paper's
//                        round-denominated bottleneck).
//
// The trackers are plain values the experiment loop drives: after each
// Engine::step() it calls refresh_views() once, then every tracker's
// observe(), which reads views through Engine::view_of and returns what the
// round contributed to its series.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/bitset.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"

namespace raptee::metrics {

/// Scans non-Byzantine views once per round.
///
/// Stability (D4): a single view snapshot of l1 entries carries binomial
/// noise ~ sqrt(p(1-p)/l1), which at small l1 dwarfs the 10 % band — so
/// each node's "proportion of Byzantine IDs" is estimated by a rolling mean
/// of its last `smoothing_window` snapshots, and stability is the first
/// round (>= window) at which every node's estimate lies within
/// max(band·avg, 1/l1) of the population average.
class PollutionTracker {
 public:
  /// One round's contribution: the average Byzantine share over all alive
  /// correct nodes, over the honest untrusted ones and over the trusted
  /// ones (0 for an empty class; all 0 when no correct node was alive).
  struct Sample {
    double all = 0.0;
    double honest = 0.0;
    double trusted = 0.0;
  };

  /// `is_byzantine_id` classifies view entries; `view_size` sets the D4
  /// stability floor; `stability_band` is the paper's 10 %.
  PollutionTracker(std::function<bool(NodeId)> is_byzantine_id, std::size_t view_size,
                   double stability_band = 0.10, std::size_t smoothing_window = 10);

  /// Reads the round's views (the slab must be fresh) and appends to every
  /// series: the honest / trusted splits only when a correct node was alive.
  Sample observe(Round round, const sim::Engine& engine);

  /// Average (over non-Byzantine nodes) fraction of Byzantine view entries,
  /// per round.
  [[nodiscard]] const std::vector<double>& pollution_series() const { return series_; }
  /// Same average restricted to honest untrusted nodes (the paper's
  /// "views of honest nodes") and to trusted nodes. The difference is the
  /// §VI-A trusted/untrusted view-composition gap.
  [[nodiscard]] const std::vector<double>& honest_series() const { return honest_series_; }
  [[nodiscard]] const std::vector<double>& trusted_series() const {
    return trusted_series_;
  }
  [[nodiscard]] double steady_state_honest(std::size_t window = 10) const;
  [[nodiscard]] double steady_state_trusted(std::size_t window = 10) const;
  /// Per-round maximum absolute deviation from the round average.
  [[nodiscard]] const std::vector<double>& deviation_series() const { return max_dev_; }

  /// First round satisfying the stability predicate.
  [[nodiscard]] std::optional<Round> stability_round() const { return stability_round_; }

  /// Steady-state pollution: mean of the last `window` rounds (fraction).
  [[nodiscard]] double steady_state_pollution(std::size_t window = 10) const;

 private:
  std::function<bool(NodeId)> is_byzantine_id_;
  double floor_;
  double band_;
  std::size_t window_;
  std::vector<double> series_;
  std::vector<double> honest_series_;
  std::vector<double> trusted_series_;
  std::vector<double> max_dev_;
  /// Rolling history per node id: history_[id] holds up to `window_` recent
  /// pollution snapshots (ring buffer) and their running sum.
  struct NodeHistory {
    std::vector<double> ring;
    std::size_t next = 0;
    std::size_t filled = 0;
    double sum = 0.0;
  };
  std::vector<NodeHistory> history_;
  std::vector<double> smoothed_scratch_;  // per-round; capacity persists
  std::vector<double> smoothed_avg_history_;
  std::optional<Round> stability_round_;
};

/// Accumulates "knowledge": which non-Byzantine IDs have ever been admitted
/// to each non-Byzantine node's dynamic view.
class DiscoveryTracker {
 public:
  /// `correct_ids` — the non-Byzantine population (the 75 % denominator);
  /// observers are the same set. `threshold` is the paper's 0.75.
  DiscoveryTracker(std::vector<NodeId> correct_ids, double threshold = 0.75);

  /// Seeds each observer's knowledge with its bootstrap view. Call once,
  /// after Engine::bootstrap_*, before the first round.
  void prime(sim::Engine& engine);

  /// Learns the round's views (the slab must be fresh); returns the round's
  /// minimum knowledge, which the series always appends.
  double observe(Round round, const sim::Engine& engine);

  [[nodiscard]] std::optional<Round> discovery_round() const { return discovery_round_; }
  /// Minimum (over observers) fraction of correct IDs discovered, per round.
  [[nodiscard]] const std::vector<double>& min_knowledge_series() const {
    return min_knowledge_;
  }

 private:
  void learn_view(NodeId observer, std::span<const NodeId> view);

  double threshold_;
  /// Dense rank of each correct id (index into bitsets); kInvalid for others.
  std::vector<std::uint32_t> rank_;
  std::vector<NodeId> correct_ids_;
  std::vector<DynamicBitset> knowledge_;  // one per correct node (observer)
  std::vector<double> min_knowledge_;
  std::optional<Round> discovery_round_;
};

/// Victim-centric telemetry for targeted (eclipse) attacks: the mean
/// Byzantine share of the victims' views per round, and the first round at
/// which every alive victim is isolated — its view pollution at or above
/// `isolation_threshold` (full eclipse success; Brahms' history sample
/// keeps a γ·l1 slice the adversary cannot reach, so thresholds are
/// denominated below 1.0).
class VictimTracker {
 public:
  VictimTracker(std::function<bool(NodeId)> is_byzantine_id,
                std::vector<NodeId> victims, double isolation_threshold);

  /// Reads the victims' views (the slab must be fresh); returns their mean
  /// pollution, 0 when no victim was alive.
  double observe(Round round, const sim::Engine& engine);

  /// Mean victim view pollution per round; a round with no alive victim
  /// appends nothing.
  [[nodiscard]] const std::vector<double>& pollution_series() const { return series_; }
  /// First round every alive victim was isolated.
  [[nodiscard]] std::optional<Round> isolation_round() const { return isolation_round_; }
  /// Mean of the last `window` series entries (fraction).
  [[nodiscard]] double steady_state_pollution(std::size_t window = 10) const;
  [[nodiscard]] const std::vector<NodeId>& victims() const { return victims_; }

 private:
  std::function<bool(NodeId)> is_byzantine_id_;
  std::vector<NodeId> victims_;
  double isolation_threshold_;
  std::vector<double> series_;
  std::optional<Round> isolation_round_;
};

/// Average applied eviction rate and trusted-exchange ratio across trusted
/// nodes, per round (diagnostics for the adaptive policy).
class TrustedTelemetryTracker {
 public:
  /// One round's contribution: the means over alive trusted nodes, both 0
  /// when none was alive.
  struct Sample {
    double eviction_rate = 0.0;
    double trusted_ratio = 0.0;
  };

  explicit TrustedTelemetryTracker(std::vector<NodeId> trusted_ids);

  /// Reads the trusted nodes' last-round telemetry; a round with no alive
  /// trusted node appends nothing to either series.
  Sample observe(Round round, const sim::Engine& engine);

  [[nodiscard]] const std::vector<double>& eviction_rate_series() const {
    return eviction_rates_;
  }
  [[nodiscard]] const std::vector<double>& trusted_ratio_series() const {
    return trusted_ratios_;
  }
  [[nodiscard]] double mean_eviction_rate() const;
  [[nodiscard]] double mean_trusted_ratio() const;

 private:
  std::vector<NodeId> trusted_ids_;
  std::vector<double> eviction_rates_;
  std::vector<double> trusted_ratios_;
};

}  // namespace raptee::metrics
