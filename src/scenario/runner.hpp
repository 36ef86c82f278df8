// Runner: executes ScenarioSpecs — single runs (optionally streamed to an
// IScenarioObserver), seed-decorrelated repetitions, RAPTEE-vs-Brahms
// comparisons, ordered batches across a worker pool, and multi-axis grids.
// It is the only experiment executor: every batch entry point below fans
// out through one exec::parallel_map.
//
// Grid models the paper's sweep shape directly: a base spec plus named
// axes, each axis a list of labelled mutations. Cells are materialized in
// row-major order (first axis slowest), and GridResult::at({i, j, ...})
// indexes the aggregated results the same way:
//
//   scenario::Grid grid(knobs.base_spec());
//   grid.axis_eviction_pct(knobs.er_grid()).axis_trusted_pct(knobs.t_grid());
//   const auto sweep = scenario::Runner(knobs.threads).run_grid(grid, reps);
//   sweep.at({er_index, t_index}).pollution.mean();
#pragma once

#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "metrics/experiment.hpp"
#include "scenario/spec.hpp"

namespace raptee::scenario {

class IScenarioObserver;

/// One labelled point on a grid axis: a mutation applied to the base spec.
struct AxisPoint {
  std::string label;                          ///< e.g. "f=10%"
  std::function<void(ScenarioSpec&)> apply;   ///< cell mutation
};

/// A named sweep dimension.
struct Axis {
  std::string name;
  std::vector<AxisPoint> points;
};

class Grid {
 public:
  explicit Grid(ScenarioSpec base) : base_(std::move(base)) {}

  /// Appends a custom axis. Axes multiply: cells() is the cross product.
  Grid& axis(std::string name, std::vector<AxisPoint> points);

  // Axes for the paper's standard sweep dimensions (integer percents).
  Grid& axis_adversary_pct(const std::vector<int>& percents);
  Grid& axis_trusted_pct(const std::vector<int>& percents);
  Grid& axis_eviction_pct(const std::vector<int>& percents);
  /// Attack-strategy axis: one point per AttackSpec, labelled by strategy
  /// name (the attack-matrix sweep dimension).
  Grid& axis_attack(const std::vector<adversary::AttackSpec>& specs);
  /// Same, with explicit labels (needed when one strategy appears twice
  /// with different parameters, e.g. eclipse on honest vs trusted victims).
  Grid& axis_attack(const std::vector<std::pair<std::string, adversary::AttackSpec>>& specs);
  /// Eviction-policy axis with explicit labelled specs (e.g. none / fixed /
  /// adaptive — richer than the fixed-percent axis).
  Grid& axis_eviction(const std::vector<std::pair<std::string, core::EvictionSpec>>& specs);
  /// Latency-model axis (event-driven time): each point switches the cell
  /// onto the event scheduler with the given model. Label "zero"/"lan"/...
  Grid& axis_latency(const std::vector<std::pair<std::string, evt::LatencySpec>>& specs);
  /// Partition-schedule axis (event-driven time); implies event mode.
  Grid& axis_partition(
      const std::vector<std::pair<std::string, evt::PartitionSchedule>>& specs);

  [[nodiscard]] const ScenarioSpec& base() const { return base_; }
  [[nodiscard]] const std::vector<Axis>& axes() const { return axes_; }
  /// Total cell count (product of axis sizes; 1 when no axes).
  [[nodiscard]] std::size_t size() const;
  /// All cells in row-major order (first axis slowest), each labelled
  /// "axis1=point1/axis2=point2/...".
  [[nodiscard]] std::vector<ScenarioSpec> cells() const;

 private:
  ScenarioSpec base_;
  std::vector<Axis> axes_;
};

/// Aggregated results of a grid sweep, indexable by per-axis indices.
struct GridResult {
  std::vector<Axis> axes;
  std::vector<ScenarioSpec> specs;              ///< row-major, same order as cells
  std::vector<metrics::RepeatedResult> cells;   ///< row-major

  /// `indices` must carry one index per axis.
  [[nodiscard]] const metrics::RepeatedResult& at(
      std::initializer_list<std::size_t> indices) const;
  [[nodiscard]] std::size_t flat_index(std::initializer_list<std::size_t> indices) const;
};

class Runner {
 public:
  /// `threads` — exec::ThreadPool width for repeated/batch/grid/comparison
  /// runs; 0 = hardware concurrency, 1 = fully sequential. Every cell
  /// derives its seeds independently, so the parallel output (including
  /// results::to_json bytes) is bit-identical to threads == 1 — asserted
  /// by scenario_test_parallel_determinism.
  explicit Runner(std::size_t threads = 0) : threads_(threads) {}

  /// One run; `observer` (optional) streams per-round snapshots.
  [[nodiscard]] metrics::ExperimentResult run(const ScenarioSpec& spec,
                                              IScenarioObserver* observer = nullptr) const;

  /// Mean/σ aggregation over `reps` seed-decorrelated runs.
  [[nodiscard]] metrics::RepeatedResult run_repeated(const ScenarioSpec& spec,
                                                     std::size_t reps) const;

  /// RAPTEE-vs-Brahms at matched f (§V-B resilience improvement).
  [[nodiscard]] metrics::ComparisonResult run_comparison(const ScenarioSpec& spec,
                                                         std::size_t reps) const;

  /// Runs every spec once, at its own seed, as one batch across the worker
  /// pool, preserving order. The per-run form, for callers that read
  /// per-run fields RepeatedResult does not aggregate (the evt block, the
  /// attack series).
  [[nodiscard]] std::vector<metrics::ExperimentResult> run_each(
      const std::vector<ScenarioSpec>& specs) const;

  /// Runs every spec `reps` times (seed-decorrelated), all cells flattened
  /// into one batch across the worker pool; aggregates per spec, preserving
  /// order. The throughput backbone of every figure bench.
  [[nodiscard]] std::vector<metrics::RepeatedResult> run_batch(
      const std::vector<ScenarioSpec>& specs, std::size_t reps) const;

  /// Cross-product sweep; cells run as one flattened batch.
  [[nodiscard]] GridResult run_grid(const Grid& grid, std::size_t reps) const;

 private:
  std::size_t threads_ = 0;
};

}  // namespace raptee::scenario
