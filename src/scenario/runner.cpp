#include "scenario/runner.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "exec/parallel.hpp"
#include "obs/monitor.hpp"
#include "scenario/observer.hpp"

namespace raptee::scenario {

namespace {

/// Fans one observer stream out to two sinks (caller observer + the env
/// monitor). Lives on the stack of Runner::run for the run's duration.
class TeeObserver final : public IScenarioObserver {
 public:
  TeeObserver(IScenarioObserver* a, IScenarioObserver* b) : a_(a), b_(b) {}

  void on_run_start(const metrics::ExperimentConfig& config,
                    const sim::Engine& engine) override {
    a_->on_run_start(config, engine);
    b_->on_run_start(config, engine);
  }
  void on_round(const RoundSnapshot& snapshot, const sim::Engine& engine) override {
    a_->on_round(snapshot, engine);
    b_->on_round(snapshot, engine);
  }
  void on_run_end(const metrics::ExperimentResult& result,
                  const sim::Engine& engine) override {
    a_->on_run_end(result, engine);
    b_->on_run_end(result, engine);
  }

 private:
  IScenarioObserver* a_;
  IScenarioObserver* b_;
};

/// Runs every config as one exec::parallel_map task, preserving order —
/// the multi-core backbone under every batch entry point. Each run derives
/// all of its randomness from its own seed, so the output is bit-identical
/// to threads == 1.
std::vector<metrics::ExperimentResult> run_configs(
    const std::vector<metrics::ExperimentConfig>& configs, std::size_t threads) {
  // The env monitor (RAPTEE_BENCH_MONITOR_PORT) streams every cell; its
  // callbacks are mutex-guarded, so parallel cells interleave safely, and
  // the observer path is read-only, so attaching it leaves every result
  // byte identical.
  obs::ScenarioMonitor* monitor = obs::env_monitor();
  return exec::parallel_map(threads, configs.size(), [&configs, monitor](std::size_t i) {
    return metrics::run_experiment(configs[i], monitor);
  });
}

/// Flattens (configs × reps) into one run list with decorrelated seeds —
/// metrics::repetition_seed, so a batch cell and a standalone repetition of
/// the same spec agree bit for bit — runs it as one batch, and reduces each
/// consecutive `reps`-sized slice back to its aggregate. This is the path
/// under run_repeated / run_batch / run_grid / run_comparison.
std::vector<metrics::RepeatedResult> run_flattened(
    const std::vector<metrics::ExperimentConfig>& configs, std::size_t reps,
    std::size_t threads) {
  RAPTEE_REQUIRE(reps >= 1, "need at least one repetition");
  std::vector<metrics::ExperimentConfig> flat;
  flat.reserve(configs.size() * reps);
  for (const metrics::ExperimentConfig& config : configs) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      metrics::ExperimentConfig cell = config;
      cell.seed = metrics::repetition_seed(config.seed, rep);
      flat.push_back(cell);
    }
  }
  const std::vector<metrics::ExperimentResult> results = run_configs(flat, threads);

  std::vector<metrics::RepeatedResult> out;
  out.reserve(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    out.push_back(metrics::aggregate_runs(results.data() + c * reps, reps));
  }
  return out;
}

std::vector<metrics::ExperimentConfig> configs_of(const std::vector<ScenarioSpec>& specs) {
  std::vector<metrics::ExperimentConfig> configs;
  configs.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) configs.push_back(spec.config());
  return configs;
}

}  // namespace

Grid& Grid::axis(std::string name, std::vector<AxisPoint> points) {
  RAPTEE_REQUIRE(!points.empty(), "grid axis '" << name << "' has no points");
  axes_.push_back({std::move(name), std::move(points)});
  return *this;
}

Grid& Grid::axis_adversary_pct(const std::vector<int>& percents) {
  std::vector<AxisPoint> points;
  points.reserve(percents.size());
  for (const int f : percents) {
    points.push_back({"f=" + std::to_string(f) + "%",
                      [f](ScenarioSpec& spec) { spec.adversary_pct(f); }});
  }
  return axis("adversary", std::move(points));
}

Grid& Grid::axis_trusted_pct(const std::vector<int>& percents) {
  std::vector<AxisPoint> points;
  points.reserve(percents.size());
  for (const int t : percents) {
    points.push_back({"t=" + std::to_string(t) + "%",
                      [t](ScenarioSpec& spec) { spec.trusted_pct(t); }});
  }
  return axis("trusted", std::move(points));
}

Grid& Grid::axis_eviction_pct(const std::vector<int>& percents) {
  std::vector<AxisPoint> points;
  points.reserve(percents.size());
  for (const int er : percents) {
    points.push_back({"er=" + std::to_string(er) + "%",
                      [er](ScenarioSpec& spec) {
                        spec.eviction(core::EvictionSpec::fixed(er / 100.0));
                      }});
  }
  return axis("eviction", std::move(points));
}

Grid& Grid::axis_attack(const std::vector<adversary::AttackSpec>& specs) {
  std::vector<std::pair<std::string, adversary::AttackSpec>> labelled;
  labelled.reserve(specs.size());
  for (const adversary::AttackSpec& attack : specs) labelled.emplace_back(attack.strategy, attack);
  return axis_attack(labelled);
}

Grid& Grid::axis_attack(
    const std::vector<std::pair<std::string, adversary::AttackSpec>>& specs) {
  std::vector<AxisPoint> points;
  points.reserve(specs.size());
  for (const auto& [label, attack] : specs) {
    points.push_back({label, [attack](ScenarioSpec& spec) { spec.attack(attack); }});
  }
  return axis("attack", std::move(points));
}

Grid& Grid::axis_eviction(
    const std::vector<std::pair<std::string, core::EvictionSpec>>& specs) {
  std::vector<AxisPoint> points;
  points.reserve(specs.size());
  for (const auto& [label, eviction] : specs) {
    points.push_back(
        {label, [eviction](ScenarioSpec& spec) { spec.eviction(eviction); }});
  }
  return axis("eviction", std::move(points));
}

Grid& Grid::axis_latency(
    const std::vector<std::pair<std::string, evt::LatencySpec>>& specs) {
  std::vector<AxisPoint> points;
  points.reserve(specs.size());
  for (const auto& [label, latency] : specs) {
    points.push_back({label, [latency](ScenarioSpec& spec) { spec.latency(latency); }});
  }
  return axis("latency", std::move(points));
}

Grid& Grid::axis_partition(
    const std::vector<std::pair<std::string, evt::PartitionSchedule>>& specs) {
  std::vector<AxisPoint> points;
  points.reserve(specs.size());
  for (const auto& [label, partition] : specs) {
    points.push_back(
        {label, [partition](ScenarioSpec& spec) { spec.partition(partition); }});
  }
  return axis("partition", std::move(points));
}

std::size_t Grid::size() const {
  std::size_t total = 1;
  for (const Axis& axis : axes_) total *= axis.points.size();
  return total;
}

std::vector<ScenarioSpec> Grid::cells() const {
  std::vector<ScenarioSpec> cells;
  const std::size_t total = size();
  cells.reserve(total);
  for (std::size_t flat = 0; flat < total; ++flat) {
    ScenarioSpec cell = base_;
    std::string label = cell.label();
    // Row-major: the first axis varies slowest.
    std::size_t remainder = flat;
    std::size_t block = total;
    for (const Axis& axis : axes_) {
      block /= axis.points.size();
      const AxisPoint& point = axis.points[remainder / block];
      remainder %= block;
      point.apply(cell);
      if (!label.empty()) label += '/';
      label += axis.name + "=" + point.label;
    }
    cell.label(label);
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::size_t GridResult::flat_index(std::initializer_list<std::size_t> indices) const {
  RAPTEE_REQUIRE(indices.size() == axes.size(),
                 "grid lookup expects " << axes.size() << " indices, got "
                                        << indices.size());
  std::size_t flat = 0;
  std::size_t axis_index = 0;
  for (const std::size_t i : indices) {
    const Axis& axis = axes[axis_index++];
    RAPTEE_REQUIRE(i < axis.points.size(),
                   "index " << i << " out of range for axis '" << axis.name << "'");
    flat = flat * axis.points.size() + i;
  }
  return flat;
}

const metrics::RepeatedResult& GridResult::at(
    std::initializer_list<std::size_t> indices) const {
  return cells[flat_index(indices)];
}

metrics::ExperimentResult Runner::run(const ScenarioSpec& spec,
                                      IScenarioObserver* observer) const {
  obs::ScenarioMonitor* monitor = obs::env_monitor();
  if (monitor == nullptr) return metrics::run_experiment(spec.config(), observer);
  if (observer == nullptr) return metrics::run_experiment(spec.config(), monitor);
  TeeObserver tee(observer, monitor);
  return metrics::run_experiment(spec.config(), &tee);
}

metrics::RepeatedResult Runner::run_repeated(const ScenarioSpec& spec,
                                             std::size_t reps) const {
  return run_flattened({spec.config()}, reps, threads_).front();
}

metrics::ComparisonResult Runner::run_comparison(const ScenarioSpec& spec,
                                                 std::size_t reps) const {
  // Both sides run as ONE fused batch so the pool never idles between the
  // RAPTEE and Brahms halves; aggregation per half is unchanged, so the
  // result is bit-identical to two standalone run_repeated calls.
  const metrics::ExperimentConfig raptee_config = spec.config();
  auto halves = run_flattened(
      {raptee_config, metrics::comparison_baseline(raptee_config)}, reps, threads_);
  return metrics::finalize_comparison(std::move(halves[0]), std::move(halves[1]));
}

std::vector<metrics::ExperimentResult> Runner::run_each(
    const std::vector<ScenarioSpec>& specs) const {
  return run_configs(configs_of(specs), threads_);
}

std::vector<metrics::RepeatedResult> Runner::run_batch(
    const std::vector<ScenarioSpec>& specs, std::size_t reps) const {
  return run_flattened(configs_of(specs), reps, threads_);
}

GridResult Runner::run_grid(const Grid& grid, std::size_t reps) const {
  GridResult result;
  result.axes = grid.axes();
  result.specs = grid.cells();
  result.cells = run_batch(result.specs, reps);
  return result;
}

}  // namespace raptee::scenario
