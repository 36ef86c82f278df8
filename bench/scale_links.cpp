// Link-session scaling benchmark: the encrypted exchange phase with the
// persistent wire::LinkTable (one derivation per active pair, nonce
// continuity across rounds) against the per-exchange-derivation baseline it
// replaced (link_sessions = false — fresh HKDF + cipher construction for
// every exchange of every round).
//
// Two gates, both independent of machine load:
//   * observable purity — both modes must produce byte-identical
//     results::to_json output (the session cache only changes ciphertext);
//   * derivation scaling — cached derivations must track active pairs, a
//     small fraction of the baseline's O(exchanges × rounds).
// The wall-clock speedup is reported always and asserted (>= 1.2x) only
// under RAPTEE_BENCH_REQUIRE_SPEEDUP=1, as ratios on loaded shared runners
// are too noisy to gate by default.
#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"
#include "sim/engine.hpp"

namespace {

/// Captures the engine's link-table statistics at the end of the run.
struct LinkStatsObserver : raptee::scenario::IScenarioObserver {
  void on_round(const raptee::scenario::RoundSnapshot&,
                const raptee::sim::Engine&) override {}
  void on_run_end(const raptee::metrics::ExperimentResult&,
                  const raptee::sim::Engine& engine) override {
    derivations = engine.link_derivations();
    active_sessions = engine.link_active_sessions();
  }
  std::uint64_t derivations = 0;
  std::size_t active_sessions = 0;
};

}  // namespace

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("scale_links", knobs);
  std::cout << "encrypted exchange phase: persistent link sessions vs "
               "per-exchange key derivation (identical observable output)\n\n";

  // A busy encrypted scenario: adversary + trusted population so all five
  // exchange legs (including swaps) exercise the sealed path.
  const scenario::ScenarioSpec base = knobs.base_spec()
                                          .adversary(0.1)
                                          .trusted_share(0.2)
                                          .encrypt_links(true)
                                          .label("scale_links");

  metrics::TablePrinter table(
      {"mode", "wall s", "derivations", "sessions", "speedup"});
  scenario::results::BenchReport report("scale_links", knobs);

  struct Mode {
    const char* name;
    bool cached;
  };
  double baseline_seconds = 0.0;
  std::uint64_t baseline_derivations = 0;
  std::uint64_t cached_derivations = 0;
  std::size_t cached_sessions = 0;
  double cached_seconds = 0.0;
  std::string baseline_json, cached_json;

  for (const Mode mode : {Mode{"per-exchange", false}, Mode{"cached", true}}) {
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec(base.config()).link_sessions(mode.cached);
    LinkStatsObserver stats;
    const bench::WallTimer timer;
    const metrics::ExperimentResult result =
        metrics::run_experiment(spec.config(), &stats);
    const double seconds = timer.seconds();
    const std::string result_json = scenario::results::to_json(result);

    double speedup = 1.0;
    if (!mode.cached) {
      baseline_seconds = seconds;
      baseline_derivations = stats.derivations;
      baseline_json = result_json;
    } else {
      cached_seconds = seconds;
      cached_derivations = stats.derivations;
      cached_sessions = stats.active_sessions;
      cached_json = result_json;
      if (seconds > 0.0) speedup = baseline_seconds / seconds;
    }

    table.add_row({mode.name, metrics::fmt(seconds, 2),
                   std::to_string(stats.derivations),
                   std::to_string(stats.active_sessions), metrics::fmt(speedup, 2)});
    report.add_row(metrics::JsonObject()
                       .field("mode", mode.name)
                       .field("wall_seconds", seconds)
                       .field("derivations", stats.derivations)
                       .field("active_sessions", stats.active_sessions)
                       .field("wire_bytes", result.wire_bytes)
                       .field("pulls_completed", result.pulls_completed)
                       .field("speedup_vs_baseline", speedup));
  }

  std::cout << table.render() << '\n';
  const double speedup =
      cached_seconds > 0.0 ? baseline_seconds / cached_seconds : 1.0;
  report.set_timing(cached_seconds, 1, speedup);
  report.write();

  if (cached_json != baseline_json) {
    std::cerr << "FAIL: session cache changed observable results\n";
    return 1;
  }
  std::cout << "observable output identical across modes\n";
  // The point of the refactor: derivations drop from O(exchanges x rounds)
  // to O(active pairs). On a tiny smoke grid nearly every pair is active,
  // so gate at a conservative 2x; paper-scale runs show an order of
  // magnitude or more.
  if (cached_derivations == 0 || cached_derivations * 2 > baseline_derivations) {
    std::cerr << "FAIL: cached derivations " << cached_derivations
              << " not <= 1/2 of baseline " << baseline_derivations << '\n';
    return 1;
  }
  std::cout << "derivations: " << baseline_derivations << " -> "
            << cached_derivations << " (sessions held: " << cached_sessions
            << ")\n";
  if (const char* require = std::getenv("RAPTEE_BENCH_REQUIRE_SPEEDUP");
      require && std::atoi(require) != 0) {
    if (speedup < 1.2) {
      std::cerr << "FAIL: cached sessions speedup " << metrics::fmt(speedup, 2)
                << "x < 1.2x\n";
      return 1;
    }
    std::cout << "speedup gate passed: " << metrics::fmt(speedup, 2) << "x\n";
  }
  return 0;
}
