// Link-session scaling benchmark: the encrypted exchange phase with the
// persistent wire::LinkTable (one derivation per active pair, nonce
// continuity across rounds).
//
// One gate, independent of machine load: derivations must track active
// pairs, at most half of the run's started exchanges — the count a link
// re-derived for every exchange of every round (fresh HKDF and cipher
// construction each time) would perform.
#include <iostream>

#include "bench_common.hpp"
#include "sim/engine.hpp"

namespace {

/// Captures the engine's link-table statistics and exchange count at the
/// end of the run.
struct LinkStatsObserver : raptee::scenario::IScenarioObserver {
  void on_round(const raptee::scenario::RoundSnapshot&,
                const raptee::sim::Engine&) override {}
  void on_run_end(const raptee::metrics::ExperimentResult&,
                  const raptee::sim::Engine& engine) override {
    derivations = engine.link_derivations();
    active_sessions = engine.link_active_sessions();
    exchanges = engine.counters().pulls_started;
  }
  std::uint64_t derivations = 0;
  std::size_t active_sessions = 0;
  std::uint64_t exchanges = 0;
};

}  // namespace

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("scale_links", knobs);
  std::cout << "encrypted exchange phase: link-secret derivations against "
               "started exchanges\n\n";

  // A busy encrypted scenario: adversary + trusted population so all five
  // exchange legs (including swaps) exercise the sealed path.
  const scenario::ScenarioSpec spec = knobs.base_spec()
                                          .adversary(0.1)
                                          .trusted_share(0.2)
                                          .encrypt_links(true)
                                          .label("scale_links");

  LinkStatsObserver stats;
  const bench::WallTimer timer;
  const metrics::ExperimentResult result = metrics::run_experiment(spec.config(), &stats);
  const double seconds = timer.seconds();

  metrics::TablePrinter table({"wall s", "exchanges", "derivations", "sessions"});
  table.add_row({metrics::fmt(seconds, 2), std::to_string(stats.exchanges),
                 std::to_string(stats.derivations),
                 std::to_string(stats.active_sessions)});
  std::cout << table.render() << '\n';

  scenario::results::BenchReport report("scale_links", knobs);
  report.add_row(metrics::JsonObject()
                     .field("wall_seconds", seconds)
                     .field("exchanges_started", stats.exchanges)
                     .field("derivations", stats.derivations)
                     .field("active_sessions", stats.active_sessions)
                     .field("wire_bytes", result.wire_bytes)
                     .field("pulls_completed", result.pulls_completed));
  report.set_timing(seconds, 1);
  report.write();

  // Derivations are O(active pairs), not O(exchanges x rounds). On a tiny
  // smoke grid nearly every pair is active, so gate at a conservative 2x;
  // paper-scale runs show an order of magnitude or more.
  if (stats.derivations == 0 || stats.derivations * 2 > stats.exchanges) {
    std::cerr << "FAIL: derivations " << stats.derivations
              << " not <= 1/2 of started exchanges " << stats.exchanges << '\n';
    return 1;
  }
  return 0;
}
