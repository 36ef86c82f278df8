// Attack lab — the paper's §VI security analysis as an interactive tool:
//
//   1. trusted-node identification: sweep the adversary's threshold and
//      print precision/recall/F1 under a chosen eviction policy;
//   2. view-poisoned trusted-node injection: watch the poisoned devices'
//      self-healing (trusted-view pollution round by round);
//   3. adversary catalog: run every attack strategy
//      (adversary::strategy_catalog()) against the same population and
//      compare pollution, victim isolation and suppressed liveness.
//
//   ./build/examples/attack_lab [N] [f%] [t%] [ER% | adaptive]
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "adversary/strategy.hpp"
#include "metrics/report.hpp"
#include "scenario/scenario.hpp"

namespace {

[[noreturn]] void usage_exit(const char* error) {
  std::cerr << "error: " << error << "\n"
            << "usage: attack_lab [N] [f%] [t%] [ER% | adaptive | -1]\n"
            << "  N    population size, 8..1000000 (default 300)\n"
            << "  f%   Byzantine percent, 0..99 (default 20)\n"
            << "  t%   trusted percent, 0..100 (default 15)\n"
            << "  ER%  fixed eviction percent 0..100, or 'adaptive'/'-1' for\n"
            << "       the adaptive policy (default adaptive)\n";
  std::exit(2);
}

raptee::core::EvictionSpec parse_eviction(const char* value) {
  const std::string text = value;
  if (text == "adaptive" || text == "-1") return raptee::core::EvictionSpec::adaptive();
  return raptee::core::EvictionSpec::fixed(
      raptee::scenario::parse_double("ER%", value, 0.0, 100.0) / 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raptee;

  scenario::ScenarioSpec spec;
  try {
    spec = scenario::ScenarioSpec()
               .population(argc > 1 ? static_cast<std::size_t>(
                                          scenario::parse_u64("N", argv[1], 8, 1000000))
                                    : 300)
               .adversary((argc > 2 ? scenario::parse_double("f%", argv[2], 0.0, 99.0)
                                    : 20.0) /
                          100.0)
               .trusted((argc > 3 ? scenario::parse_double("t%", argv[3], 0.0, 100.0)
                                  : 15.0) /
                        100.0)
               .eviction(argc > 4 ? parse_eviction(argv[4])
                                  : core::EvictionSpec::adaptive())
               .view_size(24)
               .rounds(60)
               .seed(13);
  } catch (const std::invalid_argument& error) {
    usage_exit(error.what());
  }
  const auto config = spec.config();

  std::cout << "Attack lab: N=" << config.n << "  f=" << config.byzantine_fraction * 100
            << "%  t=" << config.trusted_fraction * 100
            << "%  eviction=" << config.eviction.describe() << "\n\n";

  // --- 1. identification attack, threshold sweep ---
  std::cout << "[1] Trusted-node identification (adversary's best round)\n";
  metrics::TablePrinter ident_table({"threshold pp", "precision", "recall", "F1"});
  for (const double threshold : {0.05, 0.10, 0.15, 0.20}) {
    const auto result = scenario::ScenarioSpec(spec.config()).identification(threshold).run();
    ident_table.add_row({metrics::fmt(100 * threshold, 0),
                         metrics::fmt(result.ident_best.precision, 2),
                         metrics::fmt(result.ident_best.recall, 2),
                         metrics::fmt(result.ident_best.f1, 2)});
  }
  std::cout << ident_table.render() << '\n';

  // --- 2. poisoned trusted-node injection: self-healing ---
  std::cout << "[2] View-poisoned trusted injection (+10% poisoned devices)\n";
  const auto attacked = scenario::ScenarioSpec(spec.config()).poisoned_extra(0.10).run();

  metrics::TablePrinter heal_table({"round", "all correct views %", "trusted views %"});
  // `trusted` includes the poisoned devices: their curve starts heavily
  // polluted (all-Byzantine bootstrap) and collapses as the honest enclave
  // code self-heals the views.
  const auto& series = attacked.pollution_series;
  const auto& trusted_series = attacked.pollution_series_trusted;
  for (std::size_t r = 0; r < series.size(); r += 5) {
    heal_table.add_row({std::to_string(r), metrics::fmt(100.0 * series[r]),
                        metrics::fmt(100.0 * trusted_series[r])});
  }
  std::cout << heal_table.render() << '\n'
            << "steady-state pollution: all=" << metrics::fmt(100 * attacked.steady_pollution)
            << "%  honest=" << metrics::fmt(100 * attacked.steady_pollution_honest)
            << "%  trusted(incl. poisoned)="
            << metrics::fmt(100 * attacked.steady_pollution_trusted) << "%\n\n";

  // --- 3. the adversary catalog: every strategy, same system ---
  std::cout << "[3] Adversary catalog (ScenarioSpec::attack, strategy catalog)\n";
  metrics::TablePrinter catalog_table(
      {"strategy", "pollution %", "victim %", "isolated rd", "suppressed", "summary"});
  for (const adversary::StrategyEntry& entry : adversary::strategy_catalog()) {
    const auto result =
        scenario::ScenarioSpec(spec.config()).attack(entry.preset()).run();
    const bool victims = result.attack.victims > 0;
    catalog_table.add_row(
        {std::string(entry.name), metrics::fmt(100.0 * result.steady_pollution),
         victims ? metrics::fmt(100.0 * result.attack.steady_victim_pollution) : "-",
         result.attack.rounds_to_isolation
             ? std::to_string(*result.attack.rounds_to_isolation)
             : "-",
         std::to_string(result.attack.legs_suppressed), std::string(entry.summary)});
  }
  std::cout << catalog_table.render() << '\n'
            << "victim columns apply to targeted strategies (eclipse); suppressed\n"
               "legs count pulls an omission adversary refused to answer.\n";
  return 0;
}
