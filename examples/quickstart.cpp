// Quickstart: build a small mixed population (honest / trusted / Byzantine)
// with the scenario API, run RAPTEE for 80 rounds, and print the metrics
// the paper reports — Byzantine view pollution, discovery and stability
// rounds — next to a plain-Brahms baseline of the same system.
//
//   ./build/examples/quickstart [N] [f%] [t%] [rounds]
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "metrics/report.hpp"
// The public umbrella header; including it here makes every build compile it.
#include "raptee.hpp"

namespace {

[[noreturn]] void usage_exit(const char* error) {
  std::cerr << "error: " << error << "\n"
            << "usage: quickstart [N] [f%] [t%] [rounds]\n"
            << "  N       population size, 8..1000000 (default 500)\n"
            << "  f%      Byzantine percent, 0..99 (default 10)\n"
            << "  t%      trusted percent, 0..100 (default 10)\n"
            << "  rounds  rounds to simulate, 1..100000 (default 80)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raptee;

  scenario::ScenarioSpec spec;
  try {
    spec = scenario::ScenarioSpec()
               .population(argc > 1 ? static_cast<std::size_t>(
                                          scenario::parse_u64("N", argv[1], 8, 1000000))
                                    : 500)
               .adversary((argc > 2 ? scenario::parse_double("f%", argv[2], 0.0, 99.0)
                                    : 10.0) /
                          100.0)
               .trusted((argc > 3 ? scenario::parse_double("t%", argv[3], 0.0, 100.0)
                                  : 10.0) /
                        100.0)
               .rounds(argc > 4 ? static_cast<Round>(
                                      scenario::parse_u64("rounds", argv[4], 1, 100000))
                                : 80)
               .view_size(40)
               .eviction(core::EvictionSpec::adaptive())
               .seed(7);
  } catch (const std::invalid_argument& error) {
    usage_exit(error.what());
  }
  const auto config = spec.config();

  std::cout << "RAPTEE quickstart: N=" << config.n << "  f="
            << config.byzantine_fraction * 100 << "%  t="
            << config.trusted_fraction * 100 << "%  view=" << config.brahms.l1
            << "  eviction=" << config.eviction.describe() << "\n\n";

  const auto cmp = scenario::Runner().run_comparison(spec, /*reps=*/1);

  metrics::TablePrinter table({"protocol", "byz-in-views %", "honest %", "trusted %",
                               "discovery rd", "stability rd"});
  auto row = [&](const char* name, const metrics::RepeatedResult& r) {
    table.add_row({name, metrics::fmt(100.0 * r.pollution.mean()),
                   metrics::fmt(100.0 * r.pollution_honest.mean()),
                   metrics::fmt(100.0 * r.pollution_trusted.mean()),
                   r.discovery_reached ? metrics::fmt(r.discovery.mean(), 0) : "-",
                   r.stability_reached ? metrics::fmt(r.stability.mean(), 0) : "-"});
  };
  row("Brahms (baseline)", cmp.baseline);
  row("RAPTEE", cmp.raptee);
  std::cout << table.render() << '\n';

  std::cout << "resilience improvement: "
            << metrics::fmt(cmp.resilience_improvement_pct) << "%\n";
  if (cmp.discovery_overhead_pct) {
    std::cout << "discovery overhead:     " << metrics::fmt(*cmp.discovery_overhead_pct)
              << "%\n";
  }
  if (cmp.stability_overhead_pct) {
    std::cout << "stability overhead:     " << metrics::fmt(*cmp.stability_overhead_pct)
              << "%\n";
  }
  std::cout << "mean adaptive eviction rate: "
            << metrics::fmt(100.0 * cmp.raptee.eviction_rate.mean()) << "%\n";
  return 0;
}
