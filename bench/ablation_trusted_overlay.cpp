// Ablation D1 — the trusted-overlay extension: trusted nodes add one
// standing exchange per round with their oldest known trusted peer, turning
// incidental pull-time discovery into a persistent sub-overlay. OFF in the
// paper-faithful configuration; this bench quantifies what it buys.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("ablation_trusted_overlay", knobs);
  std::cout << "D1 ablation: trusted overlay off (paper-faithful) vs on\n\n";

  const std::vector<int> fs{10, 20};
  const std::vector<int> ts{1, 10};

  // Per (f, t): baseline, overlay-off, overlay-on.
  std::vector<scenario::ScenarioSpec> specs;
  for (const int f : fs) {
    for (const int t : ts) {
      scenario::ScenarioSpec baseline = knobs.base_spec().adversary_pct(f);
      specs.push_back(baseline);
      scenario::ScenarioSpec off = baseline;
      off.trusted_pct(t).eviction(core::EvictionSpec::adaptive()).trusted_overlay(false);
      specs.push_back(off);
      scenario::ScenarioSpec on = off;
      on.trusted_overlay(true);
      specs.push_back(on);
    }
  }
  const bench::WallTimer timer;
  const auto cells = scenario::Runner(knobs.threads).run_batch(specs, knobs.reps);

  metrics::TablePrinter table({"f%", "t%", "improvement off %", "improvement on %",
                               "trusted pollution off %", "trusted pollution on %"});
  scenario::results::BenchReport report("ablation_trusted_overlay", knobs);

  std::size_t idx = 0;
  for (const int f : fs) {
    for (const int t : ts) {
      const auto& baseline = cells[idx++];
      const auto& off = cells[idx++];
      const auto& on = cells[idx++];
      const double imp_off =
          metrics::finalize_comparison(off, baseline).resilience_improvement_pct;
      const double imp_on =
          metrics::finalize_comparison(on, baseline).resilience_improvement_pct;
      table.add_row({std::to_string(f), std::to_string(t), metrics::fmt(imp_off),
                     metrics::fmt(imp_on),
                     metrics::fmt(100.0 * off.pollution_trusted.mean()),
                     metrics::fmt(100.0 * on.pollution_trusted.mean())});
      const auto json_row = [&](const char* overlay, double improvement,
                                const metrics::RepeatedResult& cell) {
        report.add_row(metrics::JsonObject()
                           .field("f_pct", f)
                           .field("t_pct", t)
                           .field("overlay", overlay)
                           .field("improvement_pct", improvement)
                           .field("trusted_pollution", cell.pollution_trusted.mean()));
      };
      json_row("off", imp_off, off);
      json_row("on", imp_on, on);
    }
  }
  std::cout << table.render() << '\n';
  bench::report_timing(report, timer, knobs, specs.size() * knobs.reps);
  report.write();
  return 0;
}
