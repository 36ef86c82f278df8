// Figure 13 — view-poisoned trusted-node injection: resilience improvement
// vs f, one panel per honest-trusted share t, one curve per injected share.
#include <iostream>
#include <string>
#include <utility>

#include "bench_common.hpp"

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("fig13_injection", knobs);
  std::cout << "Corrupted trusted node injection (paper Fig. 13): resilience "
               "improvement with +x% view-poisoned trusted nodes\n\n";

  const auto fs = knobs.f_grid();
  const std::vector<int> t_panels = knobs.full ? std::vector<int>{1, 10, 30}
                                               : std::vector<int>{1, 30};
  const std::vector<int> injections =
      knobs.full ? std::vector<int>{0, 1, 5, 10, 20, 30} : std::vector<int>{0, 5, 30};

  // Batch layout per f: one Brahms baseline, then (t, inj) cells.
  std::vector<scenario::ScenarioSpec> specs;
  for (const int f : fs) {
    scenario::ScenarioSpec baseline = knobs.base_spec().adversary_pct(f);
    specs.push_back(baseline);
    for (const int t : t_panels) {
      for (const int inj : injections) {
        scenario::ScenarioSpec raptee = baseline;
        raptee.trusted_pct(t)
            .poisoned_extra(inj / 100.0)
            .eviction(core::EvictionSpec::adaptive());
        specs.push_back(raptee);
      }
    }
  }
  const bench::WallTimer timer;
  const auto cells = scenario::Runner(knobs.threads).run_batch(specs, knobs.reps);

  scenario::results::BenchReport report("fig13_injection", knobs);
  const std::size_t stride = 1 + t_panels.size() * injections.size();

  for (std::size_t pi = 0; pi < t_panels.size(); ++pi) {
    const int t = t_panels[pi];
    std::cout << "--- panel: attack on a system with t=" << t << "% ---\n";
    std::vector<std::string> headers{"f%"};
    for (const int inj : injections) {
      std::string header = inj == 0 ? "t=" : "+";
      header += std::to_string(inj == 0 ? t : inj);
      header += '%';
      headers.push_back(std::move(header));
    }
    metrics::TablePrinter table(headers);

    for (std::size_t fi = 0; fi < fs.size(); ++fi) {
      const auto& baseline = cells[fi * stride];
      std::vector<std::string> row{std::to_string(fs[fi])};
      for (std::size_t ii = 0; ii < injections.size(); ++ii) {
        const auto& raptee =
            cells[fi * stride + 1 + pi * injections.size() + ii];
        const double imp =
            metrics::finalize_comparison(raptee, baseline).resilience_improvement_pct;
        row.push_back(metrics::fmt(imp));
        report.add_row(metrics::JsonObject()
                           .field("t_pct", t)
                           .field("injected_pct", injections[ii])
                           .field("f_pct", fs[fi])
                           .field("baseline_pollution", baseline.pollution.mean())
                           .field("raptee_pollution", raptee.pollution.mean())
                           .field("resilience_improvement_pct", imp));
      }
      table.add_row(row);
    }
    std::cout << table.render() << '\n';
  }
  bench::report_timing(report, timer, knobs, specs.size() * knobs.reps);
  report.write();
  return 0;
}
