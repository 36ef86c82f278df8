// Figure 3 — Brahms under the balanced Byzantine attack: resilience
// (percentage of Byzantine IDs in correct views), time to discovery and
// time to view stability as functions of the Byzantine fraction f.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("fig3_brahms_baseline", knobs);
  std::cout << "Brahms resilience, time to discovery and to stability under "
               "Byzantine faults (paper Fig. 3)\n\n";

  const auto fs = knobs.f_grid();
  scenario::Grid grid(knobs.base_spec());
  grid.axis_adversary_pct(fs);
  const bench::WallTimer timer;
  const auto sweep = scenario::Runner(knobs.threads).run_grid(grid, knobs.reps);

  metrics::TablePrinter table(
      {"f%", "byz-in-views %", "discovery rounds", "stability rounds"});
  scenario::results::BenchReport report("fig3_brahms_baseline", knobs);

  for (std::size_t fi = 0; fi < fs.size(); ++fi) {
    const int f = fs[fi];
    const auto& result = sweep.at({fi});

    const std::string discovery =
        result.discovery_reached ? metrics::fmt(result.discovery.mean(), 0) : "-";
    const std::string stability =
        result.stability_reached ? metrics::fmt(result.stability.mean(), 0) : "-";
    table.add_row({std::to_string(f), metrics::fmt(100.0 * result.pollution.mean()),
                   discovery, stability});
    report.add_row(metrics::JsonObject()
                       .field("f_pct", f)
                       .field("pollution", result.pollution.mean())
                       .field("pollution_sd", result.pollution.sample_stddev())
                       .field_raw("result", scenario::results::to_json(result)));
  }

  std::cout << table.render() << '\n';
  bench::report_timing(report, timer, knobs, grid.size() * knobs.reps);
  report.write();
  return 0;
}
