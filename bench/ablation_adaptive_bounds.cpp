// Ablation D2 — the adaptive eviction-rate clamp. The paper fixes the
// bounds at [20 %, 80 %]; this bench sweeps alternatives to show how the
// clamp trades resilience against detectability and overhead.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("ablation_adaptive_bounds", knobs);
  std::cout << "D2 ablation: adaptive eviction clamp [lower, upper] at t=10%\n\n";

  struct Bounds {
    double lower, upper;
  };
  const std::vector<Bounds> variants{{0.2, 0.8},   // paper
                                     {0.0, 1.0},   // unclamped
                                     {0.4, 0.6},   // narrow
                                     {0.5, 0.5}};  // fixed-50 via clamp
  const std::vector<int> fs{10, 20, 30};

  // Per f: one baseline, then one cell per bounds variant.
  std::vector<scenario::ScenarioSpec> specs;
  for (const int f : fs) {
    scenario::ScenarioSpec baseline = knobs.base_spec().adversary_pct(f);
    specs.push_back(baseline);
    for (const Bounds& b : variants) {
      scenario::ScenarioSpec raptee = baseline;
      raptee.trusted(0.10)
          .eviction(core::EvictionSpec::adaptive(b.lower, b.upper))
          .identification();
      specs.push_back(raptee);
    }
  }
  const bench::WallTimer timer;
  const auto cells = scenario::Runner(knobs.threads).run_batch(specs, knobs.reps);

  metrics::TablePrinter table(
      {"bounds", "f%", "improvement %", "discovery ovh %", "ident F1", "mean ER %"});
  scenario::results::BenchReport report("ablation_adaptive_bounds", knobs);

  const std::size_t stride = 1 + variants.size();
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    const Bounds& b = variants[vi];
    std::string bounds = "[";
    bounds += metrics::fmt(100 * b.lower, 0);
    bounds += ',';
    bounds += metrics::fmt(100 * b.upper, 0);
    bounds += ']';
    for (std::size_t fi = 0; fi < fs.size(); ++fi) {
      const auto& baseline = cells[fi * stride];
      const auto& raptee = cells[fi * stride + 1 + vi];
      const auto cmp = metrics::finalize_comparison(raptee, baseline);
      const double imp = cmp.resilience_improvement_pct;
      const auto disc = cmp.discovery_overhead_pct;
      table.add_row({bounds, std::to_string(fs[fi]), metrics::fmt(imp),
                     bench::fmt_opt(disc),
                     metrics::fmt(raptee.ident_best_f1.mean(), 2),
                     metrics::fmt(100.0 * raptee.eviction_rate.mean())});
      report.add_row(metrics::JsonObject()
                         .field("lower", b.lower)
                         .field("upper", b.upper)
                         .field("f_pct", fs[fi])
                         .field("improvement_pct", imp)
                         .field("discovery_overhead_pct", disc)
                         .field("ident_f1", raptee.ident_best_f1.mean())
                         .field("mean_eviction_rate", raptee.eviction_rate.mean()));
    }
  }
  std::cout << table.render() << '\n';
  bench::report_timing(report, timer, knobs, specs.size() * knobs.reps);
  report.write();
  return 0;
}
