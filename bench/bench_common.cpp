#include "bench_common.hpp"

#include <iostream>
#include <vector>

#include "exec/thread_pool.hpp"

namespace raptee::bench {

void print_header(const char* bench_name, const scenario::Knobs& knobs) {
  std::cout << "==== " << bench_name << " ====\n"
            << "mode=" << (knobs.full ? "FULL (paper-scale)" : "quick")
            << "  N=" << knobs.n << "  view=" << knobs.l1 << "  rounds=" << knobs.rounds
            << "  reps=" << knobs.reps << "  threads=";
  if (knobs.threads == 0) {
    std::cout << "auto(" << exec::hardware_threads() << ")";
  } else {
    std::cout << knobs.threads;
  }
  if (knobs.attack != "balanced") std::cout << "  attack=" << knobs.attack;
  std::cout << "\n\n";
}

void report_timing(scenario::results::BenchReport& report, const WallTimer& timer,
                   const scenario::Knobs& knobs, std::size_t runs) {
  const double seconds = timer.seconds();
  const std::size_t threads = exec::resolve_threads(knobs.threads, runs);
  std::cout << "wall-clock " << metrics::fmt(seconds, 2) << " s for " << runs
            << " runs on " << threads << " thread(s)";
  if (seconds > 0.0) {
    std::cout << " (" << metrics::fmt(static_cast<double>(runs) / seconds, 2)
              << " runs/s)";
  }
  std::cout << "\n\n";
  report.set_timing(seconds, threads);
}

std::string fmt_opt(const std::optional<double>& value, int precision) {
  return value ? metrics::fmt(*value, precision) : std::string("-");
}

void run_eviction_figure(const char* fig_name, const char* title,
                         const core::EvictionSpec& eviction,
                         const scenario::Knobs& knobs) {
  print_header(fig_name, knobs);
  std::cout << title << "\n\n";

  const auto fs = knobs.f_grid();
  const auto ts = knobs.t_grid();

  // Batch layout: per f, one Brahms baseline followed by one RAPTEE cell
  // per t — the baseline is shared across the whole t row.
  std::vector<scenario::ScenarioSpec> specs;
  for (const int f : fs) {
    scenario::ScenarioSpec baseline = knobs.base_spec().adversary_pct(f);
    specs.push_back(baseline);
    for (const int t : ts) {
      scenario::ScenarioSpec raptee = baseline;
      raptee.trusted_pct(t).eviction(eviction);
      specs.push_back(raptee);
    }
  }
  const scenario::Runner runner(knobs.threads);
  const WallTimer timer;
  const auto cells = runner.run_batch(specs, knobs.reps);

  std::vector<std::string> headers{"f%\\t%"};
  for (const int t : ts) headers.push_back("t=" + std::to_string(t) + "%");
  metrics::TablePrinter improvement(headers), discovery(headers), stability(headers);
  scenario::results::BenchReport report(fig_name, knobs);

  const std::size_t stride = 1 + ts.size();
  for (std::size_t fi = 0; fi < fs.size(); ++fi) {
    const int f = fs[fi];
    const auto& baseline = cells[fi * stride];
    std::vector<std::string> row_imp{std::to_string(f)};
    std::vector<std::string> row_disc{std::to_string(f)};
    std::vector<std::string> row_stab{std::to_string(f)};
    for (std::size_t ti = 0; ti < ts.size(); ++ti) {
      const auto& raptee = cells[fi * stride + 1 + ti];
      const auto cmp = metrics::finalize_comparison(raptee, baseline);
      const double imp = cmp.resilience_improvement_pct;
      const auto disc = cmp.discovery_overhead_pct;
      const auto stab = cmp.stability_overhead_pct;
      row_imp.push_back(metrics::fmt(imp));
      row_disc.push_back(fmt_opt(disc));
      row_stab.push_back(fmt_opt(stab));

      const double imp_honest = cmp.resilience_improvement_honest_pct;
      report.add_row(metrics::JsonObject()
                         .field("f_pct", f)
                         .field("t_pct", ts[ti])
                         .field("eviction", eviction.describe())
                         .field("baseline_pollution", baseline.pollution.mean())
                         .field("raptee_pollution", raptee.pollution.mean())
                         .field("resilience_improvement_pct", imp)
                         .field("resilience_improvement_honest_pct", imp_honest)
                         .field("discovery_overhead_pct", disc)
                         .field("stability_overhead_pct", stab)
                         .field("mean_eviction_rate", raptee.eviction_rate.mean())
                         .field_raw("raptee", scenario::results::to_json(raptee))
                         .field_raw("baseline", scenario::results::to_json(baseline)));
    }
    improvement.add_row(row_imp);
    discovery.add_row(row_disc);
    stability.add_row(row_stab);
  }

  std::cout << "(a) Byzantine resilience gain (%)\n" << improvement.render() << '\n';
  std::cout << "(b) Round overhead for system discovery (%)\n" << discovery.render()
            << '\n';
  std::cout << "(c) Round overhead to reach view stability (%)\n" << stability.render()
            << '\n';
  report_timing(report, timer, knobs, specs.size() * knobs.reps);
  report.write();
}

}  // namespace raptee::bench
