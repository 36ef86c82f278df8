// Figure 12 — trusted-node identification attack under the adaptive
// eviction rate, one curve per Byzantine fraction.
#include <iostream>

#include "ident_common.hpp"

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("fig12_ident_adaptive", knobs);
  std::cout << "Precision, recall and F1-score of trusted-node identification "
               "under adaptive eviction rate (paper Fig. 12)\n\n";

  const auto ts = knobs.t_grid();
  const std::vector<int> fs{10, 20, 30};

  scenario::Grid grid(
      knobs.base_spec().eviction(core::EvictionSpec::adaptive()).identification());
  grid.axis_adversary_pct(fs).axis_trusted_pct(ts);
  const bench::WallTimer timer;
  const auto sweep = scenario::Runner(knobs.threads).run_grid(grid, knobs.reps);

  std::vector<std::string> headers{"f%\\t%"};
  for (const int t : ts) headers.push_back("t=" + std::to_string(t) + "%");
  metrics::TablePrinter recall(headers), precision(headers), f1(headers);
  scenario::results::BenchReport report("fig12_ident_adaptive", knobs);

  for (std::size_t fi = 0; fi < fs.size(); ++fi) {
    std::vector<std::string> row_r{"f=" + std::to_string(fs[fi])};
    std::vector<std::string> row_p{"f=" + std::to_string(fs[fi])};
    std::vector<std::string> row_f{"f=" + std::to_string(fs[fi])};
    for (std::size_t ti = 0; ti < ts.size(); ++ti) {
      const auto& cell = sweep.at({fi, ti});
      row_r.push_back(metrics::fmt(cell.ident_best_recall.mean(), 2));
      row_p.push_back(metrics::fmt(cell.ident_best_precision.mean(), 2));
      row_f.push_back(metrics::fmt(cell.ident_best_f1.mean(), 2));
      report.add_row(metrics::JsonObject()
                         .field("f_pct", fs[fi])
                         .field("t_pct", ts[ti])
                         .field("recall", cell.ident_best_recall.mean())
                         .field("precision", cell.ident_best_precision.mean())
                         .field("f1", cell.ident_best_f1.mean())
                         .field_raw("result", scenario::results::to_json(cell)));
    }
    recall.add_row(row_r);
    precision.add_row(row_p);
    f1.add_row(row_f);
  }

  std::cout << "(a) Identification recall\n" << recall.render() << '\n';
  std::cout << "(b) Identification precision\n" << precision.render() << '\n';
  std::cout << "(c) Identification F1-score\n" << f1.render() << '\n';
  bench::report_timing(report, timer, knobs, grid.size() * knobs.reps);
  report.write();
  return 0;
}
