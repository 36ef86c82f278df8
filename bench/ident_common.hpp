// Shared driver for the §VI-A identification-attack figures (10, 11, 12).
#pragma once

#include <iostream>

#include "bench_common.hpp"

namespace raptee::bench {

/// Figures 10/11: fixed f, one curve per eviction rate, x-axis t.
/// All (ER, t) cells run as one parallel batch via the grid API.
inline void run_ident_fixed_f_figure(const char* fig_name, int f_pct,
                                     const scenario::Knobs& knobs) {
  print_header(fig_name, knobs);
  std::cout << "Precision, recall and F1-score of trusted-node identification "
               "under "
            << f_pct << "% of Byzantine nodes (paper "
            << (f_pct == 10 ? "Fig. 10" : "Fig. 11") << ")\n\n";

  const auto ts = knobs.t_grid();
  const auto ers = knobs.er_grid();

  scenario::Grid grid(knobs.base_spec().adversary_pct(f_pct).identification());
  grid.axis_eviction_pct(ers).axis_trusted_pct(ts);
  const WallTimer timer;
  const auto sweep = scenario::Runner(knobs.threads).run_grid(grid, knobs.reps);

  std::vector<std::string> headers{"ER%\\t%"};
  for (const int t : ts) headers.push_back("t=" + std::to_string(t) + "%");
  metrics::TablePrinter recall(headers), precision(headers), f1(headers);
  scenario::results::BenchReport report(fig_name, knobs);

  for (std::size_t ei = 0; ei < ers.size(); ++ei) {
    std::vector<std::string> row_r{"ER-" + std::to_string(ers[ei])};
    std::vector<std::string> row_p{"ER-" + std::to_string(ers[ei])};
    std::vector<std::string> row_f{"ER-" + std::to_string(ers[ei])};
    for (std::size_t ti = 0; ti < ts.size(); ++ti) {
      const auto& cell = sweep.at({ei, ti});
      row_r.push_back(metrics::fmt(cell.ident_best_recall.mean(), 2));
      row_p.push_back(metrics::fmt(cell.ident_best_precision.mean(), 2));
      row_f.push_back(metrics::fmt(cell.ident_best_f1.mean(), 2));
      report.add_row(metrics::JsonObject()
                         .field("f_pct", f_pct)
                         .field("er_pct", ers[ei])
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

  std::cout << "(a) Recall\n" << recall.render() << '\n';
  std::cout << "(b) Precision\n" << precision.render() << '\n';
  std::cout << "(c) F1-score\n" << f1.render() << '\n';
  report_timing(report, timer, knobs, grid.size() * knobs.reps);
  report.write();
}

}  // namespace raptee::bench
