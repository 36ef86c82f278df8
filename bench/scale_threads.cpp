// Thread-scaling benchmark for the exec subsystem: runs the same
// quick-mode (f × t) grid at increasing Runner widths, verifies every
// parallel run is BIT-IDENTICAL to the 1-thread run (the exec determinism
// contract, checked on the serialized grid document), and records
// wall-clock + speedup per width in bench_out/scale_threads.json.
//
// Thread widths: 1, 2, 4, and (when larger) hardware concurrency.
// RAPTEE_BENCH_THREADS, when set, replaces the >1 widths with that single
// value. With RAPTEE_BENCH_REQUIRE_SPEEDUP=1 the bench exits non-zero
// unless the 4-thread run (or the RAPTEE_BENCH_THREADS width, when
// overridden) achieves >= 2x over 1 thread — meant for multi-core hosts
// (skipped, with a note, when the machine has fewer hardware threads than
// the gated width or fewer than 4 cores).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "exec/thread_pool.hpp"

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("scale_threads", knobs);
  std::cout << "exec::ThreadPool scaling on the quick (f x t) grid; parallel "
               "output is asserted bit-identical to 1 thread\n\n";

  scenario::Grid grid(knobs.base_spec());
  grid.axis_adversary_pct(knobs.f_grid()).axis_trusted_pct(knobs.t_grid());
  const std::size_t runs = grid.size() * knobs.reps;

  std::vector<std::size_t> widths{1};
  if (knobs.threads != 0) {
    if (knobs.threads > 1) widths.push_back(knobs.threads);
  } else {
    widths.push_back(2);
    widths.push_back(4);
    const std::size_t hw = exec::hardware_threads();
    if (hw > 4) widths.push_back(hw);
  }

  metrics::TablePrinter table({"threads", "wall s", "runs/s", "speedup", "identical"});
  scenario::results::BenchReport report("scale_threads", knobs);

  std::string serial_document;
  double serial_seconds = 0.0;
  // The speedup gate judges the documented 4-thread run; when
  // RAPTEE_BENCH_THREADS overrides the sweep it judges that width instead
  // (provided the hardware actually has that many threads).
  std::size_t gate_width = 0;
  double gate_speedup = 0.0;
  bool all_identical = true;

  for (const std::size_t width : widths) {
    const bench::WallTimer timer;
    const auto sweep = scenario::Runner(width).run_grid(grid, knobs.reps);
    const double seconds = timer.seconds();
    const std::string document = scenario::results::grid_document(sweep, knobs.reps);

    bool identical = true;
    double speedup = 1.0;
    if (width == 1) {
      serial_document = document;
      serial_seconds = seconds;
    } else {
      identical = document == serial_document;
      all_identical = all_identical && identical;
      if (seconds > 0.0) speedup = serial_seconds / seconds;
      const bool is_gate_width = knobs.threads == 0 ? width == 4 : width == knobs.threads;
      if (is_gate_width && width <= exec::hardware_threads()) {
        gate_width = width;
        gate_speedup = speedup;
      }
    }

    table.add_row({std::to_string(width), metrics::fmt(seconds, 2),
                   metrics::fmt(seconds > 0.0 ? runs / seconds : 0.0, 2),
                   metrics::fmt(speedup, 2), identical ? "yes" : "NO"});
    report.add_row(metrics::JsonObject()
                       .field("threads", width)
                       .field("wall_seconds", seconds)
                       .field("runs", runs)
                       .field("runs_per_second", seconds > 0.0 ? runs / seconds : 0.0)
                       .field("speedup_vs_serial", speedup)
                       .field("identical_to_serial", identical));
  }

  std::cout << table.render() << '\n';
  std::cout << "hardware threads: " << exec::hardware_threads() << "\n\n";
  report.set_timing(serial_seconds, 1);
  report.write();

  if (!all_identical) {
    std::cerr << "FAIL: parallel grid output diverged from the 1-thread run\n";
    return 1;
  }
  if (const char* require = std::getenv("RAPTEE_BENCH_REQUIRE_SPEEDUP");
      require && std::atoi(require) != 0) {
    if (exec::hardware_threads() < 4 || gate_width == 0) {
      std::cout << "speedup gate skipped: needs >= 4 hardware threads and a "
                   "parallel width within them\n";
    } else if (gate_speedup < 2.0) {
      std::cerr << "FAIL: " << gate_width << "-thread speedup "
                << metrics::fmt(gate_speedup, 2) << "x < 2x\n";
      return 1;
    } else {
      std::cout << "speedup gate passed: " << metrics::fmt(gate_speedup, 2)
                << "x at " << gate_width << " threads\n";
    }
  }
  return 0;
}
