// Shared presentation machinery for the figure/table benches.
//
// Scenario assembly lives in the scenario API (scenario/scenario.hpp):
// scenario::Knobs::from_env() sizes runs (RAPTEE_BENCH_* knobs, see
// README.md), ScenarioSpec builds cells, Runner executes them. This header
// only keeps what benches share to *present* results: aligned tables, the
// wall-clock row of the bench_out/ JSON report (every bench's one
// machine-readable output) and the Figures 5-9 eviction-sweep driver. The
// derived metrics (resilience improvement, round overheads) come from
// metrics::finalize_comparison.
#pragma once

#include <chrono>
#include <optional>
#include <string>

#include "metrics/report.hpp"
#include "scenario/scenario.hpp"

namespace raptee::bench {

/// Prints the run header (grid sizes, mode) for reproducibility.
void print_header(const char* bench_name, const scenario::Knobs& knobs);

/// Monotonic stopwatch for the per-bench wall-clock rows (BenchReport::
/// set_timing); starts at construction.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Prints the batch wall-clock + throughput line and records it on the
/// report. `runs` = total simulation runs in the batch (cells × reps).
void report_timing(scenario::results::BenchReport& report, const WallTimer& timer,
                   const scenario::Knobs& knobs, std::size_t runs);

/// "12.3" or "-" for missing optionals.
[[nodiscard]] std::string fmt_opt(const std::optional<double>& value, int precision = 1);

/// Figures 5-9 all share this sweep: for a given eviction policy, produce
/// the three panels (resilience improvement, discovery overhead, stability
/// overhead) as f x t matrices, print them and write the JSON report.
/// Baselines are computed once per f and shared across the t columns.
void run_eviction_figure(const char* fig_name, const char* title,
                         const core::EvictionSpec& eviction,
                         const scenario::Knobs& knobs);

}  // namespace raptee::bench
