// Dissemination example — the motivating application class of the paper's
// introduction: epidemic broadcast on top of the peer-sampling service,
// now measured in real (virtual) time on the event scheduler.
//
// For each latency distribution (lan / wan / tail, see evt::LatencySpec),
// the overlays are built in event-driven mode: every push and pull leg
// travels with sampled per-link latency against a fixed round deadline, so
// membership discovery completes at an actual virtual timestamp — the
// dissemination_time_ms the round-driven simulator could only count in
// abstract rounds. A converged overlay's views then form a directed graph;
// a source gossips a message epidemically (each infected correct node
// forwards to `fanout` random view entries per round; Byzantine nodes
// swallow messages), and the broadcast time is denominated in the same
// round interval. The cleaner the views, the fewer forwards are wasted on
// the adversary — so RAPTEE-built views should reach full coverage faster
// than Brahms-built views under the same attack, at every latency model.
//
//   ./build/examples/dissemination [N] [f%] [t%] [fanout]
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "metrics/report.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace {

using namespace raptee;

/// Virtual round deadline shared by overlay construction and the epidemic
/// phase, so both timelines are denominated in the same unit.
constexpr std::uint64_t kIntervalMs = 1000;

/// Adjacency snapshot (views of correct nodes), the kind map, and the
/// event-mode outcome of the run that built it.
struct Overlay {
  std::vector<std::vector<NodeId>> views;
  std::vector<NodeKind> kinds;
  metrics::EvtOutcome evt;
};

/// Captures the converged overlay + event telemetry when the run ends.
class OverlaySnapshotter final : public scenario::IScenarioObserver {
 public:
  void on_round(const scenario::RoundSnapshot&, const sim::Engine&) override {}

  void on_run_end(const metrics::ExperimentResult& result,
                  const sim::Engine& engine) override {
    overlay.evt = result.evt;
    overlay.kinds = engine.kinds();
    overlay.views.resize(engine.size());
    for (std::uint32_t i = 0; i < engine.size(); ++i) {
      if (overlay.kinds[i] != NodeKind::kByzantine) {
        const auto view = engine.view_of(NodeId{i});
        overlay.views[i].assign(view.begin(), view.end());
      }
    }
  }

  Overlay overlay;
};

Overlay build_overlay(std::size_t n, double f, double t, const std::string& latency,
                      std::uint64_t seed) {
  OverlaySnapshotter snapshotter;
  const auto spec = scenario::ScenarioSpec()
                        .population(n)
                        .adversary(f)
                        .trusted(t)
                        .view_size(24)
                        .eviction(core::EvictionSpec::adaptive())
                        .rounds(60)
                        .latency(latency)
                        .round_interval_ms(kIntervalMs)
                        .seed(seed);
  (void)scenario::Runner().run(spec, &snapshotter);
  return std::move(snapshotter.overlay);
}

/// Epidemic rounds to reach full correct coverage (capped at 50).
std::size_t spread_rounds(const Overlay& overlay, std::size_t fanout,
                          std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = overlay.views.size();
  std::vector<bool> infected(n, false);
  std::size_t correct_total = 0, correct_infected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (overlay.kinds[i] != NodeKind::kByzantine) ++correct_total;
  }
  // Source: the first correct node.
  for (std::size_t i = 0; i < n; ++i) {
    if (overlay.kinds[i] != NodeKind::kByzantine) {
      infected[i] = true;
      ++correct_infected;
      break;
    }
  }
  std::size_t rounds = 0;
  while (rounds < 50 && correct_infected < correct_total) {
    std::vector<std::size_t> newly;
    for (std::size_t i = 0; i < n; ++i) {
      if (!infected[i] || overlay.kinds[i] == NodeKind::kByzantine) continue;
      const auto& view = overlay.views[i];
      if (view.empty()) continue;
      for (std::size_t k = 0; k < fanout; ++k) {
        const NodeId target = view[static_cast<std::size_t>(rng.below(view.size()))];
        if (!infected[target.value]) newly.push_back(target.value);
      }
    }
    for (std::size_t idx : newly) {
      if (!infected[idx]) {
        infected[idx] = true;
        if (overlay.kinds[idx] != NodeKind::kByzantine) ++correct_infected;
      }
    }
    ++rounds;
  }
  return rounds;
}

std::string ms_or_dash(std::uint64_t ms) {
  return ms == 0 ? std::string("-") : std::to_string(ms);
}

[[noreturn]] void usage_exit(const char* error) {
  std::cerr << "error: " << error << "\n"
            << "usage: dissemination [N] [f%] [t%] [fanout]\n"
            << "  N       population size, 8..1000000 (default 300)\n"
            << "  f%      Byzantine percent, 0..99 (default 20)\n"
            << "  t%      trusted percent, 0..100 (default 10)\n"
            << "  fanout  forwards per infected node per round, 1..64 (default 2)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 300;
  double f = 0.20;
  double t = 0.10;
  std::size_t fanout = 2;
  try {
    if (argc > 1) {
      n = static_cast<std::size_t>(scenario::parse_u64("N", argv[1], 8, 1000000));
    }
    if (argc > 2) f = scenario::parse_double("f%", argv[2], 0.0, 99.0) / 100.0;
    if (argc > 3) t = scenario::parse_double("t%", argv[3], 0.0, 100.0) / 100.0;
    if (argc > 4) {
      fanout = static_cast<std::size_t>(scenario::parse_u64("fanout", argv[4], 1, 64));
    }
  } catch (const std::invalid_argument& error) {
    usage_exit(error.what());
  }

  std::cout << "Epidemic dissemination over event-driven overlays (N=" << n
            << ", f=" << f * 100 << "%, t=" << t * 100 << "%, fanout=" << fanout
            << ", round interval " << kIntervalMs << " ms)\n\n";

  metrics::TablePrinter table({"latency", "discovery ms (Brahms)",
                               "discovery ms (RAPTEE)", "broadcast ms (Brahms)",
                               "broadcast ms (RAPTEE)"});
  for (const char* latency : {"lan", "wan", "tail"}) {
    const Overlay brahms_overlay = build_overlay(n, f, 0.0, latency, 99);
    const Overlay raptee_overlay = build_overlay(n, f, t, latency, 99);
    const std::size_t brahms_rounds = spread_rounds(brahms_overlay, fanout, 7);
    const std::size_t raptee_rounds = spread_rounds(raptee_overlay, fanout, 7);
    table.add_row({latency, ms_or_dash(brahms_overlay.evt.dissemination_time_ms),
                   ms_or_dash(raptee_overlay.evt.dissemination_time_ms),
                   std::to_string(brahms_rounds * kIntervalMs),
                   std::to_string(raptee_rounds * kIntervalMs)});
  }
  std::cout << table.render() << '\n'
            << "discovery = virtual time until every correct node knows the full\n"
            << "membership ('-' when not reached in 60 rounds); broadcast = epidemic\n"
            << "rounds to full correct coverage, denominated in the round interval\n";
  return 0;
}
