// Churn example — dynamic membership, the bread and butter of a deployed
// peer-sampling service: a fifth of the network crashes at round 25 and
// rejoins 30 rounds later. A streaming IScenarioObserver watches the
// service flush dead entries from views (Brahms' sampler validation + view
// renewal) and re-discover the rejoined nodes — no custom simulation loop
// required.
//
//   ./build/examples/churn_recovery [N] [churn%]
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "brahms/node.hpp"
#include "metrics/report.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace {

using namespace raptee;

/// Scans every few rounds: how many view / sample-list entries of alive
/// nodes point at dead peers?
class DeadEntryScanner final : public scenario::IScenarioObserver {
 public:
  explicit DeadEntryScanner(metrics::TablePrinter& table) : table_(table) {}

  void on_round(const scenario::RoundSnapshot& snapshot,
                const sim::Engine& engine) override {
    const Round r = snapshot.round;
    if (r % 5 == 4 || r == 25 || r == 26 || r == 55 || r == 56) scan(r, engine);
  }

 private:
  void scan(Round round, const sim::Engine& engine) {
    std::size_t view_total = 0, view_dead = 0, sample_total = 0, sample_dead = 0;
    std::size_t alive = 0;
    for (std::uint32_t i = 0; i < engine.size(); ++i) {
      const NodeId id{i};
      if (!engine.is_alive(id)) continue;
      ++alive;
      for (NodeId peer : engine.view_of(id)) {
        ++view_total;
        if (!engine.is_alive(peer)) ++view_dead;
      }
      if (const auto* node = dynamic_cast<const brahms::BrahmsNode*>(&engine.node(id))) {
        for (NodeId peer : node->sample_list()) {
          ++sample_total;
          if (!engine.is_alive(peer)) ++sample_dead;
        }
      }
    }
    table_.add_row(
        {std::to_string(round), std::to_string(alive),
         metrics::fmt(view_total ? 100.0 * view_dead / view_total : 0.0),
         metrics::fmt(sample_total ? 100.0 * sample_dead / sample_total : 0.0)});
  }

  metrics::TablePrinter& table_;
};

[[noreturn]] void usage_exit(const char* error) {
  std::cerr << "error: " << error << "\n"
            << "usage: churn_recovery [N] [churn%]\n"
            << "  N       population size, 8..1000000 (default 250)\n"
            << "  churn%  crashing fraction at round 25, 0..100 (default 20)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 250;
  double churn = 0.20;
  try {
    if (argc > 1) {
      n = static_cast<std::size_t>(scenario::parse_u64("N", argv[1], 8, 1000000));
    }
    if (argc > 2) churn = scenario::parse_double("churn%", argv[2], 0.0, 100.0) / 100.0;
  } catch (const std::invalid_argument& error) {
    usage_exit(error.what());
  }

  std::cout << "Churn recovery: " << churn * 100 << "% of " << n
            << " nodes crash at round 25 and rejoin at round 55\n\n";

  // One crash burst: in [25, 26) a `churn` fraction of the population
  // leaves; everyone rejoins after a 30-round downtime.
  metrics::ChurnSpec burst;
  burst.enabled = true;
  burst.from = 25;
  burst.until = 26;
  burst.rate_per_round = churn;
  burst.downtime = 30;
  burst.rejoin = true;

  const auto spec = scenario::ScenarioSpec()
                        .population(n)
                        .adversary(0.0)
                        .view_size(24)
                        .rounds(90)
                        .churn(burst)
                        .seed(5);

  metrics::TablePrinter table({"round", "alive", "dead entries in live views %",
                               "dead entries in sample lists %"});
  DeadEntryScanner scanner(table);
  const auto result = scenario::Runner().run(spec, &scanner);

  std::cout << table.render() << '\n'
            << "Dead view entries spike at the crash, then the history sample\n"
               "and sampler validation wash them out; rejoining nodes are\n"
               "re-discovered within a handful of rounds "
               "(min knowledge at the end: "
            << metrics::fmt(100.0 * result.min_knowledge_series.back()) << "%).\n";
  return 0;
}
