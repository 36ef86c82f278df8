// The exec acceptance bar: every Runner entry point produces BIT-IDENTICAL
// results — including the serialized results::to_json documents — whether
// it runs on 1 thread or on a wide pool.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "support/scenario.hpp"

namespace raptee::scenario {
namespace {

ScenarioSpec fixture_spec() {
  return test::Scenario()
      .adversary(0.2)
      .trusted_share(0.3)
      .eviction_pct(40)
      .rounds(24)
      .seed(20220308)
      .label("parallel-determinism");
}

TEST(ParallelDeterminism, RunRepeatedJsonBytesMatchSequential) {
  const ScenarioSpec spec = fixture_spec();
  const auto sequential = Runner(1).run_repeated(spec, 4);
  const auto parallel = Runner(4).run_repeated(spec, 4);
  EXPECT_EQ(results::repeated_document(spec, 4, sequential),
            results::repeated_document(spec, 4, parallel));
}

TEST(ParallelDeterminism, RunGridJsonBytesMatchSequential) {
  Grid grid(fixture_spec().rounds(12));
  grid.axis_adversary_pct({10, 30}).axis_trusted_pct({0, 20});
  const GridResult sequential = Runner(1).run_grid(grid, 2);
  const GridResult parallel = Runner(8).run_grid(grid, 2);
  const std::string expected = results::grid_document(sequential, 2);
  EXPECT_EQ(expected, results::grid_document(parallel, 2));
  EXPECT_TRUE(metrics::json_valid(expected));
}

TEST(ParallelDeterminism, RunBatchPreservesOrderAcrossPoolWidths) {
  std::vector<ScenarioSpec> specs;
  for (const int f : {0, 10, 20, 30}) {
    specs.push_back(fixture_spec().adversary_pct(f).rounds(12));
  }
  const auto sequential = Runner(1).run_batch(specs, 2);
  const auto parallel = Runner(3).run_batch(specs, 2);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results::to_json(sequential[i]), results::to_json(parallel[i]))
        << "batch cell " << i;
  }
}

TEST(ParallelDeterminism, RunComparisonJsonBytesMatchSequential) {
  const ScenarioSpec spec = fixture_spec().rounds(16);
  const auto sequential = Runner(1).run_comparison(spec, 2);
  const auto parallel = Runner(4).run_comparison(spec, 2);
  EXPECT_EQ(results::comparison_document(spec, 2, sequential),
            results::comparison_document(spec, 2, parallel));
}

TEST(ParallelDeterminism, FusedComparisonMatchesTheMetricsLayer) {
  // Runner fuses both comparison halves into one batch; finalizing two
  // standalone run_repeated calls — the spec and its comparison_baseline —
  // must agree byte for byte.
  const ScenarioSpec spec = fixture_spec().rounds(16);
  const auto fused = Runner(4).run_comparison(spec, 2);
  const auto layered = metrics::finalize_comparison(
      Runner(2).run_repeated(spec, 2),
      Runner(2).run_repeated(ScenarioSpec(metrics::comparison_baseline(spec.config())), 2));
  EXPECT_EQ(results::to_json(fused), results::to_json(layered));
}

TEST(ParallelDeterminism, BatchCellAgreesWithStandaloneRepetition) {
  // The repetition_seed contract: cell (spec, rep) of a batch is the same
  // run as repetition rep of a standalone run_repeated.
  const ScenarioSpec spec = fixture_spec().rounds(12);
  const auto repeated = Runner(4).run_repeated(spec, 3);
  const auto batch = Runner(4).run_batch({spec}, 3);
  EXPECT_EQ(results::to_json(repeated), results::to_json(batch.front()));
}

TEST(ParallelDeterminism, ShardedEngineInsideParallelGridStaysDeterministic) {
  // Nested parallelism: grid fan-out on the Runner pool, sharded push
  // phase inside every run. Still bit-identical to the all-sequential
  // execution of the same sharded spec.
  Grid grid(fixture_spec().rounds(12).threads(2));
  grid.axis_adversary_pct({10, 30});
  const std::string wide = results::grid_document(Runner(4).run_grid(grid, 2), 2);
  const std::string narrow = results::grid_document(Runner(1).run_grid(grid, 2), 2);
  EXPECT_EQ(wide, narrow);
}

}  // namespace
}  // namespace raptee::scenario
