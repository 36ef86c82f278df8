// Sharded round phases (EngineConfig::threads): width 1 is a pool of one
// running the same phases inline, so results must be a deterministic
// function of the seed alone — the worker count must never change a byte,
// lossy runs included (push loss always draws per-node split streams). The
// scenario-level matrix below asserts that bit-identity across the churn /
// attack / eviction / tamper axes, down to every metric stream and counter.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "fake_node.hpp"
#include "metrics/experiment.hpp"
#include "support/scenario.hpp"

namespace raptee::sim {
namespace {

using testing::FakeNode;

constexpr std::size_t kNodes = 24;
constexpr Round kRounds = 6;

struct ParallelEngineFixture : public ::testing::Test {
  Engine make_engine(EngineConfig config) {
    Engine engine(config);
    fakes.clear();
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<FakeNode>(NodeId{static_cast<std::uint32_t>(i)});
      // A skewed fan-out so shards carry unequal work.
      for (std::size_t k = 0; k <= i % 4; ++k) {
        node->push_targets_.push_back(
            NodeId{static_cast<std::uint32_t>((i + k + 1) % kNodes)});
      }
      fakes.push_back(node.get());
      engine.add_node(std::move(node), NodeKind::kHonest);
    }
    return engine;
  }

  /// Runs kRounds and returns every node's received-push log (the full
  /// observable outcome of the push phase, order included).
  std::vector<std::vector<NodeId>> run_and_collect(EngineConfig config) {
    Engine engine = make_engine(config);
    for (Round r = 0; r < kRounds; ++r) engine.step();
    last_counters = engine.counters();
    std::vector<std::vector<NodeId>> logs;
    logs.reserve(fakes.size());
    for (auto* f : fakes) logs.push_back(f->received_pushes);
    return logs;
  }

  std::vector<FakeNode*> fakes;
  Engine::Counters last_counters{};
};

TEST_F(ParallelEngineFixture, ShardedResultIsIndependentOfWorkerCount) {
  EngineConfig config;
  config.seed = 21;
  config.message_loss = 0.3;
  config.threads = 1;
  const auto one = run_and_collect(config);
  const Engine::Counters c1 = last_counters;
  config.threads = 2;
  const auto two = run_and_collect(config);
  const Engine::Counters c2 = last_counters;
  config.threads = 5;
  const auto five = run_and_collect(config);
  const Engine::Counters c5 = last_counters;
  config.threads = 0;  // auto = hardware concurrency
  const auto autos = run_and_collect(config);

  EXPECT_EQ(two, one);
  EXPECT_EQ(two, five);
  EXPECT_EQ(two, autos);
  EXPECT_EQ(c2.pushes_sent, c1.pushes_sent);
  EXPECT_EQ(c2.pushes_delivered, c1.pushes_delivered);
  EXPECT_EQ(c2.legs_dropped, c1.legs_dropped);
  EXPECT_EQ(c2.pushes_sent, c5.pushes_sent);
  EXPECT_EQ(c2.pushes_delivered, c5.pushes_delivered);
  EXPECT_EQ(c2.legs_dropped, c5.legs_dropped);
}

TEST_F(ParallelEngineFixture, ShardedWithoutLossMatchesWidthOneExactly) {
  EngineConfig config;
  config.seed = 22;
  config.message_loss = 0.0;
  config.threads = 1;
  const auto one = run_and_collect(config);
  config.threads = 4;
  const auto sharded = run_and_collect(config);
  EXPECT_EQ(one, sharded);
}

TEST_F(ParallelEngineFixture, ShardedRunsAreReproducible) {
  EngineConfig config;
  config.seed = 23;
  config.message_loss = 0.4;
  config.threads = 3;
  const auto first = run_and_collect(config);
  const auto second = run_and_collect(config);
  EXPECT_EQ(first, second);
}

// --- full protocol stack, through the scenario front door ---

TEST(ParallelEngineScenario, FullRunIsWorkerCountIndependent) {
  const auto spec = test::Scenario()
                        .adversary(0.2)
                        .trusted_share(0.3)
                        .eviction_pct(40)
                        .message_loss(0.2)
                        .rounds(24)
                        .seed(24);
  const auto two = scenario::ScenarioSpec(spec).threads(2).run();
  const auto six = scenario::ScenarioSpec(spec).threads(6).run();
  EXPECT_TRUE(test::same_metric_streams(two, six));
  EXPECT_EQ(two.swaps_completed, six.swaps_completed);
  EXPECT_EQ(two.pulls_completed, six.pulls_completed);
}

TEST(ParallelEngineScenario, ShardedLosslessRunMatchesWidthOne) {
  const auto spec = test::Scenario()
                        .adversary(0.2)
                        .trusted_share(0.3)
                        .rounds(24)
                        .seed(25);
  const auto one = scenario::ScenarioSpec(spec).threads(1).run();
  const auto sharded = scenario::ScenarioSpec(spec).threads(4).run();
  EXPECT_TRUE(test::same_metric_streams(one, sharded));
}

// Width matrix {1, 2, 4, hw} across the scenario axes the sharded phases
// touch: churn (rejoin bootstraps), a non-default attack strategy
// (Coordinator-driven Byzantine phases), fixed eviction (end_round), and
// on-path tampering (serial exchange legs under the byte round-trip).
// Every width, 1 included, must produce bit-identical metric streams.
TEST(ParallelEngineScenario, LosslessWidthMatrixIsBitIdenticalAcrossAxes) {
  struct Cell {
    const char* name;
    scenario::ScenarioSpec spec;
  };
  const Cell cells[] = {
      {"churn", test::Scenario().adversary(0.2).trusted_share(0.3).churn(true).rounds(
                    16).seed(31)},
      {"attack", test::Scenario()
                     .adversary(0.25)
                     .trusted_share(0.3)
                     .attack("eclipse")
                     .rounds(16)
                     .seed(32)},
      {"eviction", test::Scenario()
                       .adversary(0.2)
                       .trusted_share(0.4)
                       .eviction_pct(60)
                       .rounds(16)
                       .seed(33)},
      {"tamper", test::Scenario()
                     .adversary(0.2)
                     .trusted_share(0.3)
                     .tamper_rate(0.05)
                     .rounds(16)
                     .seed(34)},
  };
  for (const Cell& cell : cells) {
    const auto one = scenario::ScenarioSpec(cell.spec).threads(1).run();
    for (const std::size_t width : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
      const auto sharded = scenario::ScenarioSpec(cell.spec).threads(width).run();
      EXPECT_TRUE(test::same_metric_streams(one, sharded))
          << "axis " << cell.name << ", width " << width;
    }
  }
}

// With loss every width, 1 included, draws the same per-node loss streams,
// so {1, 2, 4, hw} must coincide — here under churn + attack
// simultaneously, the heaviest shared-state mix.
TEST(ParallelEngineScenario, LossyShardedWidthsCoincideUnderChurnAndAttack) {
  const auto spec = test::Scenario()
                        .adversary(0.25)
                        .trusted_share(0.3)
                        .attack("oscillating")
                        .churn(true)
                        .message_loss(0.15)
                        .rounds(16)
                        .seed(35);
  const auto one = scenario::ScenarioSpec(spec).threads(1).run();
  const auto two = scenario::ScenarioSpec(spec).threads(2).run();
  const auto four = scenario::ScenarioSpec(spec).threads(4).run();
  const auto hw = scenario::ScenarioSpec(spec).threads(0).run();
  EXPECT_TRUE(test::same_metric_streams(two, one));
  EXPECT_TRUE(test::same_metric_streams(two, four));
  EXPECT_TRUE(test::same_metric_streams(two, hw));
}

TEST(ParallelEngineScenario, EngineThreadsAreValidatedAndSerialized) {
  EXPECT_THROW((void)test::Scenario().threads(5000).run(), std::invalid_argument);
  const auto config = test::Scenario().threads(8).config();
  EXPECT_EQ(config.engine_threads, 8u);
}

}  // namespace
}  // namespace raptee::sim
