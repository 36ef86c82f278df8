// Sharded round phases (EngineConfig::threads): width 1 is a pool of one
// running the same phases inline, so results must be a deterministic
// function of the seed alone — the worker count must never change a byte,
// lossy runs included (push loss always draws per-node split streams). The
// pull exchanges of a lossless run go in conflict-free waves across the
// pool, so every node must still meet its exchanges in the same order. The
// scenario-level matrix below asserts that bit-identity across the churn /
// attack / eviction / tamper / link axes, down to every metric stream and
// counter.
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

/// Every leg a FakeNode records, in the order it saw them.
struct LegLogs {
  std::vector<NodeId> answered, replies, confirms, swaps, timeouts;
  friend bool operator==(const LegLogs&, const LegLogs&) = default;
};

TEST(ParallelEngineExchanges, HotTargetLegLogsMatchAcrossWidths) {
  // Every node also pulls node 0, so node 0 sits in one exchange of nearly
  // every wave while the others spread out; a dead node makes timeouts,
  // and trusted-style swaps run the fourth and fifth legs.
  constexpr std::uint32_t kHotNodes = 40;
  const auto run = [](std::size_t width) {
    EngineConfig config;
    config.seed = 26;
    config.threads = width;
    Engine engine(config);
    std::vector<FakeNode*> fakes;
    for (std::uint32_t i = 0; i < kHotNodes; ++i) {
      auto node = std::make_unique<FakeNode>(NodeId{i});
      node->pull_targets_ = {NodeId{0}, NodeId{(i * 7 + 3) % kHotNodes},
                             NodeId{(i + 1) % kHotNodes}};
      node->view_ = {NodeId{i}, NodeId{(i + 5) % kHotNodes}};
      node->offer_on_reply = i % 3 == 0;
      node->answer_swaps = i % 2 == 0;
      fakes.push_back(node.get());
      engine.add_node(std::move(node), NodeKind::kHonest);
    }
    engine.set_alive(NodeId{kHotNodes - 1}, false);
    for (Round r = 0; r < kRounds; ++r) engine.step();
    EXPECT_GT(engine.counters().swaps_completed, 0u);
    EXPECT_GT(engine.counters().pulls_timed_out, 0u);
    std::vector<LegLogs> logs;
    for (const FakeNode* f : fakes) {
      logs.push_back({f->pull_requests_answered, f->replies_received, f->confirms_received,
                      f->swap_replies, f->timeouts});
    }
    return std::pair{logs, engine.counters()};
  };
  const auto [one, c1] = run(1);
  EXPECT_GT(one[0].answered.size(), kRounds * (kHotNodes - 2));  // node 0 is hot
  for (const std::size_t width : {std::size_t{2}, std::size_t{4}}) {
    const auto [logs, counters] = run(width);
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_TRUE(logs[i] == one[i]) << "node " << i << ", width " << width;
    }
    EXPECT_EQ(counters.pulls_completed, c1.pulls_completed);
    EXPECT_EQ(counters.pulls_timed_out, c1.pulls_timed_out);
    EXPECT_EQ(counters.swaps_completed, c1.swaps_completed);
  }
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
// touch: churn (rejoin bootstraps), non-default attack strategies
// (Coordinator-driven Byzantine phases, and Byzantine legs drawing on
// positioned Coordinator streams inside concurrent waves: bogus swap
// offers, the oscillating attacker's dormant camouflage answers, the
// omission attacker's refusals), fixed eviction (end_round), encrypted
// links (per-pair sessions used from concurrent waves), and on-path
// tampering (serial exchange legs under the byte round-trip). Every width,
// 1 included, must produce bit-identical metric streams.
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
      {"bogus_swap", test::Scenario()
                         .adversary(0.25)
                         .trusted_share(0.3)
                         .attack("bogus_swap")
                         .rounds(16)
                         .seed(36)},
      {"oscillating", test::Scenario()
                          .adversary(0.25)
                          .trusted_share(0.3)
                          .attack("oscillating")
                          .rounds(16)
                          .seed(37)},
      {"omission", test::Scenario()
                       .adversary(0.25)
                       .trusted_share(0.3)
                       .attack("omission")
                       .rounds(16)
                       .seed(38)},
      {"encrypt_links", test::Scenario()
                            .adversary(0.2)
                            .trusted_share(0.3)
                            .wire_roundtrip(true)
                            .encrypt_links(true)
                            .rounds(16)
                            .seed(39)},
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
