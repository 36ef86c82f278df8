#include "metrics/trackers.hpp"

#include <gtest/gtest.h>

#include "../sim/fake_node.hpp"
#include "sim/engine.hpp"

namespace raptee::metrics {
namespace {

using sim::testing::FakeNode;

// Layout: ids 0..3 honest, id 4 trusted, ids 8..9 Byzantine.
bool is_byz_id(NodeId id) { return id.value >= 8; }

struct TrackerWorld {
  explicit TrackerWorld(std::size_t n_correct = 5, std::size_t n_byz = 2)
      : engine({1}) {
    for (std::uint32_t i = 0; i < n_correct; ++i) {
      auto node = std::make_unique<FakeNode>(NodeId{i});
      fakes.push_back(node.get());
      engine.add_node(std::move(node),
                      i == 4 ? NodeKind::kTrusted : NodeKind::kHonest);
    }
    for (std::uint32_t i = 0; i < n_byz; ++i) {
      auto node = std::make_unique<FakeNode>(NodeId{8 + i});
      // Dense-id requirement: fill the gap with dead honest nodes if needed.
      while (engine.size() < 8 + i) {
        auto filler = std::make_unique<FakeNode>(
            NodeId{static_cast<std::uint32_t>(engine.size())});
        engine.add_node(std::move(filler), NodeKind::kHonest);
        engine.set_alive(NodeId{static_cast<std::uint32_t>(engine.size() - 1)}, false);
      }
      fakes.push_back(node.get());
      engine.add_node(std::move(node), NodeKind::kByzantine);
    }
  }

  FakeNode& node(std::uint32_t id) {
    for (auto* f : fakes) {
      if (f->id() == NodeId{id}) return *f;
    }
    throw std::runtime_error("no such fake");
  }

  sim::Engine engine;
  std::vector<FakeNode*> fakes;
};

/// One experiment round for one tracker: step, refresh the view slab once,
/// observe the round; returns what the round contributed.
template <typename Tracker>
auto step(TrackerWorld& world, Tracker& tracker) {
  const Round round = world.engine.now();
  world.engine.step();
  world.engine.refresh_views();
  return tracker.observe(round, world.engine);
}

TEST(PollutionTracker, ComputesAverageAndPerKindSeries) {
  TrackerWorld world;
  PollutionTracker tracker(is_byz_id, /*view_size=*/4);
  // Honest nodes: 2/4 Byzantine; trusted node: 0/4.
  for (std::uint32_t i = 0; i < 4; ++i) {
    world.node(i).view_ = {NodeId{8}, NodeId{9}, NodeId{1}, NodeId{2}};
  }
  world.node(4).view_ = {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
  const PollutionTracker::Sample sample = step(world, tracker);

  ASSERT_EQ(tracker.pollution_series().size(), 1u);
  EXPECT_NEAR(tracker.pollution_series()[0], 0.4, 1e-9);  // (4*0.5 + 0)/5
  EXPECT_NEAR(tracker.honest_series()[0], 0.5, 1e-9);
  EXPECT_NEAR(tracker.trusted_series()[0], 0.0, 1e-9);
  // observe() returns exactly the entries the series gained.
  EXPECT_EQ(sample.all, tracker.pollution_series()[0]);
  EXPECT_EQ(sample.honest, tracker.honest_series()[0]);
  EXPECT_EQ(sample.trusted, tracker.trusted_series()[0]);
}

TEST(PollutionTracker, SteadyStateUsesTailWindow) {
  TrackerWorld world;
  PollutionTracker tracker(is_byz_id, 4);
  // 3 rounds at 0% then 10 rounds at 50% pollution for everyone.
  for (int r = 0; r < 3; ++r) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      world.node(i).view_ = {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
    }
    step(world, tracker);
  }
  for (int r = 0; r < 10; ++r) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      world.node(i).view_ = {NodeId{8}, NodeId{9}, NodeId{2}, NodeId{3}};
    }
    step(world, tracker);
  }
  EXPECT_NEAR(tracker.steady_state_pollution(10), 0.5, 1e-9);
  EXPECT_NEAR(tracker.steady_state_honest(10), 0.5, 1e-9);
}

TEST(PollutionTracker, StabilityRequiresWarmupAndLowDeviation) {
  TrackerWorld world;
  PollutionTracker tracker(is_byz_id, 4, 0.10, /*smoothing_window=*/3);
  // Identical views for every node: deviation 0 from the start, so
  // stability triggers as soon as the smoothing window fills AND the
  // plateau check has one full window of history (round 3 with window=3).
  for (int r = 0; r < 5; ++r) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      world.node(i).view_ = {NodeId{8}, NodeId{1}, NodeId{2}, NodeId{3}};
    }
    step(world, tracker);
  }
  ASSERT_TRUE(tracker.stability_round().has_value());
  EXPECT_EQ(*tracker.stability_round(), 3u);
}

TEST(PollutionTracker, PersistentOutlierPreventsStability) {
  TrackerWorld world;
  PollutionTracker tracker(is_byz_id, 4, 0.10, 3);
  for (int r = 0; r < 8; ++r) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      world.node(i).view_ = {NodeId{8}, NodeId{9}, NodeId{2}, NodeId{3}};  // 50 %
    }
    world.node(4).view_ = {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};    // 0 %
    step(world, tracker);
  }
  EXPECT_FALSE(tracker.stability_round().has_value());
  EXPECT_GT(tracker.deviation_series().back(), 0.3);
}

TEST(PollutionTracker, EmptyViewsCountAsClean) {
  TrackerWorld world;
  PollutionTracker tracker(is_byz_id, 4);
  step(world, tracker);
  EXPECT_NEAR(tracker.pollution_series()[0], 0.0, 1e-12);
}

TEST(DiscoveryTracker, PrimeSeedsBootstrapKnowledge) {
  TrackerWorld world;
  std::vector<NodeId> correct{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  DiscoveryTracker tracker(correct, 0.75);
  world.node(0).view_ = {NodeId{1}, NodeId{2}, NodeId{3}};  // knows 4/5 with self
  tracker.prime(world.engine);
  const double min_knowledge = step(world, tracker);
  ASSERT_EQ(tracker.min_knowledge_series().size(), 1u);
  EXPECT_EQ(min_knowledge, tracker.min_knowledge_series()[0]);
  // Node 0 knows {0,1,2,3} = 0.8; others know only themselves = 0.2.
  EXPECT_NEAR(tracker.min_knowledge_series()[0], 0.2, 1e-9);
}

TEST(DiscoveryTracker, DiscoveryTriggersWhenAllCross75) {
  TrackerWorld world;
  std::vector<NodeId> correct{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  DiscoveryTracker tracker(correct, 0.75);

  // Round 0: everyone sees 2 others (+self = 3/5 = 0.6 < 0.75).
  for (std::uint32_t i = 0; i < 5; ++i) {
    world.node(i).view_ = {NodeId{(i + 1) % 5}, NodeId{(i + 2) % 5}};
  }
  step(world, tracker);
  EXPECT_FALSE(tracker.discovery_round().has_value());

  // Round 1: one more distinct acquaintance (4/5 = 0.8 >= 0.75).
  for (std::uint32_t i = 0; i < 5; ++i) {
    world.node(i).view_ = {NodeId{(i + 3) % 5}};
  }
  step(world, tracker);
  ASSERT_TRUE(tracker.discovery_round().has_value());
  EXPECT_EQ(*tracker.discovery_round(), 1u);
}

TEST(DiscoveryTracker, ByzantineIdsDoNotCount) {
  TrackerWorld world;
  std::vector<NodeId> correct{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  DiscoveryTracker tracker(correct, 0.75);
  for (std::uint32_t i = 0; i < 5; ++i) {
    world.node(i).view_ = {NodeId{8}, NodeId{9}};  // only Byzantine entries
  }
  step(world, tracker);
  EXPECT_NEAR(tracker.min_knowledge_series()[0], 0.2, 1e-9);  // self only
}

TEST(DiscoveryTracker, KnowledgeIsMonotone) {
  TrackerWorld world;
  std::vector<NodeId> correct{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  DiscoveryTracker tracker(correct, 0.75);
  world.node(0).view_ = {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  step(world, tracker);
  world.node(0).view_ = {};  // forgets its view; knowledge must persist
  step(world, tracker);
  EXPECT_GE(tracker.min_knowledge_series()[1], tracker.min_knowledge_series()[0]);
}

}  // namespace
}  // namespace raptee::metrics
