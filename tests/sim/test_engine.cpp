#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "fake_node.hpp"

namespace raptee::sim {
namespace {

using testing::FakeNode;

struct EngineFixture : public ::testing::Test {
  Engine make_engine(std::size_t n, EngineConfig config = {}) {
    Engine engine(config);
    fakes.clear();
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<FakeNode>(NodeId{static_cast<std::uint32_t>(i)});
      fakes.push_back(node.get());
      engine.add_node(std::move(node), NodeKind::kHonest);
    }
    return engine;
  }
  std::vector<FakeNode*> fakes;
};

TEST_F(EngineFixture, RejectsNonDenseIds) {
  Engine engine({});
  EXPECT_THROW(engine.add_node(std::make_unique<FakeNode>(NodeId{5}), NodeKind::kHonest),
               std::invalid_argument);
}

TEST_F(EngineFixture, RejectsNullNode) {
  Engine engine({});
  EXPECT_THROW(engine.add_node(nullptr, NodeKind::kHonest), std::invalid_argument);
}

TEST_F(EngineFixture, RoundLifecycleCallsEveryNode) {
  Engine engine = make_engine(4);
  engine.step();
  engine.step();
  for (auto* f : fakes) {
    EXPECT_EQ(f->begin_calls, 2);
    EXPECT_EQ(f->end_calls, 2);
    EXPECT_EQ(f->last_round, 1u);
  }
  EXPECT_EQ(engine.now(), 2u);
}

TEST_F(EngineFixture, PushesAreDelivered) {
  Engine engine = make_engine(3);
  fakes[0]->push_targets_ = {NodeId{1}, NodeId{2}, NodeId{1}};
  engine.step();
  EXPECT_EQ(fakes[1]->received_pushes.size(), 2u);
  EXPECT_EQ(fakes[2]->received_pushes.size(), 1u);
  EXPECT_EQ(fakes[1]->received_pushes[0], NodeId{0});
  EXPECT_EQ(engine.counters().pushes_sent, 3u);
  EXPECT_EQ(engine.counters().pushes_delivered, 3u);
}

TEST_F(EngineFixture, PushToDeadNodeVanishes) {
  Engine engine = make_engine(2);
  fakes[0]->push_targets_ = {NodeId{1}};
  engine.set_alive(NodeId{1}, false);
  engine.step();
  EXPECT_TRUE(fakes[1]->received_pushes.empty());
  EXPECT_EQ(engine.counters().pushes_delivered, 0u);
}

TEST_F(EngineFixture, PullExchangeFiveLegs) {
  Engine engine = make_engine(2);
  fakes[0]->pull_targets_ = {NodeId{1}};
  fakes[0]->offer_on_reply = true;
  fakes[1]->answer_swaps = true;
  fakes[0]->view_ = {NodeId{1}};
  fakes[1]->view_ = {NodeId{0}};
  engine.step();
  EXPECT_EQ(fakes[1]->pull_requests_answered, std::vector<NodeId>{NodeId{0}});
  EXPECT_EQ(fakes[0]->replies_received, std::vector<NodeId>{NodeId{1}});
  EXPECT_EQ(fakes[0]->last_reply_view, std::vector<NodeId>{NodeId{0}});
  EXPECT_EQ(fakes[1]->confirms_received, std::vector<NodeId>{NodeId{0}});
  EXPECT_EQ(fakes[0]->swap_replies, std::vector<NodeId>{NodeId{1}});
  EXPECT_EQ(engine.counters().pulls_completed, 1u);
  EXPECT_EQ(engine.counters().swaps_completed, 1u);
}

TEST_F(EngineFixture, PullWithoutOfferSkipsSwapLegs) {
  Engine engine = make_engine(2);
  fakes[0]->pull_targets_ = {NodeId{1}};
  engine.step();
  EXPECT_EQ(engine.counters().pulls_completed, 1u);
  EXPECT_EQ(engine.counters().swaps_completed, 0u);
  EXPECT_TRUE(fakes[0]->swap_replies.empty());
}

TEST_F(EngineFixture, PullToDeadPeerTimesOut) {
  Engine engine = make_engine(2);
  fakes[0]->pull_targets_ = {NodeId{1}};
  engine.set_alive(NodeId{1}, false);
  engine.step();
  EXPECT_EQ(fakes[0]->timeouts, std::vector<NodeId>{NodeId{1}});
  EXPECT_EQ(engine.counters().pulls_timed_out, 1u);
}

TEST_F(EngineFixture, SelfPullTimesOut) {
  Engine engine = make_engine(1);
  fakes[0]->pull_targets_ = {NodeId{0}};
  engine.step();
  EXPECT_EQ(fakes[0]->timeouts, std::vector<NodeId>{NodeId{0}});
}

TEST_F(EngineFixture, DeadNodesDoNotParticipate) {
  Engine engine = make_engine(2);
  fakes[1]->push_targets_ = {NodeId{0}};
  fakes[1]->pull_targets_ = {NodeId{0}};
  engine.set_alive(NodeId{1}, false);
  engine.step();
  EXPECT_EQ(fakes[1]->begin_calls, 0);
  EXPECT_TRUE(fakes[0]->received_pushes.empty());
  EXPECT_TRUE(fakes[0]->pull_requests_answered.empty());
}

TEST_F(EngineFixture, TotalMessageLossDropsEverything) {
  EngineConfig config;
  config.message_loss = 1.0;
  Engine engine = make_engine(2, config);
  fakes[0]->push_targets_ = {NodeId{1}};
  fakes[0]->pull_targets_ = {NodeId{1}};
  engine.step();
  EXPECT_TRUE(fakes[1]->received_pushes.empty());
  EXPECT_EQ(engine.counters().pulls_completed, 0u);
  EXPECT_EQ(fakes[0]->timeouts.size(), 1u);
  EXPECT_GT(engine.counters().legs_dropped, 0u);
}

TEST_F(EngineFixture, WireRoundtripPreservesPayloads) {
  EngineConfig config;
  config.wire_roundtrip = true;
  Engine engine = make_engine(2, config);
  fakes[0]->pull_targets_ = {NodeId{1}};
  fakes[1]->view_ = {NodeId{0}, NodeId{1}};
  engine.step();
  EXPECT_EQ(fakes[0]->last_reply_view, (std::vector<NodeId>{NodeId{0}, NodeId{1}}));
  EXPECT_GT(engine.counters().wire_bytes, 0u);
}

TEST_F(EngineFixture, EncryptedLinksPreservePayloads) {
  EngineConfig config;
  config.encrypt_links = true;
  Engine engine = make_engine(2, config);
  fakes[0]->pull_targets_ = {NodeId{1}};
  fakes[0]->offer_on_reply = true;
  fakes[1]->answer_swaps = true;
  fakes[0]->view_ = {NodeId{1}};
  fakes[1]->view_ = {NodeId{0}, NodeId{1}};
  engine.step();
  EXPECT_EQ(fakes[0]->last_reply_view, (std::vector<NodeId>{NodeId{0}, NodeId{1}}));
  EXPECT_EQ(engine.counters().swaps_completed, 1u);
}

TEST_F(EngineFixture, BootstrapUniformRespectsSizeAndExcludesSelf) {
  Engine engine = make_engine(10);
  engine.bootstrap_uniform(4);
  for (auto* f : fakes) {
    EXPECT_EQ(f->bootstraps, 1);
    EXPECT_EQ(f->view_.size(), 4u);
    for (NodeId peer : f->view_) EXPECT_NE(peer, f->id());
  }
}

TEST_F(EngineFixture, BootstrapUniformWithNobodyAliveIsANoOp) {
  Engine engine = make_engine(3);
  for (auto* f : fakes) engine.set_alive(f->id(), false);
  engine.bootstrap_uniform(4);  // must not underflow everyone.size() - 1
  for (auto* f : fakes) EXPECT_EQ(f->bootstraps, 0);
}

TEST_F(EngineFixture, BootstrapUniformSingletonGetsEmptyView) {
  Engine engine = make_engine(3);
  engine.set_alive(NodeId{1}, false);
  engine.set_alive(NodeId{2}, false);
  engine.bootstrap_uniform(4);
  EXPECT_EQ(fakes[0]->bootstraps, 1);
  EXPECT_TRUE(fakes[0]->view_.empty());
  EXPECT_EQ(fakes[1]->bootstraps, 0);
}

TEST_F(EngineFixture, BootstrapWithProviderControlsViews) {
  Engine engine = make_engine(3);
  engine.bootstrap_with([](NodeId id, NodeKind) {
    return std::vector<NodeId>{NodeId{(id.value + 1) % 3}};
  });
  EXPECT_EQ(fakes[0]->view_, std::vector<NodeId>{NodeId{1}});
  EXPECT_EQ(fakes[2]->view_, std::vector<NodeId>{NodeId{0}});
}

TEST_F(EngineFixture, AliveIdsListsLiveNodesOfEveryKind) {
  Engine engine({});
  engine.add_node(std::make_unique<FakeNode>(NodeId{0}), NodeKind::kHonest);
  engine.add_node(std::make_unique<FakeNode>(NodeId{1}), NodeKind::kByzantine);
  engine.add_node(std::make_unique<FakeNode>(NodeId{2}), NodeKind::kTrusted);
  engine.set_alive(NodeId{0}, false);
  std::vector<NodeId> alive{NodeId{7}, NodeId{0}, NodeId{9}};  // stale entries
  engine.alive_ids(alive);
  EXPECT_EQ(alive, (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
}

TEST_F(EngineFixture, CountersSeeAPushAPullAndASwap) {
  Engine engine = make_engine(2);
  fakes[0]->push_targets_ = {NodeId{1}};
  fakes[0]->pull_targets_ = {NodeId{1}};
  fakes[0]->offer_on_reply = true;
  fakes[1]->answer_swaps = true;
  engine.step();
  EXPECT_EQ(engine.counters().pushes_delivered, 1u);
  EXPECT_EQ(engine.counters().pulls_completed, 1u);
  EXPECT_EQ(engine.counters().swaps_completed, 1u);
}

TEST_F(EngineFixture, RunHonorsStopPredicate) {
  Engine engine = make_engine(1);
  engine.run(10, [](Round r) { return r >= 3; });
  EXPECT_EQ(engine.now(), 3u);
  engine.run(5);
  EXPECT_EQ(engine.now(), 8u);
}

TEST_F(EngineFixture, AlivenessProbeReflectsState) {
  Engine engine = make_engine(2);
  const auto probe = engine.aliveness_probe();
  EXPECT_TRUE(probe(NodeId{1}));
  engine.set_alive(NodeId{1}, false);
  EXPECT_FALSE(probe(NodeId{1}));
}

TEST_F(EngineFixture, DeterministicAcrossIdenticalRuns) {
  auto run_once = [this](std::uint64_t seed) {
    EngineConfig config;
    config.seed = seed;
    config.message_loss = 0.5;
    Engine engine = make_engine(4, config);
    for (auto* f : fakes) {
      f->push_targets_ = {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
    }
    engine.run(5);
    return engine.counters().pushes_delivered;
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));  // overwhelmingly likely
}

}  // namespace
}  // namespace raptee::sim
