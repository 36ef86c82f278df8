// RapteeNode behaviour: trusted exchanges over the engine, eviction caps,
// camouflage, and bogus-offer rejection.
#include "core/raptee_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/node_factory.hpp"
#include "sim/engine.hpp"
#include "support/targets.hpp"

namespace raptee::core {
namespace {

using test::pull_targets_of;
using test::push_targets_of;

brahms::BrahmsConfig small_brahms(std::size_t l1 = 20) {
  brahms::BrahmsConfig config;
  config.params.l1 = l1;
  config.params.l2 = l1;
  return config;
}

RapteeConfig small_raptee(EvictionSpec eviction, std::size_t l1 = 20) {
  RapteeConfig config;
  config.brahms = small_brahms(l1);
  config.eviction = eviction;
  return config;
}

/// Two trusted nodes + a ring of honest nodes, driven by the engine.
struct MixedWorld {
  explicit MixedWorld(EvictionSpec eviction, std::size_t honest = 10,
                      bool overlay = false, std::uint64_t seed = 42)
      : factory(seed, brahms::AuthMode::kFingerprint), engine({seed}) {
    RapteeConfig rc = small_raptee(eviction);
    rc.trusted_overlay = overlay;
    for (std::uint32_t i = 0; i < 2; ++i) {
      auto node = factory.make_trusted(NodeId{i}, rc);
      trusted.push_back(node.get());
      engine.add_node(std::move(node), NodeKind::kTrusted);
    }
    for (std::uint32_t i = 0; i < honest; ++i) {
      engine.add_node(factory.make_honest(NodeId{2 + i}, small_brahms()),
                      NodeKind::kHonest);
    }
    engine.bootstrap_uniform(8);
  }

  NodeFactory factory;
  sim::Engine engine;
  std::vector<RapteeNode*> trusted;
};

TEST(RapteeNode, RequiresProvisionedEnclave) {
  crypto::Drbg kg(1);
  auto auth = std::make_unique<brahms::KeyedAuthenticator>(
      brahms::AuthMode::kFingerprint, kg.generate_key(), kg.fork("a"));
  auto unprovisioned =
      std::make_unique<sgx::Enclave>(sgx::raptee_enclave_identity(), 1);
  EXPECT_THROW(RapteeNode(NodeId{0}, small_raptee(EvictionSpec::none()),
                          std::move(auth), std::move(unprovisioned), Rng(1)),
               std::invalid_argument);
}

TEST(RapteeNode, FactoryProducesWorkingTrustedPair) {
  MixedWorld world(EvictionSpec::adaptive());
  EXPECT_TRUE(world.trusted[0]->enclave().has_group_key());
  EXPECT_TRUE(world.trusted[1]->enclave().has_group_key());
}

TEST(RapteeNode, TrustedPairCompletesSwapsOverEngine) {
  MixedWorld world(EvictionSpec::adaptive(), /*honest=*/4);
  world.engine.run(12);
  EXPECT_GT(world.engine.counters().swaps_completed, 0u);
  // Both trusted nodes learned about each other.
  EXPECT_TRUE(world.trusted[0]->trusted_store().is_known_trusted(NodeId{1}) ||
              world.trusted[1]->trusted_store().is_known_trusted(NodeId{0}));
}

TEST(RapteeNode, HonestOnlyWorldNeverSwaps) {
  NodeFactory factory(7, brahms::AuthMode::kFingerprint);
  sim::Engine engine({7});
  for (std::uint32_t i = 0; i < 8; ++i) {
    engine.add_node(factory.make_honest(NodeId{i}, small_brahms()), NodeKind::kHonest);
  }
  engine.bootstrap_uniform(6);
  engine.run(10);
  EXPECT_EQ(engine.counters().swaps_completed, 0u);
}

TEST(RapteeNode, SingleTrustedNodeNeverSwaps) {
  NodeFactory factory(8, brahms::AuthMode::kFingerprint);
  sim::Engine engine({8});
  engine.add_node(factory.make_trusted(NodeId{0}, small_raptee(EvictionSpec::adaptive())),
                  NodeKind::kTrusted);
  for (std::uint32_t i = 1; i < 8; ++i) {
    engine.add_node(factory.make_honest(NodeId{i}, small_brahms()), NodeKind::kHonest);
  }
  engine.bootstrap_uniform(6);
  engine.run(10);
  EXPECT_EQ(engine.counters().swaps_completed, 0u);
}

TEST(RapteeNode, AdaptiveRateRespondsToTrustedContacts) {
  MixedWorld world(EvictionSpec::adaptive(), /*honest=*/10);
  world.engine.run(10);
  // With mostly-honest contact, the rate must sit at the upper clamp.
  EXPECT_NEAR(world.trusted[0]->last_eviction_rate(), 0.8, 0.25);
  EXPECT_GE(world.trusted[0]->last_eviction_rate(), 0.2);
}

TEST(RapteeNode, FixedEvictionRateIsReported) {
  MixedWorld world(EvictionSpec::fixed(0.35), /*honest=*/6);
  world.engine.run(4);
  EXPECT_DOUBLE_EQ(world.trusted[0]->last_eviction_rate(), 0.35);
  EXPECT_DOUBLE_EQ(world.trusted[0]->telemetry().eviction_rate, 0.35);
}

TEST(RapteeNode, FullEvictionStillRenewsViews) {
  // ER=100%: untrusted pulled IDs are barred from the view, but the view
  // must keep renewing from pushes/history ("as if issuing no pulls").
  MixedWorld world(EvictionSpec::fixed(1.0), /*honest=*/10);
  const auto before = world.trusted[0]->view().ids();
  world.engine.run(10);
  const auto after = world.trusted[0]->view().ids();
  EXPECT_GE(after.size(), before.size());  // views keep filling toward l1
  EXPECT_NE(after, before);                // and their content keeps renewing
}

TEST(RapteeNode, ViewNeverContainsSelf) {
  MixedWorld world(EvictionSpec::adaptive(), /*honest=*/8);
  world.engine.run(8);
  for (const auto* node : world.trusted) {
    const auto view = node->view().ids();
    EXPECT_EQ(std::count(view.begin(), view.end(), node->id()), 0);
  }
}

TEST(RapteeNode, TrustedOverlayAddsExtraPullAfterDiscovery) {
  MixedWorld world(EvictionSpec::adaptive(), /*honest=*/6, /*overlay=*/true);
  world.engine.run(15);
  world.trusted[0]->begin_round(99);
  std::vector<NodeId> pulls(40, NodeId{999});  // stale entries
  world.trusted[0]->pull_targets(pulls);
  EXPECT_EQ(std::count(pulls.begin(), pulls.end(), NodeId{999}), 0);
  // Once trusted peers discovered each other, pull fan-out grows by one.
  if (world.trusted[0]->trusted_store().size() > 0) {
    EXPECT_EQ(pulls.size(), small_brahms().params.pull_slice() + 1);
    EXPECT_EQ(pulls.back(), NodeId{1});
  } else {
    EXPECT_EQ(pulls.size(), small_brahms().params.pull_slice());
  }
}

TEST(RapteeNode, CamouflageTrafficShapeMatchesHonest) {
  // A trusted node's fan-outs equal an honest node's: identical push/pull
  // counts and full-view pull answers (the §IV-C camouflage requirement).
  MixedWorld world(EvictionSpec::adaptive(), /*honest=*/8);
  world.engine.run(3);
  auto* trusted_node = world.trusted[0];
  auto& honest_node = world.engine.node(NodeId{5});
  trusted_node->begin_round(50);
  honest_node.begin_round(50);
  EXPECT_EQ(push_targets_of(*trusted_node).size(), push_targets_of(honest_node).size());
  EXPECT_EQ(pull_targets_of(*trusted_node).size(), pull_targets_of(honest_node).size());
  const auto reply = trusted_node->answer_pull(wire::PullRequest{NodeId{9}, {}});
  EXPECT_EQ(reply.view.size(), trusted_node->view().size());
}

TEST(RapteeNode, BogusSwapOfferFromUntrustedIsIgnored) {
  MixedWorld world(EvictionSpec::adaptive(), /*honest=*/4);
  auto* node = world.trusted[0];
  node->begin_round(0);
  // Craft an exchange where the "initiator" fails auth but attaches an offer.
  const auto reply = node->answer_pull(wire::PullRequest{NodeId{3}, {}});
  (void)reply;
  wire::AuthConfirm bogus;
  bogus.sender = NodeId{3};
  bogus.confirm.proof_a.fill(0xAB);  // garbage proof
  bogus.swap_offer = std::vector<NodeId>{NodeId{4}, NodeId{5}};
  EXPECT_FALSE(node->process_confirm(bogus).has_value());
}

TEST(RapteeNode, StraySwapReplyIsIgnored) {
  MixedWorld world(EvictionSpec::adaptive(), /*honest=*/4);
  auto* node = world.trusted[0];
  node->begin_round(0);
  const auto before = node->view().ids();
  node->process_swap_reply(wire::SwapReply{NodeId{9}, {NodeId{4}, NodeId{5}}});
  EXPECT_EQ(node->view().ids(), before);
}

TEST(RapteeNode, EnclaveLedgerAccumulatesDuringRun) {
  const sgx::CycleModel model = sgx::CycleModel::paper_table1();
  NodeFactory factory(9, brahms::AuthMode::kFingerprint, &model);
  sim::Engine engine({9});
  auto trusted = factory.make_trusted(NodeId{0}, small_raptee(EvictionSpec::adaptive()));
  auto* trusted_ptr = trusted.get();
  engine.add_node(std::move(trusted), NodeKind::kTrusted);
  for (std::uint32_t i = 1; i < 6; ++i) {
    engine.add_node(factory.make_honest(NodeId{i}, small_brahms()), NodeKind::kHonest);
  }
  engine.bootstrap_uniform(5);
  engine.run(5);
  EXPECT_GT(trusted_ptr->enclave().ledger().total_cycles(), 0u);
  EXPECT_GT(trusted_ptr->enclave().ledger().calls(sgx::FunctionClass::kTrustedComms), 0u);
}

}  // namespace
}  // namespace raptee::core
