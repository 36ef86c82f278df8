#include "adversary/byzantine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "adversary/identification.hpp"
#include "adversary/strategy.hpp"
#include "support/targets.hpp"

namespace raptee::adversary {
namespace {

using test::answer_pull_of;
using test::open_pull_of;
using test::process_confirm_of;
using test::process_pull_reply_of;
using test::pull_targets_of;
using test::push_targets_of;

std::vector<NodeId> ids(std::uint32_t from, std::uint32_t count) {
  std::vector<NodeId> out;
  for (std::uint32_t i = 0; i < count; ++i) out.emplace_back(from + i);
  return out;
}

/// A member's push slice, copied so it can be compared by value.
std::vector<NodeId> slice_of(const Coordinator& coord, NodeId member) {
  const auto slice = coord.push_slice(member);
  return {slice.begin(), slice.end()};
}

std::vector<NodeId> faulty_view_of(Coordinator& coord, std::size_t k) {
  std::vector<NodeId> view;
  coord.faulty_view(k, view);
  return view;
}

std::unique_ptr<IStrategy> balanced() { return make_strategy(AttackSpec::balanced()); }

AttackConfig basic_attack() {
  AttackConfig config;
  config.push_budget_per_member = 8;
  config.pull_fanout = 8;
  config.advertised_view_size = 20;
  return config;
}

TEST(Coordinator, BalancedPushSpreadIsEvenWithinOne) {
  const auto members = ids(100, 10);
  const auto victims = ids(0, 40);
  Coordinator coord(members, victims, basic_attack(), 1, balanced());
  coord.begin_round(0);

  std::map<std::uint32_t, int> per_victim;
  std::size_t total = 0;
  for (NodeId m : members) {
    const auto targets = coord.push_slice(m);
    EXPECT_EQ(targets.size(), 8u);
    total += targets.size();
    for (NodeId t : targets) ++per_victim[t.value];
  }
  EXPECT_EQ(total, 80u);  // 10 members x budget 8
  int min_hits = 1 << 30, max_hits = 0;
  for (NodeId v : victims) {
    const int hits = per_victim.count(v.value) ? per_victim[v.value] : 0;
    min_hits = std::min(min_hits, hits);
    max_hits = std::max(max_hits, hits);
  }
  EXPECT_LE(max_hits - min_hits, 1);  // the Brahms-optimal even spread
}

TEST(Coordinator, BeginRoundIsIdempotentPerRound) {
  const auto members = ids(100, 4);
  Coordinator coord(members, ids(0, 10), basic_attack(), 2, balanced());
  coord.begin_round(5);
  const auto first = slice_of(coord, members[0]);
  coord.begin_round(5);  // same round: schedule must not be rebuilt
  EXPECT_EQ(slice_of(coord, members[0]), first);
  coord.begin_round(6);  // new round: typically a different allocation
}

TEST(Coordinator, TargetedModeFocusesBudget) {
  AttackConfig config = basic_attack();
  config.targeted_victims = ids(0, 2);  // eclipse two nodes
  Coordinator coord(ids(100, 5), ids(0, 40), config, 3, balanced());
  coord.begin_round(0);
  for (NodeId m : ids(100, 5)) {
    for (NodeId t : coord.push_slice(m)) {
      EXPECT_LT(t.value, 2u);
    }
  }
}

TEST(Coordinator, FaultyViewDrawsFromMembersOnly) {
  const auto members = ids(100, 30);
  Coordinator coord(members, ids(0, 10), basic_attack(), 4, balanced());
  const auto view = faulty_view_of(coord, 20);
  EXPECT_EQ(view.size(), 20u);
  std::set<std::uint32_t> uniq;
  for (NodeId id : view) {
    EXPECT_TRUE(coord.is_member(id));
    uniq.insert(id.value);
  }
  EXPECT_EQ(uniq.size(), 20u);  // enough members for distinct entries
}

TEST(Coordinator, FaultyViewRepeatsWhenMembersScarce) {
  Coordinator coord(ids(100, 3), ids(0, 10), basic_attack(), 5, balanced());
  const auto view = faulty_view_of(coord, 9);
  EXPECT_EQ(view.size(), 9u);
  for (NodeId id : view) EXPECT_TRUE(coord.is_member(id));
}

TEST(Coordinator, PullTargetsAreVictims) {
  Coordinator coord(ids(100, 3), ids(0, 10), basic_attack(), 6, balanced());
  std::vector<NodeId> targets;
  coord.pull_targets(targets);
  EXPECT_EQ(targets.size(), 8u);
  for (NodeId t : targets) EXPECT_LT(t.value, 10u);
}

TEST(Coordinator, MembershipOracle) {
  Coordinator coord(ids(100, 3), ids(0, 10), basic_attack(), 7, balanced());
  EXPECT_TRUE(coord.is_member(NodeId{101}));
  EXPECT_FALSE(coord.is_member(NodeId{5}));
  EXPECT_FALSE(coord.is_member(NodeId{999}));
}

TEST(Coordinator, EmptyMembersRejected) {
  EXPECT_THROW(Coordinator({}, ids(0, 10), basic_attack(), 8, balanced()),
               std::invalid_argument);
}

TEST(ByzantineNode, PushesFollowCoordinatorSchedule) {
  auto coord = std::make_shared<Coordinator>(ids(100, 4), ids(0, 20), basic_attack(), 9,
                                             balanced());
  ByzantineNode node(NodeId{101}, coord, 1);
  node.begin_round(0);
  const auto targets = push_targets_of(node);
  EXPECT_EQ(targets.size(), 8u);
  EXPECT_EQ(targets, slice_of(*coord, NodeId{101}));
}

TEST(ByzantineNode, PushAdvertisesFaultyIds) {
  auto coord = std::make_shared<Coordinator>(ids(100, 4), ids(0, 20), basic_attack(), 10,
                                             balanced());
  ByzantineNode node(NodeId{100}, coord, 2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(coord->is_member(node.make_push().sender));
  }
}

TEST(ByzantineNode, PullAnswersAreAllFaulty) {
  auto coord = std::make_shared<Coordinator>(ids(100, 30), ids(0, 20), basic_attack(), 11,
                                             balanced());
  ByzantineNode node(NodeId{100}, coord, 3);
  const auto reply = answer_pull_of(node, wire::PullRequest{NodeId{5}, {}});
  EXPECT_EQ(reply.sender, NodeId{100});
  EXPECT_EQ(reply.view.size(), 20u);
  for (NodeId id : reply.view) EXPECT_TRUE(coord->is_member(id));
}

TEST(ByzantineNode, NeverAnswersSwaps) {
  auto coord = std::make_shared<Coordinator>(ids(100, 4), ids(0, 20), basic_attack(), 12,
                                             balanced());
  ByzantineNode node(NodeId{100}, coord, 4);
  wire::AuthConfirm confirm;
  confirm.sender = NodeId{0};
  confirm.swap_offer = std::vector<NodeId>{NodeId{1}};
  EXPECT_FALSE(process_confirm_of(node, confirm).has_value());
}

TEST(ByzantineNode, BogusSwapOfferKnobControlsConfirms) {
  AttackConfig config = basic_attack();
  config.attach_bogus_swap_offer = true;
  auto coord = std::make_shared<Coordinator>(ids(100, 4), ids(0, 20), config, 13,
                                             balanced());
  ByzantineNode node(NodeId{100}, coord, 5);
  const auto confirm = process_pull_reply_of(node, wire::PullReply{NodeId{5}, {}, {}});
  EXPECT_TRUE(confirm.swap_offer.has_value());

  auto coord2 = std::make_shared<Coordinator>(ids(100, 4), ids(0, 20), basic_attack(), 13,
                                              balanced());
  ByzantineNode node2(NodeId{100}, coord2, 5);
  EXPECT_FALSE(process_pull_reply_of(node2, wire::PullReply{NodeId{5}, {}, {}})
                   .swap_offer.has_value());
}

TEST(ByzantineNode, PullFanoutMatchesConfig) {
  auto coord = std::make_shared<Coordinator>(ids(100, 4), ids(0, 20), basic_attack(), 14,
                                             balanced());
  ByzantineNode node(NodeId{100}, coord, 6);
  node.begin_round(0);
  EXPECT_EQ(pull_targets_of(node).size(), 8u);
}

TEST(ByzantineNode, PushTargetsScratchKeepsItsCapacityAcrossRounds) {
  auto coord = std::make_shared<Coordinator>(ids(100, 4), ids(0, 20), basic_attack(), 22,
                                             balanced());
  ByzantineNode node(NodeId{102}, coord, 7);
  node.begin_round(0);
  std::vector<NodeId> scratch;
  node.push_targets(scratch);
  EXPECT_EQ(scratch, slice_of(*coord, NodeId{102}));
  // The scratch keeps its capacity across refills (the zero-allocation
  // contract of the hot path).
  const auto capacity = scratch.capacity();
  node.begin_round(1);
  node.push_targets(scratch);
  EXPECT_EQ(scratch, slice_of(*coord, NodeId{102}));
  EXPECT_EQ(scratch.capacity(), capacity);
}

TEST(ByzantineNode, PullRepliesReachTheLedgerUnderThePulledTarget) {
  // Members are 100..103; node 3 is the one trusted correct node.
  IdentificationAttack ledger([](NodeId id) { return id.value >= 100; },
                              [](NodeId id) { return id == NodeId{3}; });
  auto coord = std::make_shared<Coordinator>(ids(100, 4), ids(0, 20), basic_attack(), 15,
                                             balanced(), &ledger);
  ByzantineNode node(NodeId{100}, coord, 8);

  // The reply's sender field is only the responder's claim (an on-path
  // flip can rewrite it): the ledger keys the reply by the pulled target.
  (void)open_pull_of(node, NodeId{3});
  (void)process_pull_reply_of(node, wire::PullReply{NodeId{7}, {}, ids(0, 4)});
  EXPECT_EQ(ledger.observed_victims(), 1u);
  EXPECT_EQ(ledger.evaluate(1).trusted_total, 1u);

  // A pull to a fellow member adds nothing.
  (void)open_pull_of(node, NodeId{101});
  (void)process_pull_reply_of(node, wire::PullReply{NodeId{101}, {}, ids(100, 4)});
  EXPECT_EQ(ledger.observed_victims(), 1u);
}

// ---------------------------------------------------------- strategies

std::shared_ptr<Coordinator> make_coordinator(const AttackSpec& spec,
                                              AttackConfig config,
                                              std::uint64_t seed = 77) {
  if (spec.strategy == "eclipse") config.targeted_victims = ids(0, 2);
  config.attach_bogus_swap_offer = spec.attach_bogus_swap_offer;
  return std::make_shared<Coordinator>(ids(100, 5), ids(0, 20), config, seed,
                                       make_strategy(spec));
}

TEST(Strategies, OmissionRefusesPullsAndPushesNothing) {
  auto coord = make_coordinator(AttackSpec::omission(), basic_attack());
  ByzantineNode node(NodeId{100}, coord, 1);
  node.begin_round(0);
  EXPECT_FALSE(node.answers_pull(NodeId{5}));
  std::vector<NodeId> pushes{NodeId{7}, NodeId{8}};  // stale entries
  node.push_targets(pushes);
  EXPECT_TRUE(pushes.empty());
  // Camouflage pulls still go out (the adversary keeps harvesting).
  EXPECT_EQ(pull_targets_of(node).size(), 8u);
}

TEST(Strategies, BalancedAnswersPullsAndPushes) {
  auto coord = make_coordinator(AttackSpec::balanced(), basic_attack());
  ByzantineNode node(NodeId{100}, coord, 1);
  node.begin_round(0);
  EXPECT_TRUE(node.answers_pull(NodeId{5}));
  EXPECT_EQ(push_targets_of(node).size(), 8u);
}

TEST(Strategies, OscillatingFollowsItsDutyCycle) {
  auto coord = make_coordinator(AttackSpec::oscillating(3, 2), basic_attack());
  ByzantineNode node(NodeId{100}, coord, 1);
  std::uint64_t active_rounds = 0;
  for (Round r = 0; r < 10; ++r) {
    node.begin_round(r);
    const bool pushes = !push_targets_of(node).empty();
    const bool expect_active = (r % 5) < 3;
    EXPECT_EQ(pushes, expect_active) << "round " << r;
    if (expect_active) ++active_rounds;
  }
  EXPECT_EQ(coord->rounds_active(), active_rounds);
}

TEST(Strategies, OscillatingCamouflagesAnswersOffDuty) {
  auto coord = make_coordinator(AttackSpec::oscillating(1, 1), basic_attack());
  ByzantineNode node(NodeId{100}, coord, 1);

  node.begin_round(0);  // on duty: poisoned answer, all members
  auto reply = answer_pull_of(node, wire::PullRequest{NodeId{5}, {}});
  for (NodeId id : reply.view) EXPECT_TRUE(coord->is_member(id));

  node.begin_round(1);  // off duty: camouflage answer, all correct IDs
  reply = answer_pull_of(node, wire::PullRequest{NodeId{5}, {}});
  EXPECT_EQ(reply.view.size(), 20u);
  for (NodeId id : reply.view) EXPECT_FALSE(coord->is_member(id));
}

TEST(Strategies, EclipseCapsPerVictimPushesAndSpendsTheRest) {
  AttackSpec spec = AttackSpec::eclipse();
  spec.push_cap_fraction = 0.25;  // cap = 2 of budget 8
  auto coord = make_coordinator(spec, basic_attack());
  coord->begin_round(0);
  std::map<std::uint32_t, int> hits;
  std::size_t total = 0;
  for (NodeId m : ids(100, 5)) {
    for (NodeId t : coord->push_slice(m)) {
      ++hits[t.value];
      ++total;
    }
  }
  // Focused pushes: victims 0 and 1 get cap = 2 each; the rest of the
  // 5 x 8 budget is spent as balanced background over all correct nodes.
  EXPECT_EQ(total, 40u);
  EXPECT_GE(hits[0], 2);
  EXPECT_GE(hits[1], 2);
  std::size_t outside = 0;
  std::set<std::uint32_t> outside_nodes;
  for (const auto& [id, count] : hits) {
    if (id >= 2) {
      outside += static_cast<std::size_t>(count);
      outside_nodes.insert(id);
    }
  }
  // 36 background pushes round-robin over all 20 correct nodes (the two
  // focused victims also appear in the background rotation).
  EXPECT_GE(outside, 30u);
  EXPECT_EQ(outside_nodes.size(), 18u);
}

TEST(Strategies, BogusSwapAlwaysAttachesOffers) {
  auto coord = make_coordinator(AttackSpec::bogus_swap(), basic_attack());
  ByzantineNode node(NodeId{100}, coord, 1);
  node.begin_round(0);
  const auto confirm = process_pull_reply_of(node, wire::PullReply{NodeId{5}, {}, {}});
  ASSERT_TRUE(confirm.swap_offer.has_value());
  for (NodeId id : *confirm.swap_offer) EXPECT_TRUE(coord->is_member(id));
}

}  // namespace
}  // namespace raptee::adversary
