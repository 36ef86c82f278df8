// BrahmsNode protocol mechanics, driven directly through the INode surface.
#include "brahms/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "support/count_allocations.hpp"
#include "support/targets.hpp"

namespace raptee::brahms {
namespace {

using test::answer_pull_of;
using test::open_pull_of;
using test::process_confirm_of;
using test::process_pull_reply_of;
using test::pull_targets_of;
using test::push_targets_of;

BrahmsConfig small_config(std::size_t l1 = 20) {
  BrahmsConfig config;
  config.params.l1 = l1;
  config.params.l2 = l1;
  return config;
}

std::unique_ptr<BrahmsNode> make_node(NodeId id, BrahmsConfig config = small_config(),
                                      std::uint64_t seed = 1) {
  crypto::Drbg kg(seed);
  auto auth = std::make_unique<KeyedAuthenticator>(AuthMode::kFingerprint,
                                                   kg.generate_key(), kg.fork("a"));
  return std::make_unique<BrahmsNode>(id, config, std::move(auth), Rng(seed));
}

std::vector<NodeId> id_range(std::uint32_t from, std::uint32_t count) {
  std::vector<NodeId> out;
  for (std::uint32_t i = 0; i < count; ++i) out.emplace_back(from + i);
  return out;
}

/// end_round's working memory, lent as the engine lends it.
sim::RoundScratch scratch;

/// Drives one complete pull exchange initiator->responder (no engine).
void run_pull(BrahmsNode& initiator, BrahmsNode& responder) {
  const auto request = open_pull_of(initiator, responder.id());
  const auto reply = answer_pull_of(responder, request);
  const auto confirm = process_pull_reply_of(initiator, reply);
  (void)process_confirm_of(responder, confirm);
}

TEST(BrahmsNode, RequiresAuthenticator) {
  EXPECT_THROW(BrahmsNode(NodeId{0}, small_config(), nullptr, Rng(1)),
               std::invalid_argument);
}

TEST(BrahmsNode, ValidatesParams) {
  BrahmsConfig bad = small_config();
  bad.params.alpha = 0.9;  // alpha+beta+gamma != 1
  crypto::Drbg kg(1);
  auto auth = std::make_unique<KeyedAuthenticator>(AuthMode::kFingerprint,
                                                   kg.generate_key(), kg.fork("x"));
  EXPECT_THROW(BrahmsNode(NodeId{0}, bad, std::move(auth), Rng(1)),
               std::invalid_argument);
}

TEST(BrahmsNode, BootstrapDedupsAndExcludesSelf) {
  auto node = make_node(NodeId{5});
  node->bootstrap({NodeId{1}, NodeId{1}, NodeId{5}, NodeId{2}});
  const auto view = node->view().ids();
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(std::count(view.begin(), view.end(), NodeId{5}), 0);
}

TEST(BrahmsNode, BootstrapTruncatesToViewSize) {
  auto node = make_node(NodeId{0}, small_config(8));
  node->bootstrap(id_range(1, 50));
  EXPECT_EQ(node->view().size(), 8u);
}

TEST(BrahmsNode, BootstrapPrimesSamplers) {
  auto node = make_node(NodeId{0});
  node->bootstrap({NodeId{1}, NodeId{2}});
  EXPECT_FALSE(node->sample_list().empty());
}

TEST(BrahmsNode, FanoutsMatchAlphaBetaSlices) {
  auto node = make_node(NodeId{0});  // l1=20: push 8, pull 8, history 4
  node->bootstrap(id_range(1, 20));
  node->begin_round(0);
  const auto pushes = push_targets_of(*node);
  const auto pulls = pull_targets_of(*node);
  EXPECT_EQ(pushes.size(), 8u);
  EXPECT_EQ(pulls.size(), 8u);
  const auto view = node->view().ids();
  for (NodeId t : pushes) {
    EXPECT_NE(std::find(view.begin(), view.end(), t), view.end());
  }
}

TEST(BrahmsNode, EmptyViewReplacesStaleTargetsWithNone) {
  auto node = make_node(NodeId{0});
  node->begin_round(0);
  std::vector<NodeId> targets{NodeId{3}, NodeId{4}};  // stale entries
  node->push_targets(targets);
  EXPECT_TRUE(targets.empty());
  targets = {NodeId{3}, NodeId{4}};
  node->pull_targets(targets);
  EXPECT_TRUE(targets.empty());
}

TEST(BrahmsNode, PushCarriesOwnId) {
  auto node = make_node(NodeId{7});
  EXPECT_EQ(node->make_push().sender, NodeId{7});
}

TEST(BrahmsNode, PullAnswerIsFullView) {
  auto node = make_node(NodeId{0});
  node->bootstrap(id_range(1, 10));
  node->begin_round(0);
  const auto reply = answer_pull_of(*node, wire::PullRequest{NodeId{99}, {}});
  EXPECT_EQ(reply.sender, NodeId{0});
  EXPECT_EQ(reply.view, node->view().ids());
}

TEST(BrahmsNode, ViewRenewalDrawsFromAllThreeSources) {
  auto a = make_node(NodeId{0}, small_config(20), 1);
  auto b = make_node(NodeId{100}, small_config(20), 2);
  a->bootstrap(id_range(1, 20));
  b->bootstrap(id_range(40, 20));
  a->begin_round(0);
  b->begin_round(0);

  // Pushes advertise ids 200.. (fresh, never seen otherwise).
  for (std::uint32_t i = 0; i < 4; ++i) a->on_push(wire::PushMessage{NodeId{200 + i}});
  // One pull from b: brings 40..59.
  run_pull(*a, *b);
  a->end_round(0, scratch);

  const auto view = a->view().ids();
  EXPECT_EQ(view.size(), 20u);
  const auto has_in = [&view](std::uint32_t lo, std::uint32_t hi) {
    return std::any_of(view.begin(), view.end(), [lo, hi](NodeId id) {
      return id.value >= lo && id.value < hi;
    });
  };
  EXPECT_TRUE(has_in(200, 204));  // pushed ids
  EXPECT_TRUE(has_in(40, 60));    // pulled ids
  EXPECT_TRUE(has_in(1, 21));     // history (samplers primed from bootstrap)
}

TEST(BrahmsNode, FloodBlocksViewUpdate) {
  auto a = make_node(NodeId{0}, small_config(20), 1);
  auto b = make_node(NodeId{100}, small_config(20), 2);
  a->bootstrap(id_range(1, 20));
  b->bootstrap(id_range(40, 20));
  const auto before = a->view().ids();

  a->begin_round(0);
  b->begin_round(0);
  // push_slice = 8; 9 pushes exceed it -> defence (ii) blocks the update.
  for (std::uint32_t i = 0; i < 9; ++i) a->on_push(wire::PushMessage{NodeId{200 + i}});
  run_pull(*a, *b);
  a->end_round(0, scratch);

  EXPECT_TRUE(a->telemetry().update_blocked);
  // Ages aside, membership is unchanged.
  auto after = a->view().ids();
  std::sort(after.begin(), after.end());
  auto sorted_before = before;
  std::sort(sorted_before.begin(), sorted_before.end());
  EXPECT_EQ(after, sorted_before);
}

TEST(BrahmsNode, NoPushesBlocksViewUpdate) {
  auto a = make_node(NodeId{0}, small_config(20), 1);
  auto b = make_node(NodeId{100}, small_config(20), 2);
  a->bootstrap(id_range(1, 20));
  b->bootstrap(id_range(40, 20));
  a->begin_round(0);
  b->begin_round(0);
  run_pull(*a, *b);  // pulls but no pushes
  a->end_round(0, scratch);
  EXPECT_TRUE(a->telemetry().update_blocked);
}

TEST(BrahmsNode, NoPullsBlocksViewUpdate) {
  auto a = make_node(NodeId{0}, small_config(20), 1);
  a->bootstrap(id_range(1, 20));
  a->begin_round(0);
  a->on_push(wire::PushMessage{NodeId{200}});
  a->end_round(0, scratch);
  EXPECT_TRUE(a->telemetry().update_blocked);
}

TEST(BrahmsNode, ExactSliceLimitIsNotFlood) {
  auto a = make_node(NodeId{0}, small_config(20), 1);
  auto b = make_node(NodeId{100}, small_config(20), 2);
  a->bootstrap(id_range(1, 20));
  b->bootstrap(id_range(40, 20));
  a->begin_round(0);
  b->begin_round(0);
  for (std::uint32_t i = 0; i < 8; ++i) a->on_push(wire::PushMessage{NodeId{200 + i}});
  run_pull(*a, *b);
  a->end_round(0, scratch);
  EXPECT_FALSE(a->telemetry().update_blocked);
}

TEST(BrahmsNode, SelfNeverEntersView) {
  auto a = make_node(NodeId{0}, small_config(20), 1);
  auto b = make_node(NodeId{100}, small_config(20), 2);
  a->bootstrap(id_range(1, 20));
  std::vector<NodeId> poisoned = id_range(40, 19);
  poisoned.push_back(NodeId{0});  // b's view contains a's own id
  b->bootstrap(poisoned);
  for (Round r = 0; r < 5; ++r) {
    a->begin_round(r);
    b->begin_round(r);
    a->on_push(wire::PushMessage{NodeId{0}});  // adversarial echo of own id
    a->on_push(wire::PushMessage{NodeId{210}});
    run_pull(*a, *b);
    a->end_round(r, scratch);
  }
  const auto view = a->view().ids();
  EXPECT_EQ(std::count(view.begin(), view.end(), NodeId{0}), 0);
}

TEST(BrahmsNode, RenewalSamplesStreamWithMultiplicity) {
  // A stream where one id has multiplicity 50 out of 100 entries should
  // claim roughly half the pulled slice, even though it is 1 of 51
  // *distinct* ids — the over-representation Brahms quantifies.
  int hits = 0, trials = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    auto a = make_node(NodeId{0}, small_config(20), seed * 2 + 1);
    auto b = make_node(NodeId{100}, small_config(20), seed * 2 + 2);
    a->bootstrap(id_range(1, 20));
    // b's view: 10 copies is impossible (views dedup), so emulate the
    // multiplicity through five pulls of an identical adversarial view.
    b->bootstrap({NodeId{300}});
    a->begin_round(0);
    b->begin_round(0);
    a->on_push(wire::PushMessage{NodeId{200}});
    for (int pull = 0; pull < 5; ++pull) run_pull(*a, *b);
    a->end_round(0, scratch);
    const auto view = a->view().ids();
    hits += std::count(view.begin(), view.end(), NodeId{300});
    ++trials;
  }
  // id 300 is the entire pulled stream: it must be present nearly always.
  EXPECT_GT(hits, trials * 9 / 10);
}

TEST(BrahmsNode, TelemetryCountsRoundActivity) {
  auto a = make_node(NodeId{0}, small_config(20), 1);
  auto b = make_node(NodeId{100}, small_config(20), 2);
  a->bootstrap(id_range(1, 20));
  b->bootstrap(id_range(40, 20));
  a->begin_round(0);
  b->begin_round(0);
  a->on_push(wire::PushMessage{NodeId{200}});
  run_pull(*a, *b);
  run_pull(*b, *a);
  a->end_round(0, scratch);
  EXPECT_EQ(a->telemetry().pushes_received, 1u);
  EXPECT_EQ(a->telemetry().pulls_completed, 1u);
  EXPECT_EQ(a->telemetry().pulls_answered, 1u);
  EXPECT_EQ(a->telemetry().pulled_ids_total, 20u);
  EXPECT_EQ(a->telemetry().trusted_exchanges, 0u);
}

TEST(BrahmsNode, PullTimeoutLeavesViewIntact) {
  auto a = make_node(NodeId{0}, small_config(20), 1);
  a->bootstrap(id_range(1, 20));
  a->begin_round(0);
  (void)open_pull_of(*a, NodeId{3});
  a->on_pull_timeout(NodeId{3});
  EXPECT_TRUE(a->view().contains(NodeId{3}));
  // A fresh exchange can start afterwards (slot was released).
  (void)open_pull_of(*a, NodeId{4});
}

TEST(BrahmsNode, SamplerValidationEvictsDeadUnderChurn) {
  BrahmsConfig config = small_config(20);
  config.sampler_validation_period = 1;
  crypto::Drbg kg(1);
  auto auth = std::make_unique<KeyedAuthenticator>(AuthMode::kFingerprint,
                                                   kg.generate_key(), kg.fork("a"));
  // Aliveness probe: ids >= 10 are dead.
  BrahmsNode node(NodeId{0}, config, std::move(auth), Rng(3),
                  [](NodeId id) { return id.value < 10; });
  node.bootstrap(id_range(1, 19));
  node.begin_round(1);
  node.end_round(1, scratch);
  for (NodeId id : node.sample_list()) EXPECT_LT(id.value, 10u);
}

/// Calls the lookahead hint on `node` and returns the allocations it made.
std::uint64_t prefetch_allocations(const BrahmsNode& node) {
  const std::uint64_t before = test::g_allocations.load();
  node.prefetch();
  return test::g_allocations.load() - before;
}

TEST(BrahmsNode, PrefetchChangesNothing) {
  // Two twin pairs built from the same seeds run the same exchanges; the
  // hinted pair calls prefetch() before bootstrap (an empty view), after
  // begin_round and between every leg. Every leg, view, telemetry record
  // and sample list must match the plain pair's.
  auto a = make_node(NodeId{0}, small_config(20), 1);
  auto b = make_node(NodeId{100}, small_config(20), 2);
  auto hinted_a = make_node(NodeId{0}, small_config(20), 1);
  auto hinted_b = make_node(NodeId{100}, small_config(20), 2);
  std::uint64_t allocations = prefetch_allocations(*hinted_a) + prefetch_allocations(*hinted_b);
  a->bootstrap(id_range(1, 20));
  b->bootstrap(id_range(40, 20));
  hinted_a->bootstrap(id_range(1, 20));
  hinted_b->bootstrap(id_range(40, 20));

  const auto hint_both = [&] {
    allocations += prefetch_allocations(*hinted_a) + prefetch_allocations(*hinted_b);
  };
  // One exchange initiator -> responder on each pair, leg by leg.
  const auto exchange = [&](BrahmsNode& initiator, BrahmsNode& responder,
                            BrahmsNode& hinted_initiator, BrahmsNode& hinted_responder) {
    const auto request = open_pull_of(initiator, responder.id());
    hint_both();
    const auto hinted_request = open_pull_of(hinted_initiator, hinted_responder.id());
    EXPECT_EQ(request, hinted_request);
    const auto reply = answer_pull_of(responder, request);
    hint_both();
    const auto hinted_reply = answer_pull_of(hinted_responder, hinted_request);
    EXPECT_EQ(reply, hinted_reply);
    const auto confirm = process_pull_reply_of(initiator, reply);
    hint_both();
    const auto hinted_confirm = process_pull_reply_of(hinted_initiator, hinted_reply);
    EXPECT_EQ(confirm, hinted_confirm);
    const auto swap = process_confirm_of(responder, confirm);
    hint_both();
    EXPECT_EQ(swap, process_confirm_of(hinted_responder, hinted_confirm));
    hint_both();
  };

  for (Round r = 0; r < 4; ++r) {
    for (BrahmsNode* node : {a.get(), b.get(), hinted_a.get(), hinted_b.get()}) {
      node->begin_round(r);
    }
    hint_both();
    for (std::uint32_t i = 0; i < 3; ++i) {
      a->on_push(wire::PushMessage{NodeId{200 + 10 * r + i}});
      hinted_a->on_push(wire::PushMessage{NodeId{200 + 10 * r + i}});
    }
    // Thirteen pulls of 20 IDs fill a's slab past its reserve of 8 · 20,
    // so the hint meets a full slab and, once it has grown to 256, a
    // window clipped at its capacity.
    for (int pull = 0; pull < 13; ++pull) exchange(*a, *b, *hinted_a, *hinted_b);
    exchange(*b, *a, *hinted_b, *hinted_a);
    a->end_round(r, scratch);
    b->end_round(r, scratch);
    hinted_a->end_round(r, scratch);
    hinted_b->end_round(r, scratch);
    hint_both();
    EXPECT_EQ(a->view().entries(), hinted_a->view().entries()) << "round " << r;
    EXPECT_EQ(b->view().entries(), hinted_b->view().entries()) << "round " << r;
    EXPECT_EQ(a->telemetry(), hinted_a->telemetry()) << "round " << r;
    EXPECT_EQ(b->telemetry(), hinted_b->telemetry()) << "round " << r;
    EXPECT_EQ(a->sample_list(), hinted_a->sample_list()) << "round " << r;
    EXPECT_EQ(b->sample_list(), hinted_b->sample_list()) << "round " << r;
  }
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace raptee::brahms
