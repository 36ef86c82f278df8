// Zero-allocation steady state of Engine::step (the "default scenario"
// gate): once the round staging and phase scratch vectors, the event heap
// and the SoA view slab have warmed their capacity, a full round — begin_round,
// push fan-out, pull exchanges, end_round — performs no heap allocation at
// all, in round mode and in event mode, and neither does the slab refresh
// plus view_of scan every experiment round runs after it. Verified by
// counting every global operator new in this binary across a measured
// window (tests/support/count_allocations.hpp, shared with
// wire_test_wire_zero_alloc and obs_test_obs_zero_alloc).
//
// Every step gate runs at width 1 (EngineConfig::threads == 1, the default:
// the same sharded phases as every width, on a pool of one that runs them
// inline) and at width 4, where every sharded phase is one
// exec::ThreadPool::parallel_for across three workers and the caller: the
// pool allocates nothing per loop, and a phase body whose captures outgrew
// std::function's inline buffer would show here.
//
// Two populations. LeanNode — fixed inline views, empty reply payloads —
// isolates the engine's own round machinery, in round and in event mode:
// the wave schedule, the lanes and one parallel_for per wave included.
// The protocol population gates the real nodes in round mode:
// KeyedAuthenticator BrahmsNodes and enclave-backed RapteeNodes whose
// mutual authentication runs trusted swaps, with sampler validation on,
// and the adversary — ByzantineNodes of a balanced Coordinator that
// attaches a bogus swap offer to every confirm and keeps an identification
// ledger. Their legs write into the lanes' leg messages, their pulled IDs
// go to a per-node slab, end_round works in the scratch the engine lends
// each block of nodes, the Byzantine legs draw on streams positioned while
// the round is planned, and the ledger is one slot per node, so once warm a
// protocol round allocates nothing either.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/identification.hpp"
#include "adversary/strategy.hpp"
#include "core/node_factory.hpp"
#include "evt/latency.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "support/count_allocations.hpp"

namespace raptee::sim {
namespace {

constexpr std::size_t kPopulation = 16;
constexpr std::size_t kViewSize = 4;
constexpr std::uint32_t kProtocolPopulation = 28;
constexpr std::uint32_t kTrustedNodes = 4;
constexpr std::uint32_t kByzantineNodes = 4;  // the highest IDs

/// Allocation-free INode: fixed inline ring view, deterministic push/pull
/// fan-out, empty exchange payloads. The target calls fill the engine's
/// scratch and the slab copy writes in place, so nothing here touches the
/// heap.
class LeanNode final : public INode {
 public:
  explicit LeanNode(NodeId id) : id_(id) {
    for (std::size_t i = 0; i < kViewSize; ++i) {
      view_[i] = NodeId{static_cast<std::uint32_t>((id.value + 1 + i) % kPopulation)};
    }
  }

  [[nodiscard]] NodeId id() const override { return id_; }
  void bootstrap(const std::vector<NodeId>&) override {}
  void begin_round(Round) override {}

  void push_targets(std::vector<NodeId>& out) override {
    out.clear();
    for (NodeId target : view_) out.push_back(target);
  }
  [[nodiscard]] wire::PushMessage make_push() override { return wire::PushMessage{id_}; }
  void on_push(const wire::PushMessage&) override {}

  void pull_targets(std::vector<NodeId>& out) override {
    out.clear();
    out.push_back(view_[0]);
  }
  void open_pull(NodeId, wire::PullRequest& out) override { out.sender = id_; }
  void answer_pull(const wire::PullRequest&, wire::PullReply& out) override {
    out.sender = id_;
    out.view.clear();
  }
  void process_pull_reply(const wire::PullReply&, wire::AuthConfirm& out) override {
    out.sender = id_;
    out.swap_offer.reset();  // never trusted: no swap offer, exchange ends at leg 3
  }
  [[nodiscard]] bool process_confirm(const wire::AuthConfirm&, wire::SwapReply&) override {
    return false;
  }
  void process_swap_reply(const wire::SwapReply&) override {}
  void end_round(Round, RoundScratch&) override {}

  [[nodiscard]] std::size_t view_capacity() const override { return kViewSize; }
  std::size_t copy_view(NodeId* out, std::size_t cap) const override {
    const std::size_t n = kViewSize < cap ? kViewSize : cap;
    for (std::size_t i = 0; i < n; ++i) out[i] = view_[i];
    return n;
  }

 private:
  NodeId id_;
  std::array<NodeId, kViewSize> view_;
};

Engine make_engine(EngineConfig config = {}) {  // threads == 1 by default
  Engine engine(config);
  for (std::uint32_t i = 0; i < kPopulation; ++i) {
    engine.add_node(std::make_unique<LeanNode>(NodeId{i}), NodeKind::kHonest);
  }
  return engine;
}

TEST(EngineZeroAlloc, StepIsAllocationFreeInSteadyState) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    EngineConfig config;
    config.threads = width;
    Engine engine = make_engine(config);

    // Warm-up: grows the round staging, the alive/target scratches and the
    // message codec buffers to their steady-state capacity, and starts the
    // pool's workers.
    for (int i = 0; i < 3; ++i) engine.step();

    const std::uint64_t before = test::g_allocations.load();
    for (int i = 0; i < 50; ++i) engine.step();
    const std::uint64_t during = test::g_allocations.load() - before;

    EXPECT_EQ(during, 0u) << "steady-state Engine::step at width " << width
                          << " must not touch the heap";
    EXPECT_EQ(engine.counters().pushes_delivered,
              53u * kPopulation * kViewSize);  // the rounds really ran
  }
}

TEST(EngineZeroAlloc, StepAndViewSlabReadsAreAllocationFree) {
  Engine engine = make_engine();
  // One experiment round: step, refresh the slab once, then read every
  // view through view_of, as the trackers do.
  std::uint64_t checksum = 0;
  const auto round = [&] {
    engine.step();
    engine.refresh_views();
    for (std::uint32_t i = 0; i < engine.size(); ++i) {
      for (NodeId entry : engine.view_of(NodeId{i})) checksum += entry.value;
    }
  };

  // Warm-up additionally sizes the view slab.
  for (int i = 0; i < 3; ++i) round();

  const std::uint64_t before = test::g_allocations.load();
  for (int i = 0; i < 50; ++i) round();
  const std::uint64_t during = test::g_allocations.load() - before;

  EXPECT_EQ(during, 0u) << "step + refresh_views + view_of reads must stay off the heap";
  EXPECT_GT(checksum, 0u);
}

TEST(EngineZeroAlloc, EventStepIsAllocationFreeInSteadyState) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    EngineConfig config;
    config.threads = width;
    config.event.enabled = true;
    config.event.latency = evt::LatencySpec::named("wan");
    Engine engine = make_engine(config);

    // Warm-up additionally grows the event heap to its per-round depth.
    for (int i = 0; i < 3; ++i) engine.step();

    const std::uint64_t before = test::g_allocations.load();
    for (int i = 0; i < 50; ++i) engine.step();
    const std::uint64_t during = test::g_allocations.load() - before;

    EXPECT_EQ(during, 0u) << "steady-state event-mode Engine::step at width " << width
                          << " must not touch the heap";
    EXPECT_GT(engine.counters().pushes_delivered, 0u);  // the rounds really ran
    EXPECT_EQ(engine.virtual_now_us(), 53u * config.event.round_interval_us);
  }
}

bool is_byzantine_id(NodeId id) { return id.value >= kProtocolPopulation - kByzantineNodes; }

/// A round-mode population of real protocol nodes: KeyedAuthenticator
/// BrahmsNodes and enclave-backed RapteeNodes, whose mutual authentication
/// runs trusted swaps, with sampler validation on, and ByzantineNodes of a
/// balanced Coordinator that attaches bogus swap offers and records every
/// pull reply into `ledger`.
Engine make_protocol_engine(std::size_t width, adversary::IdentificationAttack& ledger) {
  EngineConfig config;
  config.seed = 7;
  config.threads = width;
  Engine engine(config);
  core::NodeFactory factory(7, brahms::AuthMode::kFingerprint);
  brahms::BrahmsConfig brahms;
  brahms.params.l1 = 8;
  brahms.params.l2 = 8;
  brahms.sampler_validation_period = 5;
  core::RapteeConfig raptee;
  raptee.brahms = brahms;

  std::vector<NodeId> members, victims;
  for (std::uint32_t i = 0; i < kProtocolPopulation; ++i) {
    (is_byzantine_id(NodeId{i}) ? members : victims).push_back(NodeId{i});
  }
  adversary::AttackConfig attack;
  attack.push_budget_per_member = brahms.params.push_slice();
  attack.pull_fanout = brahms.params.pull_slice();
  attack.advertised_view_size = brahms.params.l1;
  attack.attach_bogus_swap_offer = true;
  auto coordinator = std::make_shared<adversary::Coordinator>(
      members, victims, attack, 7, adversary::make_strategy(adversary::AttackSpec::balanced()),
      &ledger);

  for (std::uint32_t i = 0; i < kProtocolPopulation; ++i) {
    const NodeId id{i};
    if (is_byzantine_id(id)) {
      engine.add_node(std::make_unique<adversary::ByzantineNode>(id, coordinator, 7),
                      NodeKind::kByzantine);
    } else if (i < kTrustedNodes) {
      engine.add_node(factory.make_trusted(id, raptee, engine.aliveness_probe()),
                      NodeKind::kTrusted);
    } else {
      engine.add_node(factory.make_honest(id, brahms, engine.aliveness_probe()),
                      NodeKind::kHonest);
    }
  }
  engine.bootstrap_uniform(brahms.params.l1);
  return engine;
}

TEST(EngineZeroAlloc, ProtocolRoundIsAllocationFreeInSteadyState) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    adversary::IdentificationAttack ledger(kProtocolPopulation, is_byzantine_id,
                                           [](NodeId id) { return id.value < kTrustedNodes; });
    Engine engine = make_protocol_engine(width, ledger);

    // Warm-up: besides the engine's own scratch, grows every node's
    // pulled-ID list and push buffer, the trusted nodes' swap buffers, the
    // Coordinator's positioned streams, the Byzantine nodes' sampling
    // scratch and each end_round block's workspace to their steady-state
    // capacity. A trusted node's pulled-ID list grows in power-of-two steps
    // to its busiest swap round, which this population first reaches after
    // 25 rounds; past 50 rounds, 2,000 more read no allocation at either
    // width.
    for (int i = 0; i < 50; ++i) engine.step();
    const Engine::Counters warm = engine.counters();
    // Honest views hold Byzantine IDs, so honest pulls reach Byzantine
    // responders, whose answers draw on positioned Coordinator streams.
    engine.refresh_views();
    std::size_t byzantine_entries = 0;
    for (std::uint32_t i = 0; i < kProtocolPopulation; ++i) {
      for (const NodeId entry : engine.view_of(NodeId{i})) {
        byzantine_entries += is_byzantine_id(entry) ? 1 : 0;
      }
    }
    EXPECT_GT(byzantine_entries, 0u);

    const std::uint64_t before = test::g_allocations.load();
    for (int i = 0; i < 50; ++i) engine.step();
    const std::uint64_t during = test::g_allocations.load() - before;

    EXPECT_EQ(during, 0u) << "steady-state protocol round at width " << width
                          << " must not touch the heap";
    // The rounds really ran, trusted swaps and the adversary's harvest
    // included.
    EXPECT_GT(engine.counters().pulls_completed, warm.pulls_completed);
    EXPECT_GT(engine.counters().swaps_completed, warm.swaps_completed);
    EXPECT_GT(ledger.observed_victims(), 0u);
  }
}

TEST(EngineZeroAlloc, CountersSeeOrdinaryAllocations) {
  // Sanity-check the instrument itself: a fresh vector growth must count.
  const std::uint64_t before = test::g_allocations.load();
  std::vector<std::uint8_t>* v = new std::vector<std::uint8_t>(1024);
  delete v;
  EXPECT_GT(test::g_allocations.load(), before);
}

}  // namespace
}  // namespace raptee::sim
