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
// Both step gates run at width 1 (EngineConfig::threads == 1, the default:
// the same sharded phases as every width, on a pool of one that runs them
// inline) and at width 4, where every sharded phase is one
// exec::ThreadPool::parallel_for across three workers and the caller: the
// pool allocates nothing per loop, and a phase body whose captures outgrew
// std::function's inline buffer would show here.
// Node-side protocol messages (PullReply views) allocate regardless of the
// engine, so nodes here are deliberately lean — fixed inline views, empty
// reply payloads — and the counter isolates the engine's own round
// machinery.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "evt/latency.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "support/count_allocations.hpp"

namespace raptee::sim {
namespace {

constexpr std::size_t kPopulation = 16;
constexpr std::size_t kViewSize = 4;

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
  [[nodiscard]] wire::PullRequest open_pull(NodeId) override {
    return wire::PullRequest{id_, {}};
  }
  [[nodiscard]] wire::PullReply answer_pull(const wire::PullRequest&) override {
    return wire::PullReply{id_, {}, {}};
  }
  [[nodiscard]] wire::AuthConfirm process_pull_reply(const wire::PullReply&) override {
    wire::AuthConfirm confirm;
    confirm.sender = id_;
    return confirm;  // never trusted: no swap offer, exchange ends at leg 3
  }
  [[nodiscard]] std::optional<wire::SwapReply> process_confirm(
      const wire::AuthConfirm&) override {
    return std::nullopt;
  }
  void process_swap_reply(const wire::SwapReply&) override {}
  void end_round(Round) override {}

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

TEST(EngineZeroAlloc, CountersSeeOrdinaryAllocations) {
  // Sanity-check the instrument itself: a fresh vector growth must count.
  const std::uint64_t before = test::g_allocations.load();
  std::vector<std::uint8_t>* v = new std::vector<std::uint8_t>(1024);
  delete v;
  EXPECT_GT(test::g_allocations.load(), before);
}

}  // namespace
}  // namespace raptee::sim
