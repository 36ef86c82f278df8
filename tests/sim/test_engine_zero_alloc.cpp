// Zero-allocation steady state of Engine::step (the "default scenario"
// gate): once the round staging and phase scratch vectors, the event heap
// and the SoA view slab have warmed their capacity, a full round — begin_round,
// push fan-out, pull exchanges, end_round, listener dispatch — performs no
// heap allocation at all, in round mode and in event mode. Verified by
// counting every global operator new in this binary across a measured
// window, the same harness as wire_test_wire_zero_alloc.
//
// The gate runs at width 1 (EngineConfig::threads == 1, the default): the
// same sharded phases as every width, on a pool of one that runs them
// inline. Wider pools are exempt by design: exec::ThreadPool's parallel_for
// allocates its job state per call once it has workers. Node-side protocol
// messages (PullReply views) allocate regardless of the engine, so nodes
// here are deliberately lean — fixed inline views, empty reply payloads —
// and the counter isolates the engine's own round machinery.
//
// The counting overrides forward to std::malloc/std::free, which keeps the
// sanitizer jobs honest: ASan still intercepts the underlying malloc, so
// leaks and overflows on this path stay visible.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "evt/latency.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "sim/traffic.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

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

/// Reads every view through the SoA slab each round — exercising
/// refresh_views + view_of inside the measured window — without touching
/// the heap.
class SlabScanListener final : public ITrafficListener {
 public:
  void on_round_end(Round, Engine& engine) override {
    for (std::uint32_t i = 0; i < engine.size(); ++i) {
      for (NodeId entry : engine.view_of(NodeId{i})) checksum += entry.value;
    }
  }
  std::uint64_t checksum = 0;
};

Engine make_engine(EngineConfig config = {}) {  // threads == 1 by default
  Engine engine(config);
  for (std::uint32_t i = 0; i < kPopulation; ++i) {
    engine.add_node(std::make_unique<LeanNode>(NodeId{i}), NodeKind::kHonest);
  }
  return engine;
}

TEST(EngineZeroAlloc, StepIsAllocationFreeInSteadyState) {
  Engine engine = make_engine();

  // Warm-up: grows the round staging, the alive/target scratches and the
  // message codec buffers to their steady-state capacity.
  for (int i = 0; i < 3; ++i) engine.step();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 50; ++i) engine.step();
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u) << "steady-state Engine::step must not touch the heap";
  EXPECT_EQ(engine.counters().pushes_delivered,
            53u * kPopulation * kViewSize);  // the rounds really ran
}

TEST(EngineZeroAlloc, StepWithListenerAndViewSlabIsAllocationFree) {
  Engine engine = make_engine();
  SlabScanListener listener;
  engine.add_listener(&listener);

  // Warm-up additionally sizes the view slab (refresh_views only runs when
  // listeners are registered).
  for (int i = 0; i < 3; ++i) engine.step();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 50; ++i) engine.step();
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "refresh_views + view_of listener reads must stay off the heap";
  EXPECT_GT(listener.checksum, 0u);
}

TEST(EngineZeroAlloc, EventStepIsAllocationFreeInSteadyState) {
  EngineConfig config;
  config.event.enabled = true;
  config.event.latency = evt::LatencySpec::named("wan");
  Engine engine = make_engine(config);

  // Warm-up additionally grows the event heap to its per-round depth.
  for (int i = 0; i < 3; ++i) engine.step();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 50; ++i) engine.step();
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u) << "steady-state event-mode Engine::step must not touch the heap";
  EXPECT_GT(engine.counters().pushes_delivered, 0u);  // the rounds really ran
  EXPECT_EQ(engine.virtual_now_us(), 53u * config.event.round_interval_us);
}

TEST(EngineZeroAlloc, CountersSeeOrdinaryAllocations) {
  // Sanity-check the instrument itself: a fresh vector growth must count.
  const std::uint64_t before = g_allocations.load();
  std::vector<std::uint8_t>* v = new std::vector<std::uint8_t>(1024);
  delete v;
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace raptee::sim
