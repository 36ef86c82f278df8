// Zero-allocation steady state of the metrics hot paths (the companion to
// sim_test_engine_zero_alloc): once metrics are registered and a reused
// Snapshot has warmed its buffer capacity, counter adds, gauge sets,
// histogram records and Registry::snapshot_into perform no heap allocation.
// This is the property that lets the Engine's per-round publish and a
// scraping MonitorServer ride inside the hot loop without perturbing the
// allocator (and thus the engine's own zero-alloc gate).
//
// Same harness as the engine test (tests/support/count_allocations.hpp):
// every global operator new in this binary is counted across a measured
// window.
#include <gtest/gtest.h>

#include "obs/registry.hpp"
#include "support/count_allocations.hpp"

namespace raptee::obs {
namespace {

TEST(ObsZeroAlloc, IncrementsAreAllocationFree) {
  Registry reg;
  Counter& counter = reg.counter("hot.counter");
  Gauge& gauge = reg.gauge("hot.gauge");
  Histogram& hist = reg.histogram("hot.hist");

  const std::uint64_t before = test::g_allocations.load();
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    counter.add(1);
    gauge.set(static_cast<double>(i));
    hist.record(i % 10'000);
  }
  EXPECT_EQ(test::g_allocations.load() - before, 0u)
      << "metric mutation must never touch the heap";
  EXPECT_EQ(counter.value(), 100'000u);
  EXPECT_EQ(hist.count(), 100'000u);
}

TEST(ObsZeroAlloc, SnapshotIntoIsAmortizedAllocationFree) {
  Registry reg;
  // A realistic registry shape: the counters/histograms the engine and bus
  // actually register, so the warmed buffers match production capacity.
  for (const char* name : {"engine.pushes_sent", "engine.pulls_completed",
                           "engine.rounds", "bus.frames_sent", "bus.frames_received",
                           "service.requests_served"}) {
    reg.counter(name).add(1);
  }
  for (const char* name :
       {"engine.phase.begin_round_us", "engine.phase.pulls_us", "bus.flush_us"}) {
    reg.histogram(name).record(100);
  }
  reg.gauge("scenario.pollution").set(0.1);

  Snapshot snap;
  // Warm-up: first fill grows every buffer to steady-state capacity.
  reg.snapshot_into(snap);

  const std::uint64_t before = test::g_allocations.load();
  for (int i = 0; i < 1'000; ++i) {
    reg.counter("engine.rounds").add(1);
    reg.histogram("bus.flush_us").record(static_cast<std::uint64_t>(i));
    reg.snapshot_into(snap);
  }
  EXPECT_EQ(test::g_allocations.load() - before, 0u)
      << "steady-state snapshot_into must reuse the caller's buffers";
  EXPECT_EQ(snap.counters.size(), 6u);
  EXPECT_EQ(snap.histograms.size(), 3u);
}

TEST(ObsZeroAlloc, CounterSeesOrdinaryAllocations) {
  // Sanity-check the instrument itself.
  const std::uint64_t before = test::g_allocations.load();
  auto* v = new std::uint8_t[1024];
  delete[] v;
  EXPECT_GT(test::g_allocations.load(), before);
}

}  // namespace
}  // namespace raptee::obs
