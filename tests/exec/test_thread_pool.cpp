// exec::ThreadPool / parallel_map contract: every index runs exactly once,
// results land in order, a loop issued while the pool is busy (nested, or
// from a second thread) runs inline on its caller, exceptions propagate,
// and the 1-thread pool is fully inline — the properties the deterministic
// scenario fan-out is built on.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"

namespace raptee::exec {
namespace {

TEST(ThreadPool, HardwareThreadsIsPositive) { EXPECT_GE(hardware_threads(), 1u); }

TEST(ThreadPool, ResolveThreadsFollowsTheKnobConvention) {
  EXPECT_EQ(resolve_threads(0, 100), hardware_threads() < 100 ? hardware_threads() : 100);
  EXPECT_EQ(resolve_threads(1, 100), 1u);
  EXPECT_EQ(resolve_threads(8, 3), 3u);   // never wider than the work
  EXPECT_EQ(resolve_threads(8, 0), 8u);   // 0 items = unknown, keep the request
  EXPECT_EQ(resolve_threads(1, 0), 1u);
}

TEST(ThreadPool, SizeCountsTheParticipatingCaller) {
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(4).size(), 4u);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ParallelForHonorsExplicitGrain) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 97;  // prime: exercises the ragged tail chunk
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) { hits[i].fetch_add(1); }, 10);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, static_cast<int>(kN));
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, OneThreadPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  pool.parallel_for(seen.size(),
                    [&seen](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
  ThreadPool pool(4);
  const auto out = parallel_map(pool, 500, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ParallelMapConvenienceOverloadMatchesPoolForm) {
  const auto direct = parallel_map(4, 64, [](std::size_t i) { return 3 * i + 1; });
  ThreadPool pool(4);
  const auto pooled = parallel_map(pool, 64, [](std::size_t i) { return 3 * i + 1; });
  EXPECT_EQ(direct, pooled);
}

TEST(ThreadPool, NestedParallelForCompletesWithoutDeadlock) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::atomic<int> inner_off_thread{0};
  std::vector<std::vector<std::size_t>> inner_order(8);
  pool.parallel_for(8, [&](std::size_t outer) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    pool.parallel_for(16, [&, outer, outer_thread](std::size_t i) {
      total.fetch_add(1);
      if (std::this_thread::get_id() != outer_thread) inner_off_thread.fetch_add(1);
      inner_order[outer].push_back(i);
    });
  });
  EXPECT_EQ(total.load(), 8 * 16);
  // The pool is busy with the outer loop, so each inner loop runs inline on
  // its outer body's thread, in index order.
  EXPECT_EQ(inner_off_thread.load(), 0);
  std::vector<std::size_t> in_order(16);
  std::iota(in_order.begin(), in_order.end(), std::size_t{0});
  for (const auto& order : inner_order) EXPECT_EQ(order, in_order);
}

TEST(ThreadPool, TwoThreadsShareOnePool) {
  // Whichever caller finds the pool busy runs its loop inline; either way
  // every index of every loop runs exactly once.
  ThreadPool pool(4);
  constexpr int kLoops = 2000;
  const auto drive = [&pool](std::size_t& total) {
    for (int loop = 0; loop < kLoops; ++loop) {
      std::atomic<std::size_t> sum{0};
      pool.parallel_for(64, [&sum](std::size_t i) { sum.fetch_add(i); });
      total += sum.load();
    }
  };
  std::size_t first = 0;
  std::size_t second = 0;
  std::thread other([&] { drive(second); });
  drive(first);
  other.join();
  EXPECT_EQ(first, kLoops * (63u * 64u / 2u));
  EXPECT_EQ(second, kLoops * (63u * 64u / 2u));
}

TEST(ThreadPool, BackToBackTinyLoopsNeverLoseOrRepeatAnIndex) {
  // Loops of 1-7 single-index chunks finish before most workers wake up, so
  // workers keep waking to a job that has already closed; they must neither
  // join it nor run an index of the next one twice.
  ThreadPool pool(4);
  std::array<std::atomic<int>, 7> hits{};
  for (std::size_t loop = 0; loop < 10'000; ++loop) {
    const std::size_t n = 1 + loop % 7;
    for (auto& h : hits) h.store(0);
    pool.parallel_for(n, [&hits](std::size_t i) { hits[i].fetch_add(1); }, 1);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), i < n ? 1 : 0) << "loop " << loop << " index " << i;
    }
  }
}

TEST(ThreadPool, FirstExceptionPropagatesAfterTheLoopDrains) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  // grain 1: every index is its own chunk, so the throw cancels nothing
  // else — an exception only skips the remainder of its own chunk.
  EXPECT_THROW(
      pool.parallel_for(
          100,
          [&completed](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
            completed.fetch_add(1);
          },
          1),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 99);  // every other index still ran
}

TEST(ThreadPool, ManyLoopsReuseTheSamePool) {
  ThreadPool pool(4);
  std::size_t grand_total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(64, [&sum](std::size_t i) { sum.fetch_add(i); });
    grand_total += sum.load();
  }
  EXPECT_EQ(grand_total, 50u * (63u * 64u / 2u));
}

TEST(ThreadPool, WidePoolOnSmallRangeStillCoversEverything) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace raptee::exec
