// exec::ThreadPool — deterministic parallel execution for scenario fan-out.
//
// A dependency-free pool that runs one loop at a time: parallel_for
// publishes its range as one job, and the caller and the workers claim
// contiguous chunks from one shared cursor until every chunk has run. The
// caller blocks, but *participates*. A parallel_for issued while the pool
// already runs one — from inside a body, or from a second thread — runs
// inline on its own caller, in index order, so nesting cannot deadlock.
// The pool allocates nothing per loop.
//
// Determinism contract: parallel_for(n, body) invokes body(i) exactly once
// for every i in [0, n), with no two invocations sharing an index. Which
// thread runs which index is scheduling-dependent, so bodies must write
// only to per-index state (slot vectors, per-task Rng streams — see
// Rng::fork/Rng::split in common/rng.hpp). Under that discipline a
// parallel map over independent tasks is bit-identical to the sequential
// loop, which the scenario test-suite asserts end to end.
//
// threads == 1 builds no workers at all: loops run inline on the caller,
// in index order.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace raptee::exec {

/// std::thread::hardware_concurrency with a floor of 1 (the standard allows
/// a 0 return when the hint is unavailable).
[[nodiscard]] std::size_t hardware_threads();

/// Resolves a thread-count knob: 0 = hardware concurrency, otherwise the
/// requested count; the result is additionally capped by `items` (never
/// spin up more workers than there are tasks) and floored at 1.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested, std::size_t items);

class ThreadPool {
 public:
  /// `threads` — total execution width including the calling thread;
  /// 0 = hardware concurrency, 1 = fully inline (no workers spawned).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution width: worker threads + the participating caller.
  [[nodiscard]] std::size_t size() const;

  /// Invokes body(i) once per i in [0, n), distributed over the pool in
  /// contiguous chunks of `grain` indices (0 = auto: ~4 chunks per thread).
  /// Blocks until every index completed; the caller executes chunks too.
  /// The first exception thrown by any body is rethrown on the caller
  /// after the loop has drained. Runs inline, in index order, when the pool
  /// has no workers or is already running a loop.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace raptee::exec
