#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace raptee::exec {

std::size_t hardware_threads() {
  const unsigned hint = std::thread::hardware_concurrency();
  return hint == 0 ? 1 : static_cast<std::size_t>(hint);
}

std::size_t resolve_threads(std::size_t requested, std::size_t items) {
  std::size_t threads = requested == 0 ? hardware_threads() : requested;
  if (items > 0 && threads > items) threads = items;
  return threads == 0 ? 1 : threads;
}

namespace {

/// One blocking parallel loop in flight. Chunks decrement `pending`; the
/// caller sleeps on `done` once it runs out of stealable work. `pending`
/// and `error` are guarded by `mutex`; the final decrement notifies while
/// still holding it, so once the caller observes pending == 0 no worker
/// touches the Job again and the caller may safely destroy it.
struct Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t pending = 0;
  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr error;  // first failure wins
};

/// A contiguous slice [begin, end) of a job's index space.
struct Chunk {
  Job* job = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

}  // namespace

struct ThreadPool::Impl {
  /// Per-worker deque: the owner pushes/pops at the back, thieves (other
  /// workers and the blocked caller) take from the front — the classic
  /// work-stealing discipline, here with a plain mutex per deque (the
  /// simulator's tasks are far too coarse for lock contention to matter,
  /// and mutexes keep the pool trivially ThreadSanitizer-clean).
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Chunk> chunks;
  };

  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> workers;

  std::mutex wake_mutex;
  std::condition_variable wake;
  // Relaxed everywhere: `queued` is only a wake hint — the chunk payload
  // itself is handed off under each deque's mutex, which provides ordering.
  std::atomic<std::size_t> queued{0};  // chunks submitted, not yet claimed
  bool stop = false;                   // guarded by wake_mutex

  bool try_claim(std::size_t start_hint, Chunk& out) {
    const std::size_t count = queues.size();
    for (std::size_t k = 0; k < count; ++k) {
      WorkerQueue& victim = *queues[(start_hint + k) % count];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (victim.chunks.empty()) continue;
      out = victim.chunks.front();
      victim.chunks.pop_front();
      queued.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Owner-side claim: back of the own deque first, then steal.
  bool try_claim_worker(std::size_t self, Chunk& out) {
    {
      WorkerQueue& own = *queues[self];
      std::lock_guard<std::mutex> lock(own.mutex);
      if (!own.chunks.empty()) {
        out = own.chunks.back();
        own.chunks.pop_back();
        queued.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    Chunk stolen;
    if (try_claim(self + 1, stolen)) {
      out = stolen;
      return true;
    }
    return false;
  }

  static void run_chunk(const Chunk& chunk) {
    Job& job = *chunk.job;
    std::exception_ptr error;
    try {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) (*job.body)(i);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(job.mutex);
    if (error && !job.error) job.error = error;
    if (--job.pending == 0) job.done.notify_all();
  }

  void worker_loop(std::size_t self) {
    for (;;) {
      Chunk chunk;
      if (try_claim_worker(self, chunk)) {
        run_chunk(chunk);
        continue;
      }
      std::unique_lock<std::mutex> lock(wake_mutex);
      wake.wait(lock, [this] {
        return stop || queued.load(std::memory_order_relaxed) > 0;
      });
      if (stop && queued.load(std::memory_order_relaxed) == 0) return;
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  const std::size_t width = threads == 0 ? hardware_threads() : threads;
  // The caller participates in every loop, so `width` includes it.
  const std::size_t worker_count = width > 1 ? width - 1 : 0;
  impl_->queues.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    impl_->queues.push_back(std::make_unique<Impl::WorkerQueue>());
  }
  impl_->workers.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->wake_mutex);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::size() const { return impl_->workers.size() + 1; }

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  RAPTEE_REQUIRE(body != nullptr, "parallel_for requires a body");
  if (n == 0) return;
  if (impl_->workers.empty()) {
    // Inline path (threads == 1): no queues, no synchronization, indices
    // in order on the caller.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  if (grain == 0) grain = std::max<std::size_t>(1, n / (size() * 4));
  const std::size_t chunk_count = (n + grain - 1) / grain;

  Job job;
  job.body = &body;
  job.pending = chunk_count;

  // Publish the chunk count BEFORE the chunks themselves: a worker that
  // wins the race sees queued > 0 with nothing claimable yet and simply
  // retries, whereas the opposite order would let an early claim wrap
  // `queued` below zero and keep sleeping workers spinning on a stale
  // positive count until the add lands.
  {
    std::lock_guard<std::mutex> lock(impl_->wake_mutex);
    impl_->queued.fetch_add(chunk_count, std::memory_order_relaxed);
  }
  // Round-robin the chunks over the worker deques; the caller then joins
  // the loop as a thief until the job drains.
  const std::size_t queue_count = impl_->queues.size();
  for (std::size_t c = 0; c < chunk_count; ++c) {
    Chunk chunk{&job, c * grain, std::min(n, (c + 1) * grain)};
    Impl::WorkerQueue& target = *impl_->queues[c % queue_count];
    std::lock_guard<std::mutex> lock(target.mutex);
    target.chunks.push_back(chunk);
  }
  impl_->wake.notify_all();

  for (;;) {
    Chunk chunk;
    if (impl_->try_claim(0, chunk)) {
      Impl::run_chunk(chunk);
      continue;
    }
    // Nothing left to steal: the remaining chunks (if any) are running on
    // workers — sleep until the last one signals under the job mutex.
    std::unique_lock<std::mutex> lock(job.mutex);
    job.done.wait(lock, [&job] { return job.pending == 0; });
    break;
  }

  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace raptee::exec
