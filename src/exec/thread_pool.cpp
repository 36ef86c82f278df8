#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
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

struct ThreadPool::Impl {
  std::atomic<bool> busy{false};  // a loop is in flight; later calls run inline

  std::mutex mutex;
  std::condition_variable wake;  // workers: a new generation, or stop
  std::condition_variable left;  // caller: a worker left the job
  // Guarded by `mutex`.
  std::uint64_t generation = 0;
  bool open = false;  // workers may still join the current job
  bool stop = false;
  std::size_t inside = 0;    // workers that joined and have not left
  std::exception_ptr error;  // first failure wins

  // The job: written under `mutex` before it opens, read by the caller and
  // by workers that joined it (the join, under `mutex`, orders the reads).
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t grain = 0;
  std::size_t chunk_count = 0;
  // Relaxed: the cursor only has to hand out each chunk once; the job
  // fields above and the bodies' writes are ordered by `mutex`.
  std::atomic<std::size_t> next{0};  // the next unclaimed chunk

  /// Claims chunks off the cursor until it passes the chunk count. An
  /// exception skips only the rest of its own chunk.
  void run_chunks() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunk_count) return;
      const std::size_t end = std::min(n, (c + 1) * grain);
      try {
        for (std::size_t i = c * grain; i < end; ++i) (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      wake.wait(lock, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      // A job the caller already closed may be followed by the next one's
      // writes at any moment: joining it would read them unordered.
      if (!open) continue;
      ++inside;
      lock.unlock();
      run_chunks();
      lock.lock();
      if (--inside == 0) left.notify_one();
    }
  }

  std::vector<std::thread> workers;  // last: they use every member above
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  const std::size_t width = threads == 0 ? hardware_threads() : threads;
  // The caller participates in every loop, so `width` includes it.
  const std::size_t worker_count = width > 1 ? width - 1 : 0;
  impl_->workers.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
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
  Impl& impl = *impl_;
  if (impl.workers.empty() || impl.busy.exchange(true, std::memory_order_acquire)) {
    // Inline path: width 1, or a loop issued while this pool runs another
    // (from a body, or from a second thread). Indices in order, here.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  if (grain == 0) grain = std::max<std::size_t>(1, n / (size() * 4));
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.body = &body;
    impl.n = n;
    impl.grain = grain;
    impl.chunk_count = (n + grain - 1) / grain;
    impl.next.store(0, std::memory_order_relaxed);
    impl.open = true;
    ++impl.generation;
  }
  impl.wake.notify_all();
  impl.run_chunks();

  std::exception_ptr error;
  {
    // Close before waiting: once no worker is inside, none can join late.
    std::unique_lock<std::mutex> lock(impl.mutex);
    impl.open = false;
    impl.left.wait(lock, [&impl] { return impl.inside == 0; });
    error = std::exchange(impl.error, nullptr);
  }
  impl.busy.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

}  // namespace raptee::exec
