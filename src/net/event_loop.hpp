// Dependency-free single-threaded async event loop.
//
// One loop drives every socket of a Bus: readiness callbacks per fd, a
// monotonic timer heap, and a cross-thread post() queue woken through a
// self-pipe. The backend is epoll(7) on Linux and poll(2) elsewhere — the
// interface is identical and deliberately tiny (level-triggered readiness,
// no ownership of fds).
//
// Threading contract:
//   * run() executes callbacks on the calling thread (the "loop thread");
//   * post() and stop() are safe from any thread;
//   * every other method (add_fd/set_interest/remove_fd/run_after/...)
//     must be called on the loop thread — post() a closure to get there.
//
// Reentrancy: a callback may add or remove any fd, including its own; the
// dispatch pass re-checks registration before each delivery so a handler
// removed earlier in the same pass is never invoked on a stale entry.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "obs/registry.hpp"

namespace raptee::net {

class EventLoop {
 public:
  /// Readiness bits passed to io handlers (a dispatch may combine them).
  static constexpr std::uint32_t kReadable = 1u;
  static constexpr std::uint32_t kWritable = 2u;
  /// Error/hangup: the fd should be torn down by its handler.
  static constexpr std::uint32_t kError = 4u;

  using IoHandler = std::function<void(std::uint32_t events)>;
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for the readiness bits in `interest` (kReadable |
  /// kWritable). The loop never closes the fd.
  void add_fd(int fd, std::uint32_t interest, IoHandler handler);
  /// Replaces the interest set of a registered fd.
  void set_interest(int fd, std::uint32_t interest);
  void remove_fd(int fd);

  /// One-shot timer on the loop thread; returns an id for cancel_timer.
  TimerId run_after(std::chrono::milliseconds delay, std::function<void()> fn);
  void cancel_timer(TimerId id);

  /// Enqueues `fn` for execution on the loop thread (any thread; wakes a
  /// blocked run()).
  void post(std::function<void()> fn);

  /// Dispatches events until stop(); the caller becomes the loop thread.
  void run();
  /// Makes run() return after the current dispatch pass (any thread).
  void stop();

  /// Opt-in profiling: per-callback wall time of io dispatches and timer
  /// firings, recorded into the given histograms (either may be null =
  /// that class of callback is not timed). Call before run() — the
  /// pointers are read unsynchronized on the loop thread.
  void set_profile(obs::Histogram* dispatch_us, obs::Histogram* timer_us) {
    profile_dispatch_ = dispatch_us;
    profile_timer_ = timer_us;
  }

 private:
  struct FdEntry {
    std::uint32_t interest = 0;
    IoHandler handler;
  };
  struct Timer {
    std::chrono::steady_clock::time_point deadline;
    TimerId id;
    // Min-heap by (deadline, id): equal deadlines fire in creation order.
    friend bool operator>(const Timer& a, const Timer& b) {
      return a.deadline != b.deadline ? a.deadline > b.deadline : a.id > b.id;
    }
  };

  void wake();
  void drain_posted();
  /// Fires due timers; returns the poll timeout until the next one (-1 =
  /// no timer armed).
  int fire_due_timers();
  void dispatch(int fd, std::uint32_t events);
  void poll_once(int timeout_ms);

  std::unordered_map<int, FdEntry> fds_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::unordered_map<TimerId, std::function<void()>> timer_fns_;  // absent = cancelled
  TimerId next_timer_ = 1;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  bool stop_requested_ = false;  // guarded by post_mu_

  Fd wake_read_;
  Fd wake_write_;
  obs::Histogram* profile_dispatch_ = nullptr;
  obs::Histogram* profile_timer_ = nullptr;

#if defined(__linux__)
  Fd epoll_;
#endif
  // Scratch for the dispatch pass (fd list snapshot — see reentrancy note).
  std::vector<std::pair<int, std::uint32_t>> ready_;
};

}  // namespace raptee::net
