#include "net/event_loop.hpp"

#include <unistd.h>

#include <utility>

#if defined(__linux__)
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

#include "common/assert.hpp"
#include "obs/timer.hpp"

namespace raptee::net {

namespace {

Fd make_pipe_end(int fd) {
  set_nonblocking(fd);
  return Fd(fd);
}

}  // namespace

EventLoop::EventLoop() {
  int ends[2];
  if (::pipe(ends) != 0) throw NetError("pipe(wakeup) failed");
  wake_read_ = make_pipe_end(ends[0]);
  wake_write_ = make_pipe_end(ends[1]);
#if defined(__linux__)
  epoll_ = Fd(::epoll_create1(0));
  if (!epoll_.valid()) throw NetError("epoll_create1 failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_read_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_read_.get(), &ev) != 0) {
    throw NetError("epoll_ctl(wakeup) failed");
  }
#endif
}

EventLoop::~EventLoop() = default;

void EventLoop::add_fd(int fd, std::uint32_t interest, IoHandler handler) {
  RAPTEE_ASSERT_MSG(!fds_.contains(fd), "fd " << fd << " registered twice");
  fds_.emplace(fd, FdEntry{interest, std::move(handler)});
#if defined(__linux__)
  epoll_event ev{};
  ev.events = ((interest & kReadable) ? EPOLLIN : 0u) |
              ((interest & kWritable) ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    fds_.erase(fd);
    throw NetError("epoll_ctl(ADD) failed");
  }
#endif
}

void EventLoop::set_interest(int fd, std::uint32_t interest) {
  const auto it = fds_.find(fd);
  RAPTEE_ASSERT_MSG(it != fds_.end(), "set_interest on unregistered fd " << fd);
  it->second.interest = interest;
#if defined(__linux__)
  epoll_event ev{};
  ev.events = ((interest & kReadable) ? EPOLLIN : 0u) |
              ((interest & kWritable) ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw NetError("epoll_ctl(MOD) failed");
  }
#endif
}

void EventLoop::remove_fd(int fd) {
  if (fds_.erase(fd) == 0) return;
#if defined(__linux__)
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
#endif
}

EventLoop::TimerId EventLoop::run_after(std::chrono::milliseconds delay,
                                        std::function<void()> fn) {
  const TimerId id = next_timer_++;
  timers_.push(Timer{std::chrono::steady_clock::now() + delay, id});
  timer_fns_.emplace(id, std::move(fn));
  return id;
}

void EventLoop::cancel_timer(TimerId id) { timer_fns_.erase(id); }

void EventLoop::post(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::stop() {
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    stop_requested_ = true;
  }
  wake();
}

void EventLoop::wake() {
  const std::uint8_t byte = 1;
  (void)write_some(wake_write_.get(), &byte, 1);  // EAGAIN = already pending
}

void EventLoop::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

int EventLoop::fire_due_timers() {
  const auto now = std::chrono::steady_clock::now();
  while (!timers_.empty()) {
    const Timer top = timers_.top();
    const auto it = timer_fns_.find(top.id);
    if (it == timer_fns_.end()) {  // cancelled
      timers_.pop();
      continue;
    }
    if (top.deadline > now) {
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(top.deadline - now);
      return static_cast<int>(std::min<std::int64_t>(wait.count(), 60'000));
    }
    timers_.pop();
    auto fn = std::move(it->second);
    timer_fns_.erase(it);
    if (profile_timer_ != nullptr) {
      const obs::ScopedTimer t(profile_timer_);
      fn();
    } else {
      fn();
    }
  }
  return -1;
}

void EventLoop::dispatch(int fd, std::uint32_t events) {
  // Look the entry up at delivery time: an earlier callback in this pass
  // may have removed (or replaced) this fd.
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  // Copying the handler keeps it alive even if the callback removes the fd.
  const IoHandler handler = it->second.handler;
  if (profile_dispatch_ != nullptr) {
    const obs::ScopedTimer t(profile_dispatch_);
    handler(events);
  } else {
    handler(events);
  }
}

void EventLoop::poll_once(int timeout_ms) {
#if defined(__linux__)
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_.get(), events, 64, timeout_ms);
  ready_.clear();
  for (int i = 0; i < n; ++i) {
    if (events[i].data.fd == wake_read_.get()) {
      std::uint8_t drain[64];
      while (read_some(wake_read_.get(), drain, sizeof drain) > 0) {
      }
      continue;
    }
    std::uint32_t bits = 0;
    if (events[i].events & EPOLLIN) bits |= kReadable;
    if (events[i].events & EPOLLOUT) bits |= kWritable;
    if (events[i].events & (EPOLLERR | EPOLLHUP)) bits |= kError;
    const int ready_fd = events[i].data.fd;  // copy out of the packed union
    ready_.emplace_back(ready_fd, bits);
  }
#else
  std::vector<pollfd> pfds;
  pfds.reserve(fds_.size() + 1);
  pfds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
  // raptee-lint: allow(no-unordered-iteration) poll registration order only affects same-pass dispatch order of ready fds, which the epoll path leaves to the kernel anyway; the socket layer is outside the deterministic core
  for (const auto& [fd, entry] : fds_) {
    short mask = 0;
    if (entry.interest & kReadable) mask |= POLLIN;
    if (entry.interest & kWritable) mask |= POLLOUT;
    pfds.push_back(pollfd{fd, mask, 0});
  }
  const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  ready_.clear();
  if (n > 0) {
    if (pfds[0].revents & POLLIN) {
      std::uint8_t drain[64];
      while (read_some(wake_read_.get(), drain, sizeof drain) > 0) {
      }
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      std::uint32_t bits = 0;
      if (pfds[i].revents & POLLIN) bits |= kReadable;
      if (pfds[i].revents & POLLOUT) bits |= kWritable;
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) bits |= kError;
      ready_.emplace_back(pfds[i].fd, bits);
    }
  }
#endif
  for (const auto& [fd, bits] : ready_) dispatch(fd, bits);
}

void EventLoop::run() {
  while (true) {
    {
      const std::lock_guard<std::mutex> lock(post_mu_);
      if (stop_requested_) {
        stop_requested_ = false;
        return;
      }
    }
    drain_posted();
    const int timeout = fire_due_timers();
    poll_once(timeout);
  }
}

}  // namespace raptee::net
