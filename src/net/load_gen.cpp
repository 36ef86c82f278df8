#include "net/load_gen.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <thread>

#include "common/stats.hpp"
#include "net/bus.hpp"
#include "net/frame.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"

namespace raptee::net {

namespace {

using Clock = std::chrono::steady_clock;

/// poll(2) for one event with a deadline; false on timeout.
bool wait_fd(int fd, short events, Clock::time_point deadline) {
  while (true) {
    const auto now = Clock::now();
    if (now >= deadline) return false;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, static_cast<int>(std::max<std::int64_t>(
                                      1, left.count())));
    if (n > 0) return true;
    if (n < 0 && errno != EINTR) return false;
  }
}

/// Writes the whole buffer, polling on EAGAIN; false on error/timeout.
bool write_all(int fd, const std::uint8_t* data, std::size_t len,
               Clock::time_point deadline) {
  std::size_t off = 0;
  while (off < len) {
    const long n = write_some(fd, data + off, len - off);
    if (n == -2) return false;
    if (n == -1) {
      if (!wait_fd(fd, POLLOUT, deadline)) return false;
      continue;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until one complete frame is split out; false on EOF/error/timeout.
bool read_frame(int fd, FrameSplitter& splitter, std::vector<std::uint8_t>& payload,
                Clock::time_point deadline) {
  while (true) {
    try {
      if (splitter.next(payload)) return true;
    } catch (const FrameError&) {
      return false;
    }
    if (!wait_fd(fd, POLLIN, deadline)) return false;
    std::uint8_t buf[8192];
    const long n = read_some(fd, buf, sizeof buf);
    if (n == 0 || n == -2) return false;
    if (n > 0) splitter.feed(buf, static_cast<std::size_t>(n));
  }
}

struct WorkerResult {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t samples = 0;
  bool ever_connected = false;
  std::vector<double> latencies_us;
};

struct Session {
  Fd fd;
  FrameSplitter splitter;
};

/// Connect + HELLO exchange; empty optional on failure.
std::optional<Session> open_session(const LoadConfig& config, std::uint32_t index,
                                    std::uint64_t nonce, Clock::time_point deadline) {
  bool in_progress = false;
  Fd fd;
  try {
    fd = connect_loopback(config.port, &in_progress);
  } catch (const NetError&) {
    return std::nullopt;
  }
  if (!fd.valid()) return std::nullopt;
  if (in_progress) {
    if (!wait_fd(fd.get(), POLLOUT, deadline)) return std::nullopt;
    if (connect_result(fd.get()) != 0) return std::nullopt;
  }
  Session s;
  s.fd = std::move(fd);
  std::vector<std::uint8_t> framed;
  const std::vector<std::uint8_t> hello =
      encode_hello(NodeId{index}, PeerRole::kClient, nonce);
  append_frame(framed, hello.data(), hello.size());
  if (!write_all(s.fd.get(), framed.data(), framed.size(), deadline)) {
    return std::nullopt;
  }
  // Consume the daemon's HELLO so the stream is positioned at payloads.
  std::vector<std::uint8_t> payload;
  if (!read_frame(s.fd.get(), s.splitter, payload, deadline)) return std::nullopt;
  return s;
}

WorkerResult run_worker(const LoadConfig& config, std::uint32_t index,
                        std::uint64_t nonce_base, Clock::time_point end) {
  WorkerResult result;
  std::optional<Session> session;
  std::uint64_t tag = static_cast<std::uint64_t>(index) << 32;
  std::uint64_t reconnects = 0;
  std::vector<std::uint8_t> framed;
  std::vector<std::uint8_t> payload;
  // The end of the run stops new requests only: the request in flight keeps
  // its full reply_timeout, so a reply cut off by the end is not an error.
  while (Clock::now() < end) {
    const auto deadline = Clock::now() + config.reply_timeout;
    if (!session) {
      session = open_session(config, index,
                             nonce_base + index + (reconnects++ << 16), deadline);
      if (!session) {
        ++result.errors;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      result.ever_connected = true;
      continue;  // the handshake may have outlasted the run
    }
    SampleRequest req;
    req.tag = ++tag;
    req.count = config.samples_per_request;
    const std::vector<std::uint8_t> body = encode_sample_request(req);
    framed.clear();
    append_frame(framed, body.data(), body.size());
    const auto t0 = Clock::now();
    bool ok = write_all(session->fd.get(), framed.data(), framed.size(), deadline);
    std::optional<SampleReply> reply;
    while (ok) {
      if (!read_frame(session->fd.get(), session->splitter, payload, deadline)) {
        ok = false;
        break;
      }
      reply = decode_sample_reply(payload.data(), payload.size());
      if (!reply) {
        ok = false;  // garbage on a service stream: reconnect
        break;
      }
      if (reply->tag == req.tag) break;  // stale tags (pre-timeout) skipped
    }
    if (!ok) {
      ++result.errors;
      session.reset();
      continue;
    }
    const auto t1 = Clock::now();
    ++result.requests;
    result.samples += reply->samples.size();
    result.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return result;
}

}  // namespace

LoadReport run_load(const LoadConfig& config) {
  const auto start = Clock::now();
  const auto end = start + config.duration;
  std::vector<WorkerResult> results(config.connections);
  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  for (std::size_t i = 0; i < config.connections; ++i) {
    workers.emplace_back([&, i] {
      results[i] = run_worker(config, static_cast<std::uint32_t>(i),
                              config.nonce_seed, end);
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  LoadReport report;
  report.duration_ms = elapsed_ms;
  std::vector<double> latencies;
  bool connected = false;
  for (auto& r : results) {
    report.requests += r.requests;
    report.errors += r.errors;
    report.samples_received += r.samples;
    connected = connected || r.ever_connected;
    latencies.insert(latencies.end(), r.latencies_us.begin(), r.latencies_us.end());
  }
  if (!connected) {
    throw NetError("load generator: no connection to port " +
                   std::to_string(config.port));
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    report.p50_us = percentile_of_sorted(latencies, 50.0);
    report.p99_us = percentile_of_sorted(latencies, 99.0);
    report.max_us = latencies.back();
  }
  if (elapsed_ms > 0) {
    report.rps = static_cast<double>(report.requests) / (elapsed_ms / 1000.0);
  }
  return report;
}

}  // namespace raptee::net
