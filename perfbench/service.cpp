// The service workload, service_1c: an in-process net::ServiceDaemon (the
// 64-node population bench/service_load uses) and one closed-loop client
// on one connection, built from the public net functions. Unlike
// net::run_load, the client never counts the request in flight at the
// end of a window as an error: it stops sending and waits for that reply.
#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <array>
#include <cerrno>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "net/bus.hpp"
#include "net/frame.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace raptee;

constexpr std::size_t kPopulation = 64;
constexpr std::size_t kView = 16;
constexpr std::uint16_t kSamplesPerRequest = 8;
constexpr auto kReplyTimeout = std::chrono::seconds(2);
constexpr std::size_t kWarmupRequests = 2000;
/// The budget is cut into repetitions of about this length; each spends
/// ~0.4 s on daemon start, warm-up requests and stop besides its window.
constexpr double kRepS = 5.0;
constexpr double kRepOverheadS = 0.4;
/// Every k-th answered request of a traced window gets a span.
constexpr std::uint64_t kSpanEvery = 256;

/// One connection speaking the service protocol: HELLO, then framed
/// SampleRequest / SampleReply round trips.
class ServiceClient {
 public:
  ServiceClient(std::uint16_t port, std::uint32_t id, std::uint64_t nonce) {
    const auto deadline = Clock::now() + kReplyTimeout;
    bool in_progress = false;
    fd_ = net::connect_loopback(port, &in_progress);
    if (in_progress &&
        (!wait(POLLOUT, deadline) || net::connect_result(fd_.get()) != 0)) {
      throw net::NetError("perfbench: connect to the daemon failed");
    }
    const std::vector<std::uint8_t> hello =
        net::encode_hello(NodeId{id}, net::PeerRole::kClient, nonce);
    net::append_frame(out_, hello.data(), hello.size());
    // The daemon answers with its own HELLO; after it, only replies follow.
    if (!send(deadline) || !receive(deadline)) {
      throw net::NetError("perfbench: HELLO exchange with the daemon failed");
    }
  }

  /// One round trip: the decoded reply, or nullopt when no well-formed
  /// reply arrived before the deadline (the stream is then unusable).
  std::optional<net::SampleReply> request(const net::SampleRequest& req,
                                          Clock::time_point deadline) {
    out_.clear();
    const std::vector<std::uint8_t> body = net::encode_sample_request(req);
    net::append_frame(out_, body.data(), body.size());
    if (!send(deadline) || !receive(deadline)) return std::nullopt;
    return net::decode_sample_reply(payload_.data(), payload_.size());
  }

 private:
  bool wait(short events, Clock::time_point deadline) {
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_.get(), events, 0};
      const int n = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (n > 0) return true;
      if (n < 0 && errno != EINTR) return false;
    }
  }

  bool send(Clock::time_point deadline) {
    std::size_t off = 0;
    while (off < out_.size()) {
      const long n = net::write_some(fd_.get(), out_.data() + off, out_.size() - off);
      if (n == -2) return false;
      if (n == -1) {
        if (!wait(POLLOUT, deadline)) return false;
        continue;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool receive(Clock::time_point deadline) {
    for (;;) {
      try {
        if (splitter_.next(payload_)) return true;
      } catch (const net::FrameError&) {
        return false;
      }
      const long n = net::read_some(fd_.get(), buf_.data(), buf_.size());
      if (n == 0 || n == -2) return false;
      if (n > 0) {
        splitter_.feed(buf_.data(), static_cast<std::size_t>(n));
      } else if (!wait(POLLIN, deadline)) {
        return false;
      }
    }
  }

  net::Fd fd_;
  net::FrameSplitter splitter_;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> payload_;
  std::array<std::uint8_t, 8192> buf_{};
};

/// The reply checks; empty when the reply is valid, else what failed.
std::string check_reply(const std::optional<net::SampleReply>& reply,
                        const net::SampleRequest& req) {
  if (!reply) return "no valid reply within the reply timeout";
  if (reply->tag != req.tag) return "reply tag does not echo the request";
  if (reply->samples.size() != req.count) return "reply holds another sample count than asked";
  for (const NodeId id : reply->samples) {
    // Node 0 is the service node itself and never sampled.
    if (id.value == 0 || id.value >= kPopulation) return "sampled id outside [1, population)";
  }
  return {};
}

/// Registry and daemon readings taken at the edges of a window.
struct Reading {
  Clock::time_point at;
  double cpu_s = 0.0;
  std::array<std::uint64_t, 5> phase_us{};
  std::uint64_t engine_rounds = 0;
  std::uint64_t pulls_started = 0, pulls_completed = 0, pulls_timed_out = 0;
  std::uint64_t pushes_sent = 0, pushes_delivered = 0, swaps = 0;
  std::uint64_t sample_us_sum = 0, sample_us_count = 0;
  std::uint64_t rejected = 0, rounds_stepped = 0;
  net::BusStats bus;

  static Reading take(const net::ServiceDaemon& daemon) {
    static constexpr std::array<const char*, 5> kPhases{
        "engine.phase.begin_round_us", "engine.phase.push_gen_us",
        "engine.phase.push_deliver_us", "engine.phase.pulls_us",
        "engine.phase.end_round_us"};
    obs::Registry& reg = obs::Registry::global();
    Reading r;
    r.at = Clock::now();
    r.cpu_s = process_cpu_s();
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      r.phase_us[p] = reg.histogram(kPhases[p]).sum();
    }
    r.engine_rounds = reg.counter("engine.rounds").value();
    r.pulls_started = reg.counter("engine.pulls_started").value();
    r.pulls_completed = reg.counter("engine.pulls_completed").value();
    r.pulls_timed_out = reg.counter("engine.pulls_timed_out").value();
    r.pushes_sent = reg.counter("engine.pushes_sent").value();
    r.pushes_delivered = reg.counter("engine.pushes_delivered").value();
    r.swaps = reg.counter("engine.swaps_completed").value();
    const obs::Histogram& sample = reg.histogram("service.sample_us");
    r.sample_us_sum = sample.sum();
    r.sample_us_count = sample.count();
    r.rejected = daemon.requests_rejected();
    r.rounds_stepped = daemon.rounds_stepped();
    r.bus = daemon.bus_stats();
    return r;
  }
};

/// Request latencies at 0.1 us resolution up to 20 ms (exact beyond), in
/// memory that does not grow with the request count, so the process's
/// peak RSS does not depend on how fast the service answered.
class LatencyLog {
 public:
  void clear() {
    std::fill(bins_.begin(), bins_.end(), 0u);
    overflow_.clear();
    count_ = 0;
  }
  void add(double us) {
    const double bin = us / kBinUs;
    if (bin < static_cast<double>(kBins)) {
      ++bins_[static_cast<std::size_t>(bin)];
    } else {
      overflow_.push_back(us);
    }
    ++count_;
  }
  void merge(const LatencyLog& other) {
    for (std::size_t b = 0; b < kBins; ++b) bins_[b] += other.bins_[b];
    overflow_.insert(overflow_.end(), other.overflow_.begin(), other.overflow_.end());
    count_ += other.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Linear interpolation between order statistics, the rule
  /// percentile_of_sorted uses; an order statistic inside a bin is placed
  /// evenly across the bin's width.
  [[nodiscard]] double percentile(double p) {
    RAPTEE_REQUIRE(count_ > 0, "percentile of an empty latency log");
    std::sort(overflow_.begin(), overflow_.end());
    const double rank = p / 100.0 * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::uint64_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const double a = order_statistic(lo);
    return lo + 1 < count_ ? a + frac * (order_statistic(lo + 1) - a) : a;
  }

 private:
  static constexpr double kBinUs = 0.1;
  static constexpr std::size_t kBins = 200'000;

  [[nodiscard]] double order_statistic(std::uint64_t i) const {
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      if (i < below + bins_[b]) {
        return (static_cast<double>(b) +
                (static_cast<double>(i - below) + 0.5) / static_cast<double>(bins_[b])) *
               kBinUs;
      }
      below += bins_[b];
    }
    return overflow_[i - below];
  }

  std::vector<std::uint32_t> bins_ = std::vector<std::uint32_t>(kBins);
  std::vector<double> overflow_;
  std::uint64_t count_ = 0;
};

/// Requests/s is measured over half-second sub-windows and reported as a
/// median: a stall of the host (steal) then shifts few samples instead of
/// the whole window's mean.
constexpr auto kSubWindow = std::chrono::milliseconds(500);

struct Window {
  std::uint64_t answered = 0;
  std::uint64_t ids = 0;
  std::uint64_t valid_ids = 0;
  std::vector<double> sub_rates;  ///< answered per second, per sub-window
  Clock::time_point first_send;
  Clock::time_point last_reply;
};

struct Session {
  std::uint16_t port = 0;
  std::uint64_t seed = 0;
  std::uint64_t tag = 0;
  std::uint32_t connects = 0;
  std::unique_ptr<ServiceClient> client;

  void connect() {
    client.reset();
    client = std::make_unique<ServiceClient>(port, connects, mix64(seed, connects));
    ++connects;
  }
};

/// Closed loop until `until`: the next request goes out only after the
/// previous reply. When the window closes no new request is sent, and the
/// one in flight is still awaited.
void drive(Session& s, Clock::time_point until, std::size_t max_requests, Checker& checker,
           Trace& trace, std::uint64_t parent, LatencyLog& latency, Window& w) {
  w.first_send = Clock::now();
  w.last_reply = w.first_send;
  auto sub_start = w.first_send;
  std::uint64_t sub_answered = 0;
  for (std::size_t i = 0; i < max_requests && Clock::now() < until; ++i) {
    net::SampleRequest req;
    req.tag = ++s.tag;
    req.count = kSamplesPerRequest;
    const auto t0 = Clock::now();
    const std::optional<net::SampleReply> reply = s.client->request(req, t0 + kReplyTimeout);
    const auto t1 = Clock::now();
    const std::string failure = check_reply(reply, req);
    if (failure.empty()) {
      checker.op(true, {});
    } else {
      checker.op(false, "request " + std::to_string(req.tag) + ": " + failure);
    }
    if (!reply) {
      s.connect();  // the stream is broken or out of step: start a new one
      continue;
    }
    ++w.answered;
    ++sub_answered;
    w.last_reply = t1;
    latency.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    w.ids += reply->samples.size();
    for (const NodeId id : reply->samples) {
      w.valid_ids += id.value != 0 && id.value < kPopulation ? 1 : 0;
    }
    if (w.answered % kSpanEvery == 0) trace.add("request", parent, t0, t1);
    if (t1 - sub_start >= kSubWindow) {
      w.sub_rates.push_back(static_cast<double>(sub_answered) / seconds_between(sub_start, t1));
      sub_start = t1;
      sub_answered = 0;
    }
  }
  if (w.sub_rates.empty() && sub_answered > 0) {  // a window shorter than one sub-window
    w.sub_rates.push_back(static_cast<double>(sub_answered) /
                          seconds_between(sub_start, w.last_reply));
  }
}

struct ServiceRep {
  double setup_s = 0.0;
  double connect_ms = 0.0;
  double teardown_s = 0.0;
  double rss_per_node = 0.0;
  double p50_us = 0.0;
  Window window;
  Reading before;
  Reading after;

  [[nodiscard]] double window_s() const {
    return seconds_between(window.first_send, window.last_reply);
  }
  [[nodiscard]] double requests_per_s() const { return median_of(window.sub_rates); }
  [[nodiscard]] double rounds() const {
    return static_cast<double>(after.engine_rounds - before.engine_rounds);
  }
};

/// One repetition against a fresh daemon; `latency` ends up holding the
/// window's request latencies.
ServiceRep run_rep(std::uint64_t seed, double window_s, Checker& checker, Trace& trace,
                   std::uint64_t parent, LatencyLog& latency) {
  ServiceRep rep;
  const double rss_before = rss_bytes();
  const auto t0 = Clock::now();
  const std::uint64_t rep_span = trace.open("rep", parent);
  net::DaemonConfig dc;
  dc.population = kPopulation;
  dc.view_size = kView;
  dc.seed = seed;
  auto daemon = std::make_unique<net::ServiceDaemon>(dc);
  Session session;
  session.port = daemon->start();
  session.seed = seed;
  const auto t_started = Clock::now();
  rep.rss_per_node = (rss_bytes() - rss_before) / static_cast<double>(kPopulation);
  session.connect();
  const auto t_connected = Clock::now();
  rep.connect_ms = std::chrono::duration<double, std::milli>(t_connected - t_started).count();
  Window warmup;
  Trace off(false);
  drive(session, Clock::time_point::max(), kWarmupRequests, checker, off, 0, latency, warmup);
  const auto t_setup = Clock::now();
  rep.setup_s = seconds_between(t0, t_setup);

  rep.before = Reading::take(*daemon);
  const std::uint64_t window_span = trace.open("window", rep_span);
  latency.clear();
  drive(session, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(window_s)),
        ~std::size_t{0}, checker, trace, window_span, latency, rep.window);
  trace.close(window_span);
  rep.p50_us = latency.percentile(50.0);
  rep.after = Reading::take(*daemon);

  const auto t_stop = Clock::now();
  session.client.reset();
  daemon->stop();
  daemon.reset();
  const auto t_end = Clock::now();
  rep.teardown_s = seconds_between(t_stop, t_end);

  trace.close(rep_span);
  if (trace.enabled()) {
    const std::uint64_t setup = trace.add("setup", rep_span, t0, t_setup);
    trace.add("daemon.start", setup, t0, t_started);
    trace.add("client.connect_hello", setup, t_started, t_connected);
    trace.add("warm-up", setup, t_connected, t_setup);
    trace.add("teardown", rep_span, t_stop, t_end);
  }
  return rep;
}

/// `latency` holds the traced windows' request latencies.
NetLayer net_layer(const std::vector<ServiceRep>& traced, LatencyLog& latency) {
  NetLayer n;
  std::uint64_t answered = 0, frames = 0, bytes = 0, server_sum = 0, server_count = 0;
  for (const ServiceRep& r : traced) {
    answered += r.window.answered;
    frames += (r.after.bus.frames_sent - r.before.bus.frames_sent) +
              (r.after.bus.frames_received - r.before.bus.frames_received);
    bytes += (r.after.bus.bytes_sent - r.before.bus.bytes_sent) +
             (r.after.bus.bytes_received - r.before.bus.bytes_received);
    server_sum += r.after.sample_us_sum - r.before.sample_us_sum;
    server_count += r.after.sample_us_count - r.before.sample_us_count;
    n.rejected += static_cast<double>(r.after.rejected - r.before.rejected);
  }
  n.latency_p99_us = latency.percentile(99.0);
  n.latency_p999_us = latency.percentile(99.9);
  n.samples = static_cast<double>(latency.count());
  n.server_us_mean =
      server_count > 0 ? static_cast<double>(server_sum) / static_cast<double>(server_count) : 0.0;
  n.frames_per_request = static_cast<double>(frames) / static_cast<double>(answered);
  n.bytes_per_request = static_cast<double>(bytes) / static_cast<double>(answered);
  n.rounds_stepped = mean_of(each(traced, [](const ServiceRep& r) {
    return static_cast<double>(r.after.rounds_stepped - r.before.rounds_stepped);
  }));
  n.connect_ms = mean_of(each(traced, [](const ServiceRep& r) { return r.connect_ms; }));
  return n;
}

/// The daemon's background engine over the traced windows: the simulator
/// layers are on this workload's path only as that engine's rounds.
void fill_engine_layers(const std::vector<ServiceRep>& traced, LayerValues& v) {
  double rounds = 0.0, window_s = 0.0, cpu_s = 0.0;
  std::array<double, 5> phase_ms{};
  for (const ServiceRep& r : traced) {
    rounds += r.rounds();
    window_s += seconds_between(r.before.at, r.after.at);
    cpu_s += r.after.cpu_s - r.before.cpu_s;
    for (std::size_t p = 0; p < phase_ms.size(); ++p) {
      phase_ms[p] += static_cast<double>(r.after.phase_us[p] - r.before.phase_us[p]) / 1000.0;
    }
  }
  const auto per_round = [&](std::uint64_t Reading::*field) {
    double sum = 0.0;
    for (const ServiceRep& r : traced) {
      sum += static_cast<double>(r.after.*field - r.before.*field);
    }
    return sum / rounds;
  };
  v.begin_round_ms = phase_ms[0] / rounds;
  v.push_gen_ms = phase_ms[1] / rounds;
  v.push_deliver_ms = phase_ms[2] / rounds;
  v.pulls_ms = phase_ms[3] / rounds;
  v.end_round_ms = phase_ms[4] / rounds;
  const double round_ms = window_s * 1000.0 / rounds;
  v.pulls_share = v.pulls_ms / round_ms;
  v.exchanges_started = per_round(&Reading::pulls_started);
  v.exchanges_completed = per_round(&Reading::pulls_completed);
  v.exchanges_timed_out = per_round(&Reading::pulls_timed_out);
  v.pushes_delivered = per_round(&Reading::pushes_delivered);
  v.exchange_us = v.pulls_ms * 1000.0 / v.exchanges_started;
  v.busy_cores = cpu_s / window_s;
  v.shard_speedup = 1.0;  // the daemon's engine runs unsharded (width 1)
  v.trusted_exchanges = per_round(&Reading::swaps);
  v.queue_depth = per_round(&Reading::pushes_sent) + v.exchanges_started;
  // The daemon's step loop is this workload's round driver: its self time
  // per round includes the configured pause between rounds.
  v.driver_ms = round_ms - (v.begin_round_ms + v.push_gen_ms + v.push_deliver_ms +
                            v.pulls_ms + v.end_round_ms);
  v.teardown_s = mean_of(each(traced, [](const ServiceRep& r) { return r.teardown_s; }));
}

}  // namespace

EndToEnd run_service(const RunOptions& opt, Checker& checker, Trace& trace,
                     LayerValues& layers) {
  const auto reps = std::max<std::size_t>(2, static_cast<std::size_t>(opt.seconds / kRepS + 0.5));
  const double window_s =
      std::max(0.2, opt.seconds / static_cast<double>(reps) - kRepOverheadS);
  const std::uint64_t root = trace.open(opt.workload, 0);
  Trace off(false);
  std::vector<ServiceRep> untraced;
  std::vector<ServiceRep> traced;
  LatencyLog window_latency;
  LatencyLog traced_latency;
  for (std::size_t i = 0; i < reps; ++i) {
    // As for the simulators: every other window of a traced run records
    // spans, the rest run untraced, and the gap is the tracing overhead.
    const bool traced_rep = opt.trace && i % 2 == 1;
    ServiceRep rep =
        run_rep(opt.seed, window_s, checker, traced_rep ? trace : off, root, window_latency);
    if (i == 0) layers.rss_bytes_per_node = rep.rss_per_node;
    if (traced_rep) traced_latency.merge(window_latency);
    std::fprintf(stderr, "perfbench: rep %zu%s: setup %.3f s, %.0f req/s, p50 %.1f us\n", i,
                 traced_rep ? " (traced)" : "", rep.setup_s, rep.requests_per_s(), rep.p50_us);
    (traced_rep ? traced : untraced).push_back(std::move(rep));
  }
  const auto sub_window_median = [](const std::vector<ServiceRep>& reps) {
    std::vector<double> rates;
    for (const ServiceRep& r : reps) {
      rates.insert(rates.end(), r.window.sub_rates.begin(), r.window.sub_rates.end());
    }
    return median_of(std::move(rates));
  };

  EndToEnd e;
  e.setup_s = median_of(each(untraced, [](const ServiceRep& r) { return r.setup_s; }));
  e.rounds_per_s =
      median_of(each(untraced, [](const ServiceRep& r) { return r.rounds() / r.window_s(); }));
  e.requests_per_s = sub_window_median(untraced);
  e.latency_p50_us = median_of(each(untraced, [](const ServiceRep& r) { return r.p50_us; }));
  std::uint64_t ids = 0, valid = 0;
  for (const ServiceRep& r : untraced) {
    ids += r.window.ids;
    valid += r.window.valid_ids;
  }
  e.correct_share = static_cast<double>(valid) / static_cast<double>(ids);
  e.peak_rss_mib = peak_rss_bytes() / (1024.0 * 1024.0);
  if (!opt.trace) {
    trace.close(root);
    return e;
  }

  fill_engine_layers(traced, layers);
  layers.net = net_layer(traced, traced_latency);
  layers.overhead_pct = 100.0 * (e.requests_per_s / sub_window_median(traced) - 1.0);

  ProbeInputs in;
  in.l1 = kView;
  in.l2 = kView;
  in.queue_depth = static_cast<std::size_t>(layers.queue_depth);
  in.seed = opt.seed;
  layers.probe = run_probes(in, trace, root, checker);
  trace.close(root);
  return e;
}

NetLayer net_probe(std::uint64_t seed, Checker& checker, Trace& trace, std::uint64_t parent) {
  const std::uint64_t span = trace.open("probe.net", parent);
  LatencyLog latency;
  std::vector<ServiceRep> reps;
  reps.push_back(run_rep(seed, 0.25, checker, trace, span, latency));
  trace.close(span);
  return net_layer(reps, latency);
}

void self_test_service(Checker& clean, Checker& faulty) {
  Trace off(false);
  LatencyLog latency;
  (void)run_rep(3, 0.05, clean, off, 0, latency);
  // Forged replies: one that names an id outside the population and one
  // that does not echo the tag; each must count as one failed request.
  net::SampleRequest req;
  req.tag = 9;
  req.count = 2;
  net::SampleReply reply;
  reply.tag = 9;
  reply.samples = {NodeId{1}, NodeId{static_cast<std::uint32_t>(kPopulation)}};
  faulty.op(check_reply(reply, req).empty(), "forged reply: id out of range");
  reply.samples.back() = NodeId{2};
  reply.tag = 10;
  faulty.op(check_reply(reply, req).empty(), "forged reply: tag not echoed");
  reply.tag = 9;
  faulty.op(check_reply(reply, req).empty(), "forged reply: valid");
}

}  // namespace perfbench
