#include "net/bus.hpp"

#include <algorithm>
#include <iterator>
#include <random>
#include <utility>

#include "common/assert.hpp"
#include "obs/timer.hpp"
#include "wire/buffer.hpp"

namespace raptee::net {

std::vector<std::uint8_t> encode_hello(NodeId self, PeerRole role,
                                       std::uint64_t nonce) {
  wire::Writer w;
  w.u32(kHelloMagic);
  w.u8(kHelloVersion);
  w.u8(static_cast<std::uint8_t>(role));
  w.node_id(self);
  w.u64(nonce);
  return w.take();
}

namespace {

/// Order-sensitive nonce mix (initiator first): both endpoints of one
/// connection compute the same token from the same two HELLO nonces.
std::uint64_t link_token_of(std::uint64_t initiator_nonce,
                            std::uint64_t acceptor_nonce) {
  std::uint64_t token = initiator_nonce;
  token ^= acceptor_nonce + 0x9E3779B97F4A7C15ULL + (token << 6) + (token >> 2);
  return token;
}

struct CounterEntry {
  const char* name;
  std::uint64_t BusStats::* field;
};

/// Indexed by Bus::Counter.
constexpr CounterEntry kCounterEntries[] = {
    {"bus.frames_sent", &BusStats::frames_sent},
    {"bus.frames_received", &BusStats::frames_received},
    {"bus.bytes_sent", &BusStats::bytes_sent},
    {"bus.bytes_received", &BusStats::bytes_received},
    {"bus.accepted", &BusStats::accepted},
    {"bus.dialed", &BusStats::dialed},
    {"bus.dial_retries", &BusStats::dial_retries},
    {"bus.teardowns", &BusStats::teardowns},
    {"bus.open_failures", &BusStats::open_failures},
    {"bus.handshake_failures", &BusStats::handshake_failures},
};

}  // namespace

Bus::Bus(BusConfig config) : config_(std::move(config)) {
  if (config_.nonce_seed != 0) {
    nonce_base_ = config_.nonce_seed;
  } else {
    std::random_device rd;
    nonce_base_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }
  static_assert(std::size(kCounterEntries) == kCounters);
  obs::Registry& reg = obs::Registry::global();
  for (std::size_t i = 0; i < kCounters; ++i) {
    totals_[i] = &reg.counter(kCounterEntries[i].name);
  }
  flush_us_ = &reg.histogram("bus.flush_us");
  // Per-callback wall time of the loop thread (dispatches and timers) —
  // safe to arm here: the loop thread starts in start().
  loop_.set_profile(&reg.histogram("bus.dispatch_us"),
                    &reg.histogram("bus.timer_us"));
}

Bus::~Bus() { stop(); }

std::uint16_t Bus::listen(std::uint16_t port) {
  RAPTEE_REQUIRE(!started_, "Bus::listen must be called before start()");
  auto [fd, bound] = listen_loopback(port);
  listen_fd_ = std::move(fd);
  listen_port_ = bound;
  return bound;
}

void Bus::start() {
  const std::lock_guard<std::mutex> lock(start_mu_);
  if (started_) return;
  started_ = true;
  loop_.post([this] { register_listener(); });
  thread_ = std::thread([this] { loop_.run(); });
}

void Bus::register_listener() {
  if (!listen_fd_.valid()) return;
  loop_.add_fd(listen_fd_.get(), EventLoop::kReadable,
               [this](std::uint32_t) { accept_ready(); });
}

void Bus::accept_ready() {
  while (true) {
    auto fd = accept_connection(listen_fd_.get());
    if (!fd) return;
    if (draining_) continue;  // accepted-but-draining: drop immediately
    count(kAccepted);
    Connection& conn = adopt_connection(std::move(*fd), /*inbound=*/true);
    send_hello(conn);
  }
}

Bus::Connection& Bus::adopt_connection(Fd fd, bool inbound) {
  auto conn = std::make_unique<Connection>();
  conn->id = next_conn_++;
  conn->fd = std::move(fd);
  conn->inbound = inbound;
  conn->connecting = !inbound;
  const std::uint64_t id = conn->id;
  const int raw = conn->fd.get();
  Connection& ref = *conns_.emplace(id, std::move(conn)).first->second;
  loop_.add_fd(raw, inbound ? EventLoop::kReadable : EventLoop::kWritable,
               [this, id](std::uint32_t events) {
                 const auto it = conns_.find(id);
                 if (it == conns_.end()) return;
                 Connection& c = *it->second;
                 if (events & EventLoop::kError) {
                   if (c.connecting) {
                     const NodeId peer = c.peer;
                     teardown(id, "connect-error");
                     retry_dial(peer, "connect-error");
                   } else {
                     teardown(id, "socket-error");
                   }
                   return;
                 }
                 if (c.connecting) {
                   on_dial_writable(id, c.peer);
                   return;
                 }
                 if (events & EventLoop::kWritable) conn_writable(id);
                 if (conns_.contains(id) && (events & EventLoop::kReadable)) {
                   conn_readable(id);
                 }
               });
  return ref;
}

void Bus::send_hello(Connection& conn) {
  // Unique per connection: a redialed pair must never reuse a link token
  // (token collision would reuse a keystream from sequence zero).
  conn.local_nonce = nonce_base_ + conn.id;
  const std::vector<std::uint8_t> hello =
      encode_hello(config_.self, config_.role, conn.local_nonce);
  // The handshake always travels in the clear: sealing starts only once
  // both HELLOs have bound the connection to a link session.
  append_frame(conn.wbuf, hello.data(), hello.size());
  count(kFramesSent);
  flush_writes(conn);
}

void Bus::connect(NodeId peer, std::uint16_t port) {
  add_route(peer, port);
  loop_.post([this, peer] {
    PeerState& ps = peers_[peer.value];
    if (ps.conn != 0 || ps.dialing != 0) return;
    ps.backoff = config_.backoff_initial;
    ps.dial_deadline = std::chrono::steady_clock::now() + config_.connect_deadline;
    dial(peer);
  });
}

void Bus::add_route(NodeId peer, std::uint16_t port) {
  loop_.post([this, peer, port] { peers_[peer.value].port = port; });
  const std::lock_guard<std::mutex> lock(routes_mu_);
  routes_.insert(peer.value);
}

bool Bus::send(NodeId peer, std::vector<std::uint8_t> payload) {
  if (peer == config_.self) return false;
  {
    const std::lock_guard<std::mutex> lock(routes_mu_);
    if (!routes_.contains(peer.value)) return false;
  }
  loop_.post([this, peer, payload = std::move(payload)]() mutable {
    PeerState& ps = peers_[peer.value];
    if (ps.conn != 0) {
      const auto it = conns_.find(ps.conn);
      if (it != conns_.end()) {
        enqueue_payload(*it->second, payload.data(), payload.size());
        return;
      }
      ps.conn = 0;
    }
    ps.pending.push_back(std::move(payload));
    if (ps.dialing == 0) {
      ps.backoff = config_.backoff_initial;
      ps.dial_deadline = std::chrono::steady_clock::now() + config_.connect_deadline;
      dial(peer);
    }
  });
  return true;
}

void Bus::reply(std::uint64_t conn, std::vector<std::uint8_t> payload) {
  loop_.post([this, conn, payload = std::move(payload)]() mutable {
    const auto it = conns_.find(conn);
    if (it == conns_.end() || !it->second->established) return;
    enqueue_payload(*it->second, payload.data(), payload.size());
  });
}

void Bus::dial(NodeId peer) {
  PeerState& ps = peers_[peer.value];
  if (ps.port == 0) {
    retry_dial(peer, "no-address");
    return;
  }
  bool in_progress = false;
  Fd fd;
  try {
    fd = connect_loopback(ps.port, &in_progress);
  } catch (const NetError&) {
    retry_dial(peer, "socket-failure");
    return;
  }
  if (!fd.valid()) {  // synchronous refusal (listener not up yet)
    retry_dial(peer, "refused");
    return;
  }
  count(kDialed);
  Connection& conn = adopt_connection(std::move(fd), /*inbound=*/false);
  conn.peer = peer;
  ps.dialing = conn.id;
  if (!in_progress) {
    on_dial_writable(conn.id, peer);
  }
}

void Bus::retry_dial(NodeId peer, const char* why) {
  PeerState& ps = peers_[peer.value];
  ps.dialing = 0;
  if (ps.conn != 0) return;  // a competing inbound connection won meanwhile
  if (std::chrono::steady_clock::now() >= ps.dial_deadline) {
    ps.pending.clear();
    if (config_.on_peer_down) {
      config_.on_peer_down(Peer{peer, 0, PeerRole::kNode}, "connect-deadline");
    }
    return;
  }
  count(kDialRetries);
  (void)why;
  const auto backoff = ps.backoff;
  ps.backoff = std::min(ps.backoff * 2, config_.backoff_max);
  loop_.run_after(backoff, [this, peer] {
    PeerState& ps2 = peers_[peer.value];
    if (ps2.conn != 0 || ps2.dialing != 0) return;
    dial(peer);
  });
}

void Bus::on_dial_writable(std::uint64_t conn_id, NodeId peer) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  const int err = connect_result(conn.fd.get());
  if (err != 0) {
    teardown(conn_id, "connect-refused");
    retry_dial(peer, "connect-refused");
    return;
  }
  conn.connecting = false;
  send_hello(conn);  // may tear the connection down on a write error
  const auto again = conns_.find(conn_id);
  if (again != conns_.end()) update_interest(*again->second);
}

void Bus::conn_readable(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  std::uint8_t buf[16384];
  while (true) {
    const long n = read_some(conn.fd.get(), buf, sizeof buf);
    if (n == -1) break;  // drained
    if (n == 0 || n == -2) {
      teardown(conn_id, n == 0 ? "peer-closed" : "read-error");
      return;
    }
    count(kBytesReceived, static_cast<std::uint64_t>(n));
    try {
      conn.splitter.feed(buf, static_cast<std::size_t>(n));
      while (conn.splitter.next(conn.payload)) {
        handle_frame(conn);
        if (!conns_.contains(conn_id)) return;  // handler tore us down
      }
    } catch (const FrameError&) {
      teardown(conn_id, "oversized-frame");
      return;
    }
  }
}

void Bus::handle_frame(Connection& conn) {
  count(kFramesReceived);
  if (!conn.hello_received) {
    handle_hello(conn);
    return;
  }
  if (!conn.established) {
    teardown(conn.id, "frame-before-establishment");
    return;
  }
  if (conn.plaintext) {
    if (config_.on_message) config_.on_message(peer_of(conn), std::move(conn.payload));
    return;
  }
  if (config_.frame_tap) config_.frame_tap(conn.peer, conn.payload);
  if (!conn.session->channel_from(conn.peer).open_into(
          conn.payload.data(), conn.payload.size(), conn.opened)) {
    // Integrity alarm: a deployed endpoint aborts the connection; both
    // sides invalidate the pair (teardown does) and the next send rekeys.
    count(kOpenFailures);
    teardown(conn.id, "aead-failure");
    return;
  }
  if (config_.on_message) {
    config_.on_message(peer_of(conn),
                       std::vector<std::uint8_t>(conn.opened.begin(), conn.opened.end()));
  }
}

void Bus::handle_hello(Connection& conn) {
  NodeId peer{0};
  PeerRole role = PeerRole::kNode;
  std::uint64_t remote_nonce = 0;
  try {
    wire::Reader r(conn.payload.data(), conn.payload.size());
    const std::uint32_t magic = r.u32();
    const std::uint8_t version = r.u8();
    const std::uint8_t role_byte = r.u8();
    peer = r.node_id();
    remote_nonce = r.u64();
    r.expect_done();
    if (magic != kHelloMagic || version != kHelloVersion || role_byte > 1) {
      count(kHandshakeFailures);
      teardown(conn.id, "bad-hello");
      return;
    }
    role = static_cast<PeerRole>(role_byte);
  } catch (const wire::WireError&) {
    count(kHandshakeFailures);
    teardown(conn.id, "malformed-hello");
    return;
  }
  // An outbound dial knows who it expects: a different id means the address
  // book is wrong, not that a new peer appeared.
  if (!conn.inbound && peer != conn.peer) {
    count(kHandshakeFailures);
    teardown(conn.id, "hello-id-mismatch");
    return;
  }
  conn.hello_received = true;
  conn.peer = peer;
  conn.peer_role = role;

  const bool node_link =
      config_.role == PeerRole::kNode && role == PeerRole::kNode;
  if (node_link) {
    PeerState& ps = peers_[peer.value];
    // Dedup: keep the connection initiated by the lower NodeId — a rule
    // both endpoints evaluate identically, so a simultaneous dial converges
    // on one stream. Same-direction duplicates (a redial racing a stale
    // connection) resolve to the newer one.
    const auto initiator = [&](const Connection& c) {
      return c.inbound ? c.peer : config_.self;
    };
    for (const std::uint64_t existing : {ps.conn, ps.dialing}) {
      if (existing == 0 || existing == conn.id) continue;
      const auto it = conns_.find(existing);
      if (it == conns_.end()) continue;
      Connection& old = *it->second;
      const bool keep_new = old.inbound == conn.inbound ||
                            initiator(conn).value < initiator(old).value;
      if (!keep_new) {
        teardown(conn.id, "duplicate-link");
        return;
      }
      teardown(existing, "superseded-link");
    }
    ps.conn = conn.id;
    if (ps.dialing == conn.id) ps.dialing = 0;
    conn.established = true;
    conn.plaintext = config_.links == nullptr;
    const std::uint64_t init_nonce = conn.inbound ? remote_nonce : conn.local_nonce;
    const std::uint64_t acc_nonce = conn.inbound ? conn.local_nonce : remote_nonce;
    conn.link_token = link_token_of(init_nonce, acc_nonce);
    if (config_.links != nullptr) {
      // The dispatcher binding: the session is derived from this stream's
      // token, so the two endpoints' independent tables agree on the keys
      // no matter how many competing connections either side churned
      // through before this one survived dedup.
      conn.session = &config_.links->establish(config_.self, peer, conn.link_token);
    }
    established_.fetch_add(1, std::memory_order_relaxed);
    if (config_.on_peer_up) config_.on_peer_up(peer_of(conn));
    const std::uint64_t id = conn.id;  // a write error may tear `conn` down
    while (!ps.pending.empty()) {
      const std::vector<std::uint8_t> payload = std::move(ps.pending.front());
      ps.pending.pop_front();
      const auto it = conns_.find(id);
      if (it == conns_.end()) return;
      enqueue_payload(*it->second, payload.data(), payload.size());
    }
    return;
  }
  // Client link (either side): plaintext service framing, keyed by
  // connection, never entered into the peer table.
  conn.established = true;
  conn.plaintext = true;
  established_.fetch_add(1, std::memory_order_relaxed);
  if (config_.on_peer_up) config_.on_peer_up(peer_of(conn));
}

void Bus::enqueue_payload(Connection& conn, const std::uint8_t* data,
                          std::size_t len) {
  const std::uint64_t id = conn.id;  // flush may tear `conn` down
  if (conn.plaintext) {
    append_frame(conn.wbuf, data, len);
  } else {
    conn.session->channel_from(config_.self).seal_into(data, len, seal_scratch_);
    append_frame(conn.wbuf, seal_scratch_.data(), seal_scratch_.size());
  }
  count(kFramesSent);
  flush_writes(conn);
  const auto it = conns_.find(id);
  if (it != conns_.end()) update_interest(*it->second);
}

void Bus::flush_writes(Connection& conn) {
  const obs::ScopedTimer flush_timer(flush_us_);
  while (conn.wpos < conn.wbuf.size()) {
    const long n = write_some(conn.fd.get(), conn.wbuf.data() + conn.wpos,
                              conn.wbuf.size() - conn.wpos);
    if (n == -1) break;  // kernel buffer full; wait for writability
    if (n == -2) {
      teardown(conn.id, "write-error");
      return;
    }
    conn.wpos += static_cast<std::size_t>(n);
    count(kBytesSent, static_cast<std::uint64_t>(n));
  }
  if (conn.wpos == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.wpos = 0;
    if (conn.closing) {
      // Don't declare the connection drained while payloads are still
      // queued behind its handshake (they reach wbuf via handle_hello).
      const auto pit = peers_.find(conn.peer.value);
      const bool pending = pit != peers_.end() && !pit->second.pending.empty();
      if (!pending) teardown(conn.id, "drained");
    }
  } else if (conn.wpos >= conn.wbuf.size() / 2) {
    conn.wbuf.erase(conn.wbuf.begin(),
                    conn.wbuf.begin() + static_cast<std::ptrdiff_t>(conn.wpos));
    conn.wpos = 0;
  }
}

void Bus::update_interest(Connection& conn) {
  std::uint32_t interest = EventLoop::kReadable;
  if (conn.connecting || conn.wpos < conn.wbuf.size()) {
    interest |= EventLoop::kWritable;
  }
  loop_.set_interest(conn.fd.get(), interest);
}

void Bus::conn_writable(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  flush_writes(conn);
  if (conns_.contains(conn_id)) update_interest(conn);
}

void Bus::teardown(std::uint64_t conn_id, const char* reason) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  loop_.remove_fd(conn.fd.get());
  const bool was_established = conn.established;
  const Peer peer = peer_of(conn);
  if (was_established) established_.fetch_sub(1, std::memory_order_relaxed);
  if (conn.session != nullptr) {
    // Drop the session only if it is still ours: a stale connection
    // closing after its pair re-established must not kill the successor.
    config_.links->invalidate_session(config_.self, conn.peer, conn.session);
  }
  if (config_.role == PeerRole::kNode && conn.hello_received &&
      conn.peer_role == PeerRole::kNode) {
    const auto pit = peers_.find(conn.peer.value);
    if (pit != peers_.end()) {
      if (pit->second.conn == conn_id) pit->second.conn = 0;
      if (pit->second.dialing == conn_id) pit->second.dialing = 0;
    }
  } else if (!conn.inbound) {
    const auto pit = peers_.find(conn.peer.value);
    if (pit != peers_.end() && pit->second.dialing == conn_id) {
      pit->second.dialing = 0;
    }
  }
  count(kTeardowns);
  conns_.erase(it);
  if (was_established && config_.on_peer_down) config_.on_peer_down(peer, reason);
}

void Bus::count(Counter counter, std::uint64_t n) {
  counts_[counter].add(n);
  totals_[counter]->add(n);
}

void Bus::drain_and_stop(std::chrono::milliseconds deadline) {
  {
    const std::lock_guard<std::mutex> lock(start_mu_);
    if (!started_) return;
  }
  const auto until = std::chrono::steady_clock::now() + deadline;
  loop_.post([this, until] {
    draining_ = true;
    if (listen_fd_.valid()) {
      loop_.remove_fd(listen_fd_.get());
      listen_fd_.reset();
    }
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    // raptee-lint: allow(no-unordered-iteration) id collection only; sorted below before the drain pass
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    // Drain in connection-id order: deterministic flush/close sequence.
    std::sort(ids.begin(), ids.end());
    for (const std::uint64_t id : ids) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Connection& conn = *it->second;
      // Payloads queued behind an in-flight handshake live in the peer's
      // pending deque, not the connection's write buffer yet — they count
      // as unflushed bytes for drain purposes.
      const auto pit = peers_.find(conn.peer.value);
      const bool pending = pit != peers_.end() && !pit->second.pending.empty();
      if (conn.wpos == conn.wbuf.size() && !pending) {
        teardown(id, "drain");
      } else {
        conn.closing = true;
      }
    }
    finish_drain(until);
  });
  thread_.join();
  const std::lock_guard<std::mutex> lock(start_mu_);
  started_ = false;
}

void Bus::finish_drain(std::chrono::steady_clock::time_point deadline) {
  if (conns_.empty() || std::chrono::steady_clock::now() >= deadline) {
    loop_.stop();
    return;
  }
  loop_.run_after(std::chrono::milliseconds(5),
                  [this, deadline] { finish_drain(deadline); });
}

void Bus::stop() {
  {
    const std::lock_guard<std::mutex> lock(start_mu_);
    if (!started_) return;
  }
  loop_.stop();
  thread_.join();
  const std::lock_guard<std::mutex> lock(start_mu_);
  started_ = false;
}

BusStats Bus::stats() const {
  BusStats stats;
  for (std::size_t i = 0; i < kCounters; ++i) {
    stats.*kCounterEntries[i].field = counts_[i].value();
  }
  return stats;
}

}  // namespace raptee::net
