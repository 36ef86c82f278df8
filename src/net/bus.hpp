// Async socket bus: persistent duplex TCP connections carrying the
// existing wire format over loopback.
//
// One Bus is one transport endpoint (a RAPTEE node or a service daemon).
// It owns an EventLoop on a dedicated thread and multiplexes any number of
// connections over it:
//
//   * framing      — every frame is a 4-byte length prefix + payload of
//                    at most kMaxFrame bytes, either way (net/frame.hpp);
//                    the payload bytes are exactly what the caller handed
//                    send(), sealed when applicable.
//   * handshake    — the first frame each way is a HELLO (magic, version,
//                    role, NodeId, a per-connection nonce); everything
//                    after it is payload.
//   * dispatch     — after HELLO, a node-node connection is bound to a
//                    wire::LinkTable session established from the link
//                    token (both HELLO nonces, initiator-first): outgoing
//                    payloads are sealed with LinkCipher (seq || ct || tag)
//                    and incoming frames opened before delivery. Because
//                    the token is a property of the surviving TCP stream,
//                    both endpoints' independent same-master tables derive
//                    byte-identical session keys even when a simultaneous
//                    dial creates and destroys competing connections in
//                    different orders on the two sides — and the sealed
//                    socket bytes are byte-identical to the simulator's
//                    wire path for the same master key and token.
//                    Client connections (role kClient — e.g. the service
//                    load generator) carry plaintext frames: an anonymous
//                    client shares no master key, and the peer-sampling
//                    service it queries is public-read by design.
//   * retriable dialing — connect() records the peer's address and dials
//                    with exponential backoff (backoff_initial, doubling to
//                    backoff_max) until connect_deadline; payloads sent
//                    before establishment queue and flush in order on
//                    success. A later send() to a torn-down peer re-dials
//                    automatically.
//   * dedup        — when both endpoints dial each other, the connection
//                    initiated by the LOWER NodeId survives on both sides
//                    (a deterministic, symmetric rule), so a pair never
//                    carries sealed traffic on two streams at once.
//   * counters     — each BusStats event is counted once, on the loop
//                    thread, in this bus's stats() and in the process-wide
//                    "bus.*" registry totals.
//
// Threading: connect/send/reply/stats are safe from any thread; all
// callbacks run on the loop thread and must not block.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "wire/link_session.hpp"

namespace raptee::net {

enum class PeerRole : std::uint8_t {
  kNode = 0,    ///< a cluster endpoint; frames sealed via the link table
  kClient = 1,  ///< an anonymous service client; plaintext frames
};

/// HELLO handshake constants and codec, shared with out-of-process clients
/// (the load generator speaks the handshake without owning a Bus).
inline constexpr std::uint32_t kHelloMagic = 0x42545052;  // "RPTB" on the wire
inline constexpr std::uint8_t kHelloVersion = 1;
[[nodiscard]] std::vector<std::uint8_t> encode_hello(NodeId self, PeerRole role,
                                                     std::uint64_t nonce);

/// Message-source identity handed to callbacks. `conn` uniquely names the
/// connection — the reply key for clients, whose NodeIds are not unique.
struct Peer {
  NodeId id{0};
  std::uint64_t conn = 0;
  PeerRole role = PeerRole::kNode;
  /// Link-session token agreed in the handshake (0 for plaintext links).
  /// LinkTable::establish(self, id, link_token) on any same-master table
  /// reproduces the connection's session keys — the fidelity tests use it.
  std::uint64_t link_token = 0;
};

struct BusStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dialed = 0;
  std::uint64_t dial_retries = 0;
  std::uint64_t teardowns = 0;
  std::uint64_t open_failures = 0;  ///< sealed frames that failed to open
  /// HELLOs rejected before establishment (bad magic/version/role,
  /// malformed bytes, or an outbound dial answered by the wrong NodeId).
  std::uint64_t handshake_failures = 0;
};

struct BusConfig {
  NodeId self{0};
  PeerRole role = PeerRole::kNode;
  /// Sealing table for node-node connections; nullptr = plaintext frames
  /// even between nodes (framing-only mode).
  wire::LinkTable* links = nullptr;
  std::chrono::milliseconds connect_deadline{3000};
  std::chrono::milliseconds backoff_initial{10};
  std::chrono::milliseconds backoff_max{250};
  /// Base for per-connection HELLO nonces; 0 = seeded from the system
  /// entropy source. Tests pin it for reproducible link tokens.
  std::uint64_t nonce_seed = 0;

  // Callbacks (all on the loop thread; any may be empty).
  std::function<void(const Peer&, std::vector<std::uint8_t> payload)> on_message;
  std::function<void(const Peer&)> on_peer_up;
  std::function<void(const Peer&, const char* reason)> on_peer_down;
  /// Test instrumentation: every received payload frame of a sealed
  /// connection, exactly as it crossed the socket (before opening). Used by
  /// the wire-fidelity tests to compare transported bytes against the
  /// simulator's sealed legs.
  std::function<void(NodeId from, const std::vector<std::uint8_t>& sealed)> frame_tap;
};

class Bus {
 public:
  explicit Bus(BusConfig config);
  ~Bus();
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral); returns the
  /// bound port. Call before start().
  std::uint16_t listen(std::uint16_t port);

  /// Starts the loop thread. Idempotent.
  void start();

  /// Records `peer`'s address and dials it now (async, retried with
  /// backoff until connect_deadline). Safe from any thread.
  void connect(NodeId peer, std::uint16_t port);
  /// Records the address without dialing; the first send() dials.
  void add_route(NodeId peer, std::uint16_t port);

  /// Queues `payload` to `peer` (node-role connections only): delivered in
  /// send order once the connection is up, dialing first if needed. Returns
  /// false if the bus was never given an address for `peer` (the payload is
  /// dropped); queued payloads of a dial that exhausts its deadline are
  /// dropped with on_peer_down.
  bool send(NodeId peer, std::vector<std::uint8_t> payload);

  /// Queues `payload` on a specific connection (the service reply path).
  /// Dropped silently if the connection is gone.
  void reply(std::uint64_t conn, std::vector<std::uint8_t> payload);

  /// Stops accepting new connections, lets every queued outgoing byte
  /// flush (up to `deadline`), tears the connections down and stops the
  /// loop. Blocks. Used by rapteed's SIGTERM drain.
  void drain_and_stop(std::chrono::milliseconds deadline);

  /// Immediate stop: tears everything down without flushing. Blocks.
  void stop();

  [[nodiscard]] BusStats stats() const;
  [[nodiscard]] std::size_t established_peers() const {
    return established_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    std::uint64_t id = 0;
    Fd fd;
    bool inbound = false;
    bool connecting = false;      // non-blocking connect still pending
    bool hello_received = false;
    bool established = false;
    bool closing = false;         // drain: tear down once wbuf flushes
    NodeId peer{0};
    PeerRole peer_role = PeerRole::kNode;
    bool plaintext = true;
    std::uint64_t local_nonce = 0;  // ours, sent in HELLO
    std::uint64_t link_token = 0;   // mixed from both nonces at establishment
    wire::LinkSession* session = nullptr;
    FrameSplitter splitter;
    std::vector<std::uint8_t> payload;   // frame-reassembly scratch
    std::vector<std::uint8_t> opened;    // AEAD-open scratch
    std::vector<std::uint8_t> wbuf;      // pending outgoing stream bytes
    std::size_t wpos = 0;
  };

  struct PeerState {
    std::uint64_t conn = 0;     // established connection, 0 = none
    std::uint64_t dialing = 0;  // in-flight outbound attempt, 0 = none
    std::uint16_t port = 0;     // known address, 0 = unknown
    std::chrono::milliseconds backoff{0};
    std::chrono::steady_clock::time_point dial_deadline;
    std::deque<std::vector<std::uint8_t>> pending;  // plaintext payloads
  };

  // --- loop-thread only ---
  void register_listener();
  void accept_ready();
  Connection& adopt_connection(Fd fd, bool inbound);
  void send_hello(Connection& conn);
  void dial(NodeId peer);
  void retry_dial(NodeId peer, const char* why);
  void on_dial_writable(std::uint64_t conn_id, NodeId peer);
  void conn_readable(std::uint64_t conn_id);
  void conn_writable(std::uint64_t conn_id);
  void handle_frame(Connection& conn);
  void handle_hello(Connection& conn);
  void enqueue_payload(Connection& conn, const std::uint8_t* data, std::size_t len);
  void flush_writes(Connection& conn);
  void update_interest(Connection& conn);
  void teardown(std::uint64_t conn_id, const char* reason);
  void finish_drain(std::chrono::steady_clock::time_point deadline);
  [[nodiscard]] Peer peer_of(const Connection& conn) const {
    return Peer{conn.peer, conn.id, conn.peer_role, conn.link_token};
  }

  /// Indexes the counter table in bus.cpp (registry name, BusStats field).
  enum Counter : std::size_t {
    kFramesSent,
    kFramesReceived,
    kBytesSent,
    kBytesReceived,
    kAccepted,
    kDialed,
    kDialRetries,
    kTeardowns,
    kOpenFailures,
    kHandshakeFailures,
    kCounters
  };
  /// Adds `n` to this bus's count of `counter` and to its registry total.
  void count(Counter counter, std::uint64_t n = 1);

  BusConfig config_;
  EventLoop loop_;
  std::thread thread_;
  bool started_ = false;
  std::mutex start_mu_;

  Fd listen_fd_;
  std::uint16_t listen_port_ = 0;
  bool draining_ = false;

  std::uint64_t next_conn_ = 1;
  std::uint64_t nonce_base_ = 0;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<std::uint32_t, PeerState> peers_;  // key: NodeId.value
  std::vector<std::uint8_t> seal_scratch_;

  // --- any thread ---
  std::atomic<std::size_t> established_{0};
  mutable std::mutex routes_mu_;
  std::unordered_set<std::uint32_t> routes_;  // peers with a known address

  // This bus's event counts, and their process-wide "bus.*" totals (additive
  // across Bus instances — see obs/registry.hpp): relaxed adds on the loop
  // thread, read from any thread. totals_ and flush_us_ point into
  // Registry::global(), resolved once in the constructor.
  std::array<obs::Counter, kCounters> counts_;
  std::array<obs::Counter*, kCounters> totals_{};
  obs::Histogram* flush_us_ = nullptr;
};

}  // namespace raptee::net
