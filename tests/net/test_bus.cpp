// Bus integration tests over real loopback sockets: HELLO establishment,
// queue-before-connect ordering, retriable dialing (dial before the
// listener exists), simultaneous-dial dedup, reconnect after a peer
// restart, sealed vs plaintext dispatch, event counting, and drain
// semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/key.hpp"
#include "net/bus.hpp"
#include "obs/registry.hpp"
#include "wire/link_session.hpp"

namespace raptee::net {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

/// `prefix` followed by `i` in decimal, e.g. "m7".
std::string numbered(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

std::string string_of(const std::vector<std::uint8_t>& v) {
  return {v.begin(), v.end()};
}

/// Collects delivered payloads with a condition variable for bounded waits.
struct Sink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::uint32_t, std::string>> messages;
  std::vector<std::uint32_t> ups;
  std::vector<std::uint32_t> downs;

  void on_message(const Peer& from, std::vector<std::uint8_t> payload) {
    const std::lock_guard<std::mutex> lock(mu);
    messages.emplace_back(from.id.value, string_of(payload));
    cv.notify_all();
  }
  void on_up(const Peer& peer) {
    const std::lock_guard<std::mutex> lock(mu);
    ups.push_back(peer.id.value);
    cv.notify_all();
  }
  void on_down(const Peer& peer, const char*) {
    const std::lock_guard<std::mutex> lock(mu);
    downs.push_back(peer.id.value);
    cv.notify_all();
  }

  bool wait_messages(std::size_t count, std::chrono::milliseconds budget = 5000ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, budget, [&] { return messages.size() >= count; });
  }
  bool wait_ups(std::size_t count, std::chrono::milliseconds budget = 5000ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, budget, [&] { return ups.size() >= count; });
  }
  bool wait_downs(std::size_t count, std::chrono::milliseconds budget = 5000ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, budget, [&] { return downs.size() >= count; });
  }
};

struct Endpoint {
  Sink sink;
  std::unique_ptr<wire::LinkTable> links;
  std::unique_ptr<Bus> bus;
  std::uint16_t port = 0;

  void build(std::uint32_t id, const crypto::SymmetricKey* master) {
    if (master) links = std::make_unique<wire::LinkTable>(*master);
    BusConfig config;
    config.self = NodeId{id};
    config.links = links.get();
    config.nonce_seed = 1000 + id;
    config.on_message = [this](const Peer& from, std::vector<std::uint8_t> payload) {
      sink.on_message(from, std::move(payload));
    };
    config.on_peer_up = [this](const Peer& peer) { sink.on_up(peer); };
    config.on_peer_down = [this](const Peer& peer, const char* why) {
      sink.on_down(peer, why);
    };
    bus = std::make_unique<Bus>(std::move(config));
    port = bus->listen(0);
    bus->start();
  }
};

TEST(Bus, SealedRoundTripBothDirections) {
  const crypto::SymmetricKey master = crypto::Drbg(7, "bus-test").generate_key();
  Endpoint a, b;
  a.build(1, &master);
  b.build(2, &master);
  a.bus->connect(NodeId{2}, b.port);
  b.bus->add_route(NodeId{1}, a.port);

  ASSERT_TRUE(a.bus->send(NodeId{2}, bytes_of("ping")));
  ASSERT_TRUE(b.sink.wait_messages(1));
  EXPECT_EQ(b.sink.messages[0], (std::pair<std::uint32_t, std::string>{1, "ping"}));

  ASSERT_TRUE(b.bus->send(NodeId{1}, bytes_of("pong")));
  ASSERT_TRUE(a.sink.wait_messages(1));
  EXPECT_EQ(a.sink.messages[0], (std::pair<std::uint32_t, std::string>{2, "pong"}));

  // One duplex connection serves both directions.
  EXPECT_EQ(a.bus->established_peers(), 1u);
  EXPECT_EQ(b.bus->established_peers(), 1u);
  a.bus->stop();
  b.bus->stop();
}

TEST(Bus, SendWithoutRouteFailsFast) {
  Endpoint a;
  a.build(1, nullptr);
  EXPECT_FALSE(a.bus->send(NodeId{9}, bytes_of("void")));  // no address known
  EXPECT_FALSE(a.bus->send(NodeId{1}, bytes_of("self")));  // self-send
  a.bus->stop();
}

TEST(Bus, QueueBeforeConnectDeliversInOrder) {
  Endpoint a, b;
  a.build(1, nullptr);
  b.build(2, nullptr);
  a.bus->add_route(NodeId{2}, b.port);
  // All sends before any connection exists: they queue, dial, flush FIFO.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.bus->send(NodeId{2}, bytes_of(numbered("m", i))));
  }
  ASSERT_TRUE(b.sink.wait_messages(20));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(b.sink.messages[i].second, numbered("m", i));
  }
  a.bus->stop();
  b.bus->stop();
}

TEST(Bus, DialRetriesUntilListenerAppears) {
  // Reserve a port, then release it so the first dials are refused.
  std::uint16_t port = 0;
  {
    auto [fd, bound] = listen_loopback(0);
    port = bound;
  }
  Endpoint a;
  a.build(1, nullptr);
  a.bus->add_route(NodeId{2}, port);
  ASSERT_TRUE(a.bus->send(NodeId{2}, bytes_of("early")));
  std::this_thread::sleep_for(50ms);  // several refused dial attempts
  Endpoint b;
  BusConfig config;
  config.self = NodeId{2};
  config.on_message = [&](const Peer& from, std::vector<std::uint8_t> payload) {
    b.sink.on_message(from, std::move(payload));
  };
  b.bus = std::make_unique<Bus>(std::move(config));
  ASSERT_EQ(b.bus->listen(port), port);
  b.bus->start();
  ASSERT_TRUE(b.sink.wait_messages(1));
  EXPECT_EQ(b.sink.messages[0].second, "early");
  EXPECT_GT(a.bus->stats().dial_retries, 0u);
  a.bus->stop();
  b.bus->stop();
}

TEST(Bus, GivesUpAfterConnectDeadline) {
  std::uint16_t dead_port = 0;
  {
    auto [fd, bound] = listen_loopback(0);
    dead_port = bound;
  }  // released: nothing listens here
  Endpoint a;
  a.links.reset();
  BusConfig config;
  config.self = NodeId{1};
  config.connect_deadline = 100ms;
  config.backoff_initial = 5ms;
  config.on_peer_down = [&](const Peer& peer, const char* why) {
    a.sink.on_down(peer, why);
  };
  a.bus = std::make_unique<Bus>(std::move(config));
  a.port = a.bus->listen(0);
  a.bus->start();
  a.bus->add_route(NodeId{2}, dead_port);
  ASSERT_TRUE(a.bus->send(NodeId{2}, bytes_of("doomed")));
  ASSERT_TRUE(a.sink.wait_downs(1));
  EXPECT_EQ(a.sink.downs[0], 2u);
  a.bus->stop();
}

TEST(Bus, SimultaneousDialDedupsToOneConnection) {
  const crypto::SymmetricKey master = crypto::Drbg(9, "dedup-test").generate_key();
  Endpoint a, b;
  a.build(1, &master);
  b.build(2, &master);
  // Both dial at once.
  a.bus->connect(NodeId{2}, b.port);
  b.bus->connect(NodeId{1}, a.port);
  ASSERT_TRUE(a.sink.wait_ups(1));
  ASSERT_TRUE(b.sink.wait_ups(1));
  // Whatever the race did, traffic flows and exactly one link survives.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.bus->send(NodeId{2}, bytes_of(numbered("a", i))));
    ASSERT_TRUE(b.bus->send(NodeId{1}, bytes_of(numbered("b", i))));
  }
  ASSERT_TRUE(a.sink.wait_messages(10));
  ASSERT_TRUE(b.sink.wait_messages(10));
  std::this_thread::sleep_for(50ms);  // let any loser connection finish dying
  EXPECT_EQ(a.bus->established_peers(), 1u);
  EXPECT_EQ(b.bus->established_peers(), 1u);
  EXPECT_EQ(a.bus->stats().open_failures, 0u);  // keys agreed despite the race
  EXPECT_EQ(b.bus->stats().open_failures, 0u);
  a.bus->stop();
  b.bus->stop();
}

TEST(Bus, ReconnectAfterPeerRestart) {
  const crypto::SymmetricKey master = crypto::Drbg(5, "restart").generate_key();
  Endpoint a;
  a.build(1, &master);
  std::uint16_t b_port = 0;
  {
    Endpoint b;
    b.build(2, &master);
    b_port = b.port;
    a.bus->connect(NodeId{2}, b_port);
    ASSERT_TRUE(a.bus->send(NodeId{2}, bytes_of("first")));
    ASSERT_TRUE(b.sink.wait_messages(1));
    b.bus->stop();  // hard stop: peer goes away
  }
  ASSERT_TRUE(a.sink.wait_downs(1));
  // Peer restarts on the same port with a FRESH link table (a rebooted
  // process has no cipher state): the handshake token rekeys both sides.
  Endpoint b2;
  b2.links = std::make_unique<wire::LinkTable>(master);
  BusConfig config;
  config.self = NodeId{2};
  config.links = b2.links.get();
  config.on_message = [&](const Peer& from, std::vector<std::uint8_t> payload) {
    b2.sink.on_message(from, std::move(payload));
  };
  b2.bus = std::make_unique<Bus>(std::move(config));
  ASSERT_EQ(b2.bus->listen(b_port), b_port);
  b2.bus->start();
  ASSERT_TRUE(a.bus->send(NodeId{2}, bytes_of("second")));
  ASSERT_TRUE(b2.sink.wait_messages(1));
  EXPECT_EQ(b2.sink.messages[0].second, "second");
  EXPECT_EQ(b2.bus->stats().open_failures, 0u);
  a.bus->stop();
  b2.bus->stop();
}

TEST(Bus, CountsEachEventOnceInStatsAndRegistry) {
  // The ten bus counters, written out apart from the bus's own table, so a
  // count filed under the wrong name or BusStats field shows here.
  struct Entry {
    const char* name;
    std::uint64_t BusStats::* field;
  };
  const Entry entries[] = {
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
  obs::Registry& registry = obs::Registry::global();
  std::vector<std::uint64_t> before;
  for (const Entry& entry : entries) {
    before.push_back(registry.counter(entry.name).value());
  }

  constexpr std::uint64_t kPayloads = 12;
  constexpr std::size_t kSize = 100;
  Endpoint a, b;
  a.build(1, nullptr);
  b.build(2, nullptr);
  a.bus->add_route(NodeId{2}, b.port);
  for (std::uint64_t i = 0; i < kPayloads; ++i) {
    const auto fill = static_cast<std::uint8_t>(0x40 + i);
    ASSERT_TRUE(a.bus->send(NodeId{2}, std::vector<std::uint8_t>(kSize, fill)));
  }
  ASSERT_TRUE(b.sink.wait_messages(kPayloads));
  // Stopping joins each loop thread, so every count is final below.
  a.bus->stop();
  b.bus->stop();

  const BusStats sa = a.bus->stats();
  const BusStats sb = b.bus->stats();
  // A plaintext frame is a 4-byte length prefix and its payload. Each side's
  // HELLO counts as a sent frame and sent bytes on its own bus, and as a
  // received frame and received bytes on its peer's.
  const std::uint64_t hello = 4 + encode_hello(NodeId{1}, PeerRole::kNode, 0).size();
  const std::uint64_t payload_bytes = kPayloads * (4 + kSize);
  EXPECT_EQ(sa.dialed, 1u);
  EXPECT_EQ(sa.accepted, 0u);
  EXPECT_EQ(sb.dialed, 0u);
  EXPECT_EQ(sb.accepted, 1u);
  EXPECT_EQ(sa.frames_sent, 1 + kPayloads);
  EXPECT_EQ(sa.frames_received, 1u);
  EXPECT_EQ(sb.frames_sent, 1u);
  EXPECT_EQ(sb.frames_received, 1 + kPayloads);
  EXPECT_EQ(sa.bytes_sent, hello + payload_bytes);
  EXPECT_EQ(sa.bytes_received, hello);
  EXPECT_EQ(sb.bytes_sent, hello);
  EXPECT_EQ(sb.bytes_received, hello + payload_bytes);
  EXPECT_EQ(sa.open_failures + sb.open_failures, 0u);
  EXPECT_EQ(sa.handshake_failures + sb.handshake_failures, 0u);
  // The registry totals moved by exactly the two buses' counts.
  for (std::size_t i = 0; i < std::size(entries); ++i) {
    EXPECT_EQ(registry.counter(entries[i].name).value() - before[i],
              sa.*entries[i].field + sb.*entries[i].field)
        << entries[i].name;
  }
}

TEST(Bus, DrainFlushesQueuedBytesBeforeStopping) {
  Endpoint a, b;
  a.build(1, nullptr);
  b.build(2, nullptr);
  a.bus->add_route(NodeId{2}, b.port);
  std::vector<std::uint8_t> big(200000, 0xAB);  // larger than a socket buffer
  ASSERT_TRUE(a.bus->send(NodeId{2}, big));
  a.bus->drain_and_stop(5000ms);
  ASSERT_TRUE(b.sink.wait_messages(1));
  EXPECT_EQ(b.sink.messages[0].second.size(), big.size());
  b.bus->stop();
}

}  // namespace
}  // namespace raptee::net
