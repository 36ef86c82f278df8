// LoopbackCluster: N real RAPTEE nodes on localhost, each a full endpoint —
// its own BrahmsNode protocol instance, its own LinkTable (derived from the
// shared deployment master key), its own Bus on its own port — exchanging
// the genuine five-leg wire format (wire::Message codec bytes, sealed with
// LinkCipher) over real TCP connections.
//
// This is the integration vehicle the transport exists for: the simulator
// proves the protocol at scale, the cluster proves the same protocol
// objects converge when every leg crosses a socket. Round structure:
//
//   run_rounds(r) drives rounds from the caller thread. Per round, for
//   every node: begin_round; pushes fan out (fire-and-forget, exactly the
//   engine's phase 2); each pull target gets the five-leg exchange —
//   PullRequest is sent and the driver blocks (bounded) for the PullReply,
//   the AuthConfirm goes back, and the responder's legs (answer_pull,
//   process_confirm) plus the async SwapReply close run on the receiving
//   endpoint's bus thread; then end_round. A missing reply times out into
//   on_pull_timeout, the same degradation path the engine models as loss.
//
// Concurrency: each endpoint's BrahmsNode is guarded by a per-endpoint
// mutex — the driver thread (initiator legs) and the endpoint's bus loop
// thread (responder legs) both take it; leg handlers never block on other
// endpoints, so lock ordering is trivially acyclic (one lock at a time).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "brahms/node.hpp"
#include "common/types.hpp"
#include "core/node_factory.hpp"
#include "net/bus.hpp"
#include "wire/link_session.hpp"
#include "wire/message.hpp"

namespace raptee::net {

struct ClusterConfig {
  std::size_t nodes = 9;
  std::uint64_t seed = 1;
  /// Brahms view size for the cluster (small populations want small l1).
  std::size_t view_size = 8;
  /// Per-leg reply budget before the initiator declares a pull timeout.
  std::chrono::milliseconds reply_timeout{1500};
  std::uint64_t nonce_seed = 0;  ///< pins link tokens for reproducible tests
};

class LoopbackCluster {
 public:
  explicit LoopbackCluster(ClusterConfig config);
  ~LoopbackCluster();

  /// Binds every endpoint, starts every bus, distributes the address book,
  /// and bootstraps each node with a ring neighbourhood (successor + one) —
  /// convergence then demonstrates dissemination, not bootstrap knowledge.
  void start();

  /// Drives `count` full rounds (blocking).
  void run_rounds(std::uint64_t count);

  /// Distinct peers currently in node `i`'s dynamic view.
  [[nodiscard]] std::vector<NodeId> view_of(std::size_t i) const;
  [[nodiscard]] std::size_t size() const { return endpoints_.size(); }
  [[nodiscard]] BusStats bus_stats(std::size_t i) const;
  [[nodiscard]] std::uint64_t pulls_completed() const { return pulls_completed_; }
  [[nodiscard]] std::uint64_t pulls_timed_out() const { return pulls_timed_out_; }

  /// Drains every bus and joins. Idempotent.
  void stop();

 private:
  struct Endpoint {
    NodeId id{0};
    std::uint16_t port = 0;
    std::unique_ptr<wire::LinkTable> links;
    std::unique_ptr<brahms::BrahmsNode> node;
    std::unique_ptr<Bus> bus;

    mutable std::mutex node_mu;   // guards *node (driver + bus thread)
    std::mutex pull_mu;           // guards the pending-pull slot below
    std::condition_variable pull_cv;
    std::optional<NodeId> awaiting_reply_from;
    std::optional<wire::PullReply> pending_reply;
  };

  void on_message(Endpoint& ep, const Peer& from, std::vector<std::uint8_t> payload);
  void run_exchange(Endpoint& ep, NodeId target);

  ClusterConfig config_;
  std::unique_ptr<core::NodeFactory> factory_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  sim::RoundScratch end_round_scratch_;  // run_rounds calls end_round serially
  std::uint64_t round_ = 0;
  std::uint64_t pulls_completed_ = 0;
  std::uint64_t pulls_timed_out_ = 0;
  bool started_ = false;
};

}  // namespace raptee::net
