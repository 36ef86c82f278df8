#include "net/cluster.hpp"

#include <utility>

#include "common/assert.hpp"

namespace raptee::net {

LoopbackCluster::LoopbackCluster(ClusterConfig config) : config_(std::move(config)) {
  RAPTEE_REQUIRE(config_.nodes >= 2, "cluster needs at least 2 nodes");
}

LoopbackCluster::~LoopbackCluster() { stop(); }

void LoopbackCluster::start() {
  RAPTEE_REQUIRE(!started_, "LoopbackCluster::start called twice");
  started_ = true;
  factory_ = std::make_unique<core::NodeFactory>(config_.seed,
                                                 brahms::AuthMode::kFingerprint);
  // The deployment trust root: every endpoint derives its link secrets from
  // the same master key through its own independent LinkTable.
  const crypto::SymmetricKey master =
      crypto::Drbg(config_.seed, "cluster-link-master").generate_key();

  brahms::BrahmsConfig nc;
  nc.params.l1 = config_.view_size;
  nc.params.l2 = config_.view_size;
  nc.params.validate();

  endpoints_.reserve(config_.nodes);
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->id = NodeId{static_cast<std::uint32_t>(i)};
    if (config_.encrypt) {
      ep->links = std::make_unique<wire::LinkTable>(master);
    }
    ep->node = factory_->make_honest(ep->id, nc);
    endpoints_.push_back(std::move(ep));
  }
  for (auto& owned : endpoints_) {
    Endpoint& ep = *owned;
    BusConfig bc;
    bc.self = ep.id;
    bc.role = PeerRole::kNode;
    bc.links = ep.links.get();
    bc.nonce_seed = config_.nonce_seed == 0
                        ? 0
                        : config_.nonce_seed + (ep.id.value << 20);
    bc.on_message = [this, &ep](const Peer& from, std::vector<std::uint8_t> payload) {
      on_message(ep, from, std::move(payload));
    };
    ep.bus = std::make_unique<Bus>(std::move(bc));
    ep.port = ep.bus->listen(0);
  }
  for (auto& owned : endpoints_) {
    Endpoint& ep = *owned;
    ep.bus->start();
    for (const auto& other : endpoints_) {
      if (other->id == ep.id) continue;
      ep.bus->add_route(other->id, other->port);
    }
  }
  // Ring bootstrap: node i knows only its two successors.
  const std::size_t n = endpoints_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<NodeId> ring = {endpoints_[(i + 1) % n]->id,
                                      endpoints_[(i + 2) % n]->id};
    const std::lock_guard<std::mutex> lock(endpoints_[i]->node_mu);
    endpoints_[i]->node->bootstrap(ring);
  }
}

void LoopbackCluster::on_message(Endpoint& ep, const Peer& from,
                                 std::vector<std::uint8_t> payload) {
  if (from.role != PeerRole::kNode) return;  // clients have no business here
  wire::Message msg;
  try {
    msg = wire::decode(payload.data(), payload.size());
  } catch (const wire::WireError&) {
    return;  // Byzantine bytes: drop, exactly the engine's posture
  }
  if (const auto* push = std::get_if<wire::PushMessage>(&msg)) {
    const std::lock_guard<std::mutex> lock(ep.node_mu);
    ep.node->on_push(*push);
    return;
  }
  if (const auto* request = std::get_if<wire::PullRequest>(&msg)) {
    wire::PullReply reply;
    {
      const std::lock_guard<std::mutex> lock(ep.node_mu);
      reply = ep.node->answer_pull(*request);
    }
    ep.bus->send(request->sender, wire::encode(wire::Message{std::move(reply)}));
    return;
  }
  if (auto* reply = std::get_if<wire::PullReply>(&msg)) {
    const std::lock_guard<std::mutex> lock(ep.pull_mu);
    if (ep.awaiting_reply_from && *ep.awaiting_reply_from == reply->sender) {
      ep.pending_reply = std::move(*reply);
      ep.pull_cv.notify_one();
    }
    return;  // unsolicited/late replies are dropped (timeout already fired)
  }
  if (const auto* confirm = std::get_if<wire::AuthConfirm>(&msg)) {
    std::optional<wire::SwapReply> swap;
    {
      const std::lock_guard<std::mutex> lock(ep.node_mu);
      swap = ep.node->process_confirm(*confirm);
    }
    if (swap) {
      ep.bus->send(confirm->sender, wire::encode(wire::Message{std::move(*swap)}));
    }
    return;
  }
  if (const auto* swap = std::get_if<wire::SwapReply>(&msg)) {
    const std::lock_guard<std::mutex> lock(ep.node_mu);
    ep.node->process_swap_reply(*swap);
    return;
  }
}

void LoopbackCluster::run_exchange(Endpoint& ep, NodeId target) {
  wire::PullRequest request;
  {
    const std::lock_guard<std::mutex> lock(ep.node_mu);
    request = ep.node->open_pull(target);
  }
  {
    const std::lock_guard<std::mutex> lock(ep.pull_mu);
    ep.awaiting_reply_from = target;
    ep.pending_reply.reset();
  }
  ep.bus->send(target, wire::encode(wire::Message{std::move(request)}));

  std::optional<wire::PullReply> reply;
  {
    std::unique_lock<std::mutex> lock(ep.pull_mu);
    ep.pull_cv.wait_for(lock, config_.reply_timeout,
                        [&] { return ep.pending_reply.has_value(); });
    reply = std::move(ep.pending_reply);
    ep.awaiting_reply_from.reset();
    ep.pending_reply.reset();
  }
  if (!reply) {
    ++pulls_timed_out_;
    const std::lock_guard<std::mutex> lock(ep.node_mu);
    ep.node->on_pull_timeout(target);
    return;
  }
  wire::AuthConfirm confirm;
  {
    const std::lock_guard<std::mutex> lock(ep.node_mu);
    confirm = ep.node->process_pull_reply(*reply);
  }
  ep.bus->send(target, wire::encode(wire::Message{std::move(confirm)}));
  ++pulls_completed_;
  // The responder's optional SwapReply closes asynchronously on our bus
  // thread (process_swap_reply in on_message) — exactly a deployed
  // initiator, which does not block its round on the trusted-swap tail.
}

void LoopbackCluster::run_rounds(std::uint64_t count) {
  std::vector<NodeId> targets;  // each node's push, then pull, targets
  for (std::uint64_t r = 0; r < count; ++r, ++round_) {
    for (auto& owned : endpoints_) {
      const std::lock_guard<std::mutex> lock(owned->node_mu);
      owned->node->begin_round(round_);
    }
    // Phase 2: push fan-out (fire and forget).
    for (auto& owned : endpoints_) {
      Endpoint& ep = *owned;
      wire::PushMessage push{};
      {
        const std::lock_guard<std::mutex> lock(ep.node_mu);
        ep.node->push_targets(targets);
        push = ep.node->make_push();
      }
      const std::vector<std::uint8_t> bytes = wire::encode(wire::Message{push});
      for (const NodeId t : targets) {
        if (t == ep.id) continue;
        ep.bus->send(t, bytes);
      }
    }
    // Phase 3: pull exchanges, each a real five-leg socket round trip.
    for (auto& owned : endpoints_) {
      Endpoint& ep = *owned;
      {
        const std::lock_guard<std::mutex> lock(ep.node_mu);
        ep.node->pull_targets(targets);
      }
      for (const NodeId t : targets) {
        if (t == ep.id) continue;
        run_exchange(ep, t);
      }
    }
    for (auto& owned : endpoints_) {
      const std::lock_guard<std::mutex> lock(owned->node_mu);
      owned->node->end_round(round_);
    }
  }
}

std::vector<NodeId> LoopbackCluster::view_of(std::size_t i) const {
  const Endpoint& ep = *endpoints_.at(i);
  const std::lock_guard<std::mutex> lock(ep.node_mu);
  return ep.node->view().ids();
}

BusStats LoopbackCluster::bus_stats(std::size_t i) const {
  return endpoints_.at(i)->bus->stats();
}

void LoopbackCluster::stop() {
  for (auto& owned : endpoints_) {
    if (owned->bus) owned->bus->drain_and_stop(std::chrono::milliseconds(500));
  }
}

}  // namespace raptee::net
