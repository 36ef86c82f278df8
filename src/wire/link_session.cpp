#include "wire/link_session.hpp"

#include <string>
#include <utility>

namespace raptee::wire {

namespace {

std::uint64_t pair_key(NodeId lo, NodeId hi) {
  return (static_cast<std::uint64_t>(lo.value) << 32) | hi.value;
}

}  // namespace

LinkTable::LinkTable(const crypto::SymmetricKey& master) : master_(master) {}

std::uint32_t LinkTable::epoch_of(NodeId node) const {
  return node.value < epochs_.size() ? epochs_[node.value] : 0;
}

std::unique_ptr<LinkSession> LinkTable::make_session(NodeId lo, NodeId hi) {
  // Both endpoints of a deployed link would run a key agreement; the
  // simulator models the result: a per-establishment link secret known to
  // both (and only both) endpoints. The per-pair establishment counter
  // uniquifies re-established pairs (a rekeyed session never reuses a
  // keystream) while staying a pure function of the pair's history — two
  // independent tables seeded with the same master key agree on every key.
  ++derivations_;
  const std::uint32_t establishment = ++establishments_[pair_key(lo, hi)];
  const std::string label = "link-" + std::to_string(lo.value) + "-" +
                            std::to_string(hi.value) + "#" +
                            std::to_string(establishment);
  auto session = std::make_unique<LinkSession>(master_.derive(label), lo);
  session->epoch_lo = epoch_of(lo);
  session->epoch_hi = epoch_of(hi);
  return session;
}

LinkSession& LinkTable::session(NodeId a, NodeId b, std::uint64_t round) {
  const NodeId lo = a.value < b.value ? a : b;
  const NodeId hi = a.value < b.value ? b : a;
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t key = pair_key(lo, hi);
  const auto it = sessions_.find(key);
  if (it != sessions_.end() && it->second->epoch_lo == epoch_of(lo) &&
      it->second->epoch_hi == epoch_of(hi)) {
    it->second->last_used = round;
    return *it->second;
  }
  if (it != sessions_.end()) sessions_.erase(it);
  LinkSession& fresh = *sessions_.emplace(key, make_session(lo, hi)).first->second;
  fresh.last_used = round;
  return fresh;
}

LinkSession& LinkTable::establish(NodeId a, NodeId b, std::uint64_t token) {
  const NodeId lo = a.value < b.value ? a : b;
  const NodeId hi = a.value < b.value ? b : a;
  const std::lock_guard<std::mutex> lock(mu_);
  ++derivations_;
  // The token-labelled secret is a pure function of (master, pair, token):
  // both endpoints of the handshake that produced `token` derive it
  // identically from their own tables.
  const std::string label = "link-" + std::to_string(lo.value) + "-" +
                            std::to_string(hi.value) + "@" + std::to_string(token);
  auto session = std::make_unique<LinkSession>(master_.derive(label), lo);
  session->epoch_lo = epoch_of(lo);
  session->epoch_hi = epoch_of(hi);
  auto& slot = sessions_[pair_key(lo, hi)];
  slot = std::move(session);
  return *slot;
}

void LinkTable::invalidate(NodeId node) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (node.value >= epochs_.size()) epochs_.resize(node.value + 1, 0);
  ++epochs_[node.value];
}

void LinkTable::invalidate_pair(NodeId a, NodeId b) {
  const NodeId lo = a.value < b.value ? a : b;
  const NodeId hi = a.value < b.value ? b : a;
  const std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(pair_key(lo, hi));
}

void LinkTable::invalidate_session(NodeId a, NodeId b, const LinkSession* expected) {
  const NodeId lo = a.value < b.value ? a : b;
  const NodeId hi = a.value < b.value ? b : a;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(pair_key(lo, hi));
  if (it != sessions_.end() && it->second.get() == expected) sessions_.erase(it);
}

void LinkTable::retire_idle(std::uint64_t round, std::uint64_t max_idle) {
  const std::lock_guard<std::mutex> lock(mu_);
  // raptee-lint: allow(no-unordered-iteration) pure filter; which sessions retire depends only on per-session round stamps, not visit order
  std::erase_if(sessions_, [&](const auto& entry) {
    return entry.second->last_used + max_idle < round;
  });
}

std::size_t LinkTable::active_sessions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::uint64_t LinkTable::derivations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return derivations_;
}

}  // namespace raptee::wire
