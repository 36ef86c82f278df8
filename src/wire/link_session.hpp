// Persistent per-pair link sessions.
//
// The paper's §III-B link encryption is a *session* property in a real
// deployment: two nodes run one key agreement, then amortize the derived
// cipher state over every exchange they perform. LinkTable models exactly
// that: one LinkSession per unordered node pair, cached across exchanges
// and rounds.
//
//   * session(a, b, round) establishes (or returns) the pair's session;
//     establishment derives a fresh link secret from the engine's master
//     key, uniquified by a per-pair establishment counter so a
//     re-established pair never reuses a keystream. Derivation cost drops
//     from O(exchanges × rounds) to O(active pairs).
//   * Sequence numbers run continuously across exchanges and rounds (nonce
//     continuity); the session is torn down and re-established on churn
//     (invalidate(node)) and on AEAD failure (invalidate_pair), exactly as
//     a deployed endpoint would rekey after a crash or an integrity alarm.
//   * retire_idle(round, max_idle) bounds memory on large populations:
//     pairs that stopped exchanging are dropped and re-derive on next use.
//
// Determinism: the table draws no simulation randomness — session keys are
// a pure function of (master key, pair, establishment index) — and its
// sessions are per pair, so a round's exchanges may run in concurrent
// waves (no two exchanges of a wave share a node, hence a pair).
//
// Distributed agreement: two endpoints that each own an independent
// LinkTable constructed from the same master key derive byte-identical
// session secrets through establish(a, b, token) — the token is agreed in
// the transport handshake (both HELLO nonces of the surviving TCP
// connection, net::Bus), so key agreement is a property of the *stream*
// and survives simultaneous-dial races where the two endpoints create and
// tear down competing connections in different orders. The simulator's
// counter-based session() path models the same thing for its in-memory
// links, where establishment order is trivially symmetric.
//
// Concurrency contract (the transport dispatches from multiple
// connections while the engine may keep its own single-threaded table):
//   * Every LinkTable method is internally locked — concurrent session(),
//     invalidate(), invalidate_pair(), retire_idle() and the stat getters
//     are safe from any thread.
//   * Sessions are heap-pinned: the LinkSession& returned by session()
//     stays valid across rehashes and other pairs' establishment or
//     retirement. It dies only when ITS pair is invalidated, retired, or
//     re-established — callers must not use a reference across such an
//     event for the same pair.
//   * The LinkSession object itself (its two LinkCipher streams) is NOT
//     internally synchronized: at most one thread may seal/open on a given
//     pair's session at a time. The transport satisfies this structurally —
//     one connection owns one pair, and all of a connection's I/O runs on
//     its bus's loop thread. tests/wire/test_link_session_threads.cpp
//     enforces the table-level guarantees under TSan.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "crypto/key.hpp"
#include "wire/link_cipher.hpp"

namespace raptee::wire {

/// One cached duplex session between an unordered node pair. Each direction
/// is a single LinkCipher carrying both the send and the receive sequence
/// counter — the round-synchronous simulator delivers in order, so sealing
/// and opening one leg advance the two counters in lockstep. (Two socket
/// endpoints each hold their own equal-keyed copy and use the send counter
/// of one direction and the receive counter of the other.)
struct LinkSession {
  LinkSession(const crypto::SymmetricKey& secret, NodeId lo)
      : lo_to_hi(secret, 0), hi_to_lo(secret, 1), lo_(lo) {}

  /// The channel that transmits from `from` (one of the pair's endpoints).
  [[nodiscard]] LinkCipher& channel_from(NodeId from) {
    return from == lo_ ? lo_to_hi : hi_to_lo;
  }

  LinkCipher lo_to_hi;
  LinkCipher hi_to_lo;
  NodeId lo_;  ///< the pair's lower id (direction anchor)
  std::uint32_t epoch_lo = 0;  ///< endpoint epochs at establishment
  std::uint32_t epoch_hi = 0;
  std::uint64_t last_used = 0;  ///< round of last session() hit
};

class LinkTable {
 public:
  explicit LinkTable(const crypto::SymmetricKey& master);

  /// The session for the unordered pair {a, b}, establishing it on first
  /// use, after invalidation, or after idle retirement. The reference stays
  /// valid until the next invalidate/retire_idle/session teardown FOR THIS
  /// PAIR (see the concurrency contract above).
  [[nodiscard]] LinkSession& session(NodeId a, NodeId b, std::uint64_t round);

  /// Transport-handshake establishment: derives the pair's session from
  /// `token` (agreed by both endpoints of one connection) instead of the
  /// local establishment counter, and replaces any cached session for the
  /// pair. Two independent same-master tables calling establish with the
  /// same token derive byte-identical secrets. The caller must guarantee no
  /// other live reference to the pair's previous session exists (net::Bus
  /// tears the superseded connection down first).
  [[nodiscard]] LinkSession& establish(NodeId a, NodeId b, std::uint64_t token);

  /// Invalidates every session involving `node` (O(1): epoch bump); the
  /// next exchange with each peer re-establishes with a fresh key. Called
  /// by the engine on churn transitions (crash and rejoin).
  void invalidate(NodeId node);

  /// Tears down one pair's session (AEAD failure or connection close: a
  /// deployed endpoint aborts the link and re-handshakes).
  void invalidate_pair(NodeId a, NodeId b);

  /// Like invalidate_pair, but only if the pair's cached session is still
  /// `expected` — a stale connection closing after the pair re-established
  /// must not tear down the successor's session.
  void invalidate_session(NodeId a, NodeId b, const LinkSession* expected);

  /// Drops sessions not used for more than `max_idle` rounds, bounding
  /// memory to the working set of actively exchanging pairs.
  void retire_idle(std::uint64_t round, std::uint64_t max_idle);

  /// Cached sessions currently held.
  [[nodiscard]] std::size_t active_sessions() const;
  /// Total link-secret derivations performed — the bench/scale_links gate:
  /// O(active pairs), where per-exchange derivation would be O(exchanges).
  [[nodiscard]] std::uint64_t derivations() const;

 private:
  [[nodiscard]] std::unique_ptr<LinkSession> make_session(NodeId lo, NodeId hi);
  [[nodiscard]] std::uint32_t epoch_of(NodeId node) const;

  crypto::SymmetricKey master_;
  mutable std::mutex mu_;
  /// key: lo << 32 | hi. unique_ptr pins each session so references stay
  /// valid across rehashes (part of the concurrency contract).
  std::unordered_map<std::uint64_t, std::unique_ptr<LinkSession>> sessions_;
  /// Per-pair establishment counters (never reset — uniquify keystreams
  /// across re-establishments and keep independent endpoint tables in
  /// agreement; see the distributed-agreement note).
  std::unordered_map<std::uint64_t, std::uint32_t> establishments_;
  std::vector<std::uint32_t> epochs_;  // per-node invalidation epochs
  std::uint64_t derivations_ = 0;
};

}  // namespace raptee::wire
