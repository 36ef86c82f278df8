// TrustedStore: a trusted node's memory of peers that have proven group
// membership via mutual authentication.
//
// The paper's trusted nodes "learn their mutual trusted capacity without
// revealing it to others" (§I). The store backs two things:
//   * diagnostics — how fast trusted nodes find each other;
//   * the optional trusted-overlay extension (design decision D1): one
//     extra Jelasity-style exchange per round with the oldest known
//     trusted peer, OFF by default to stay paper-faithful.
//
// Entries age like view entries and can be capped (the overlay sub-view).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace raptee::core {

class TrustedStore {
 public:
  explicit TrustedStore(std::size_t capacity = 64) : capacity_(capacity) {
    peers_.reserve(capacity);
  }

  /// Records a successful mutual authentication with `peer`.
  void note_trusted(NodeId peer);
  [[nodiscard]] bool is_known_trusted(NodeId peer) const;
  [[nodiscard]] std::size_t size() const { return peers_.size(); }
  [[nodiscard]] std::vector<NodeId> peers() const;

  /// Oldest known trusted peer (tail selection for the overlay extension).
  [[nodiscard]] std::optional<NodeId> oldest() const;
  [[nodiscard]] std::optional<NodeId> random(Rng& rng) const;

  /// Ages all entries; call once per round.
  void next_round();

  /// Forgets a peer (e.g. repeated exchange timeouts — likely crashed).
  void forget(NodeId peer);

 private:
  struct Entry {
    NodeId id;
    std::uint32_t age = 0;
  };

  std::size_t capacity_;
  std::vector<Entry> peers_;
};

}  // namespace raptee::core
