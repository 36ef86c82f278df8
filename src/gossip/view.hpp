// Age-tagged partial view — the core data structure of gossip-based peer
// sampling (Jelasity et al., TOCS 2007). Entries are unique node
// descriptors carrying an age (rounds since the descriptor was created).
// Used by Brahms' dynamic view V and by RAPTEE's trusted exchanges, whose
// swaps merge through framework_merge. ids() is the one allocating read;
// copy_ids() fills the engine's view slab.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace raptee::gossip {

struct ViewEntry {
  NodeId id;
  std::uint32_t age = 0;

  friend bool operator==(const ViewEntry&, const ViewEntry&) = default;
};

class PartialView {
 public:
  PartialView() = default;
  /// A fixed-capacity view preallocates its entry storage inline: the
  /// entry vector never reallocates during protocol operation, which keeps
  /// per-round view maintenance off the heap (the SoA engine slab depends
  /// on capacity() being a round-stable bound).
  explicit PartialView(std::size_t capacity) : capacity_(capacity) {
    entries_.reserve(capacity);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }
  [[nodiscard]] const std::vector<ViewEntry>& entries() const { return entries_; }
  [[nodiscard]] std::vector<NodeId> ids() const;
  /// Allocation-free form of ids() for hot paths: copies at most `cap` ids
  /// into `out` and returns the count written — the shape Engine::
  /// refresh_views consumes.
  std::size_t copy_ids(NodeId* out, std::size_t cap) const;
  [[nodiscard]] bool contains(NodeId id) const;

  /// Increments every entry's age (once per round).
  void age_all();

  /// Inserts a descriptor. On duplicate keeps the *fresher* age (Jelasity et
  /// al.: a newer descriptor supersedes an older one). Returns true if the
  /// id was not present. Fails (returns false) when full and absent —
  /// callers decide the replacement policy explicitly.
  bool insert(NodeId id, std::uint32_t age = 0);

  bool remove(NodeId id);
  void clear() { entries_.clear(); }

  /// One id drawn uniformly *with replacement semantics* (Brahms target
  /// selection); view must be non-empty.
  [[nodiscard]] NodeId pick_id(Rng& rng) const;

  /// Truncates to capacity by removing random entries.
  void truncate_random(Rng& rng);

  /// Merge policy of Jelasity et al.'s exchanges in RAPTEE's swap setting
  /// (heal H = 0, swap S = |sent|): append `received` skipping ids equal to
  /// `self` and keeping the fresher age of ids already present, then shrink
  /// back to capacity by dropping first the entries we just sent (`sent`),
  /// then random ones.
  void framework_merge(const std::vector<ViewEntry>& received, NodeId self,
                       const std::vector<NodeId>& sent, Rng& rng);

 private:
  std::size_t capacity_ = 0;
  std::vector<ViewEntry> entries_;
};

}  // namespace raptee::gossip
