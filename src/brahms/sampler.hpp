// Brahms' local sampling component: l2 independent samplers, each holding
// the stream element minimizing a per-sampler min-wise independent hash
// (Broder et al.). Over any stream that contains each alive ID infinitely
// often, each sampler converges to an unbiased uniform sample, immune to
// adversarial over-representation in the stream.
//
// Sample *validation* (churn defence): Brahms periodically probes the
// currently held sample; if it stopped responding the sampler re-draws its
// hash function and restarts, so departed nodes eventually wash out of S.
//
// MinWiseHash is a bijection on IDs for a fixed seed, so two distinct IDs
// never tie and a sampler's state after a stream is a function of the set
// of distinct IDs in it, not of their order or multiplicity. SamplerFeed
// relies on that: it feeds each distinct ID of a round once.
//
// SamplerArray holds its samplers as parallel arrays (seeds, held hashes,
// held samples) and feeds them through one kernel the process picks once
// (sampler_kernel.hpp), under one branch-free rule: a sampler takes an ID
// whose hash is <= its held hash, and an empty sampler holds hash ~0 and
// kNoNode. That is exactly Sampler::next's rule (take when empty or on a
// strictly lower hash). Every hash is <= ~0, so an empty sampler always
// takes the ID, even one whose hash is ~0 itself. A holding sampler ties
// only with the ID it holds (the bijection), and taking that again changes
// nothing. kNoNode is never fed: every feed drops it first.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/minwise.hpp"

namespace raptee::brahms {

/// One sampler on its own: the reference SamplerArray's kernels are held
/// against in the tests.
class Sampler {
 public:
  explicit Sampler(std::uint64_t hash_seed) : hash_(hash_seed) {}

  /// Feeds one stream element.
  void next(NodeId id) {
    const std::uint64_t h = hash_(id);
    if (!current_.valid() || h < current_hash_) {
      current_ = id;
      current_hash_ = h;
    }
  }

  /// Currently held sample (kNoNode until the first element arrives).
  [[nodiscard]] NodeId sample() const { return current_; }
  [[nodiscard]] bool holds_sample() const { return current_.valid(); }

  /// Re-initializes with a fresh hash function, forgetting the held sample.
  void reinit(std::uint64_t new_hash_seed) {
    hash_ = crypto::MinWiseHash(new_hash_seed);
    current_ = kNoNode;
    current_hash_ = ~0ull;
  }

 private:
  crypto::MinWiseHash hash_;
  NodeId current_ = kNoNode;
  std::uint64_t current_hash_ = ~0ull;
};

class SamplerArray {
 public:
  /// Creates `l2` empty samplers with independent hash seeds drawn from
  /// `rng`.
  SamplerArray(std::size_t l2, Rng& rng);

  /// Feeds one stream element (never kNoNode).
  void feed(NodeId id) { feed_all({&id, 1}); }
  /// Feeds every element of `ids` (none kNoNode) to every sampler.
  void feed_all(std::span<const NodeId> ids);

  [[nodiscard]] std::size_t size() const { return seeds_.size(); }

  /// Sampler i's held sample (kNoNode until its first element arrives).
  [[nodiscard]] NodeId sample(std::size_t i) const { return samples_[i]; }

  /// Distinct IDs currently held across all samplers.
  [[nodiscard]] std::vector<NodeId> sample_list() const;

  /// `k` IDs drawn uniformly (without replacement) from the distinct held
  /// samples — the γ·l1 "history sample" of the view renewal. Clears and
  /// fills `out`; `indices` is the draw's scratch. Both keep their
  /// capacity, and the draws are those of rng.sample(sample_list(), k).
  void history_sample(std::size_t k, Rng& rng, std::vector<NodeId>& out,
                      std::vector<std::size_t>& indices) const;

  /// Probes every held sample with `alive`; re-initializes samplers whose
  /// sample fails the probe, each with a fresh seed from `rng`. Returns
  /// the number re-initialized.
  std::size_t validate(const std::function<bool(NodeId)>& alive, Rng& rng);

 private:
  /// Clears `out` and fills it with sample_list()'s IDs.
  void sample_list_into(std::vector<NodeId>& out) const;

  std::vector<std::uint64_t> seeds_;   ///< sampler i's MinWiseHash seed
  std::vector<std::uint64_t> hashes_;  ///< the held sample's hash; ~0 when empty
  std::vector<NodeId> samples_;        ///< the held sample; kNoNode when empty
};

/// The exact per-round dedup of a sampler feed: an open-addressing set of
/// the distinct IDs added since reset(), which are then fed to the samplers
/// once each. It drops `self` and kNoNode, as the feed always has, so the
/// samplers end the round exactly as if fed the raw stream. The table is
/// sized from the expected count, never from a received ID's value (a
/// tampered leg can deliver IDs near 2^32); it grows when a round outruns
/// it and keeps its capacity, so one feed serves a whole block of nodes.
class SamplerFeed {
 public:
  /// Starts a feed that drops `self`, with room for `expected` distinct
  /// IDs before the table grows.
  void reset(NodeId self, std::size_t expected);
  /// Adds one stream element; a duplicate, `self` or kNoNode is dropped.
  void add(NodeId id);
  /// The distinct IDs added since reset(), in first-seen order.
  [[nodiscard]] std::span<const NodeId> ids() const { return ids_; }

 private:
  /// Rebuilds the table with `slots` (a power of two) empty slots, then
  /// re-inserts ids_.
  void rehash(std::size_t slots);
  [[nodiscard]] std::size_t slot_of(std::uint32_t value) const {
    return static_cast<std::size_t>((value * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  NodeId self_;
  std::vector<std::uint32_t> slots_;  ///< NodeId::kInvalid marks an empty slot
  unsigned shift_ = 64;               ///< 64 - log2(slots_.size())
  std::vector<NodeId> ids_;
};

}  // namespace raptee::brahms
