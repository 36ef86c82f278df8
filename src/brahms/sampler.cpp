#include "brahms/sampler.hpp"

#include <algorithm>
#include <bit>

#include "brahms/sampler_kernel.hpp"
#include "common/assert.hpp"

namespace raptee::brahms {

namespace detail {

void sampler_feed_portable(const std::uint64_t* seeds, std::uint64_t* hashes,
                           NodeId* samples, std::size_t l2, std::span<const NodeId> ids) {
  for (NodeId id : ids) {
    for (std::size_t i = 0; i < l2; ++i) {
      const std::uint64_t h = crypto::MinWiseHash(seeds[i])(id);
      if (h <= hashes[i]) {
        hashes[i] = h;
        samples[i] = id;
      }
    }
  }
}

SamplerFeedKernel sampler_feed_kernel() {
  static const SamplerFeedKernel kernel = [] {
    const SamplerFeedKernel avx512 = sampler_feed_avx512_kernel();
    return avx512 != nullptr ? avx512 : &sampler_feed_portable;
  }();
  return kernel;
}

}  // namespace detail

SamplerArray::SamplerArray(std::size_t l2, Rng& rng)
    : seeds_(l2), hashes_(l2, ~0ull), samples_(l2, kNoNode) {
  for (std::uint64_t& seed : seeds_) seed = rng.next();
}

void SamplerArray::feed_all(std::span<const NodeId> ids) {
  RAPTEE_ASSERT(std::find(ids.begin(), ids.end(), kNoNode) == ids.end());
  detail::sampler_feed_kernel()(seeds_.data(), hashes_.data(), samples_.data(), size(), ids);
}

std::vector<NodeId> SamplerArray::sample_list() const {
  std::vector<NodeId> out;
  sample_list_into(out);
  return out;
}

void SamplerArray::sample_list_into(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(samples_.size());
  for (NodeId id : samples_) {
    if (id.valid()) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void SamplerArray::history_sample(std::size_t k, Rng& rng, std::vector<NodeId>& out,
                                  std::vector<std::size_t>& indices) const {
  sample_list_into(out);
  indices.reserve(samples_.size());
  rng.sample_indices_into(out.size(), k, indices);
  // Gather out[indices[j]] to position j in two passes: the picks are
  // parked in `indices` so no read sees an already overwritten slot.
  for (std::size_t& i : indices) i = out[i].value;
  out.resize(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    out[j] = NodeId{static_cast<std::uint32_t>(indices[j])};
  }
}

std::size_t SamplerArray::validate(const std::function<bool(NodeId)>& alive, Rng& rng) {
  std::size_t reinitialized = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (samples_[i].valid() && !alive(samples_[i])) {
      seeds_[i] = rng.next();
      hashes_[i] = ~0ull;
      samples_[i] = kNoNode;
      ++reinitialized;
    }
  }
  return reinitialized;
}

void SamplerFeed::reset(NodeId self, std::size_t expected) {
  self_ = self;
  // Load factor at most 1/2 with `expected` IDs in.
  std::size_t slots = 16;
  while (slots < 2 * expected) slots *= 2;
  if (slots > slots_.size()) {
    ids_.clear();
    rehash(slots);
    return;
  }
  for (NodeId id : ids_) {
    std::size_t i = slot_of(id.value);
    while (slots_[i] != id.value) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = NodeId::kInvalid;
  }
  ids_.clear();
}

void SamplerFeed::add(NodeId id) {
  if (id == self_ || !id.valid()) return;
  if (2 * (ids_.size() + 1) > slots_.size()) rehash(slots_.empty() ? 16 : 2 * slots_.size());
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(id.value);; i = (i + 1) & mask) {
    if (slots_[i] == id.value) return;
    if (slots_[i] == NodeId::kInvalid) {
      slots_[i] = id.value;
      ids_.push_back(id);
      return;
    }
  }
}

void SamplerFeed::rehash(std::size_t slots) {
  slots_.assign(slots, NodeId::kInvalid);
  ids_.reserve(slots / 2);  // the most add() lets in before the next rehash
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  const std::size_t mask = slots - 1;
  for (NodeId id : ids_) {
    std::size_t i = slot_of(id.value);
    while (slots_[i] != NodeId::kInvalid) i = (i + 1) & mask;
    slots_[i] = id.value;
  }
}

}  // namespace raptee::brahms
