#include "brahms/sampler.hpp"

#include <algorithm>
#include <bit>

namespace raptee::brahms {

SamplerArray::SamplerArray(std::size_t l2, Rng& rng) {
  samplers_.reserve(l2);
  for (std::size_t i = 0; i < l2; ++i) samplers_.emplace_back(rng.next());
}

std::vector<NodeId> SamplerArray::sample_list() const {
  std::vector<NodeId> out;
  sample_list_into(out);
  return out;
}

void SamplerArray::sample_list_into(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(samplers_.size());
  for (const auto& s : samplers_) {
    if (s.holds_sample()) out.push_back(s.sample());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void SamplerArray::history_sample(std::size_t k, Rng& rng, std::vector<NodeId>& out,
                                  std::vector<std::size_t>& indices) const {
  sample_list_into(out);
  indices.reserve(samplers_.size());
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
  for (auto& s : samplers_) {
    if (s.holds_sample() && !alive(s.sample())) {
      s.reinit(rng.next());
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
