#include "gossip/view.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace raptee::gossip {

std::vector<NodeId> PartialView::ids() const {
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.id);
  return out;
}

std::size_t PartialView::copy_ids(NodeId* out, std::size_t cap) const {
  const std::size_t n = entries_.size() < cap ? entries_.size() : cap;
  for (std::size_t i = 0; i < n; ++i) out[i] = entries_[i].id;
  return n;
}

bool PartialView::contains(NodeId id) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [id](const ViewEntry& e) { return e.id == id; });
}

void PartialView::age_all() {
  for (auto& e : entries_) ++e.age;
}

bool PartialView::insert(NodeId id, std::uint32_t age) {
  for (auto& e : entries_) {
    if (e.id == id) {
      e.age = std::min(e.age, age);
      return false;
    }
  }
  if (full()) return false;
  entries_.push_back({id, age});
  return true;
}

bool PartialView::remove(NodeId id) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const ViewEntry& e) { return e.id == id; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

NodeId PartialView::pick_id(Rng& rng) const {
  RAPTEE_ASSERT_MSG(!entries_.empty(), "pick from empty view");
  return entries_[static_cast<std::size_t>(rng.below(entries_.size()))].id;
}

void PartialView::truncate_random(Rng& rng) {
  while (entries_.size() > capacity_) {
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(rng.below(entries_.size())));
  }
}

void PartialView::framework_merge(const std::vector<ViewEntry>& received, NodeId self,
                                  const std::vector<NodeId>& sent, Rng& rng) {
  // Append (dedup on id keeping the freshest copy, never include self).
  for (const ViewEntry& e : received) {
    if (e.id == self) continue;
    bool merged = false;
    for (auto& existing : entries_) {
      if (existing.id == e.id) {
        existing.age = std::min(existing.age, e.age);
        merged = true;
        break;
      }
    }
    if (!merged) entries_.push_back(e);
  }
  // Shrink back to capacity: swapped-out entries first, then random — the
  // framework order with no heal step.
  if (entries_.size() > capacity_) {
    std::size_t to_drop = entries_.size() - capacity_;
    for (NodeId id : sent) {
      if (to_drop == 0) break;
      if (remove(id)) --to_drop;
    }
  }
  truncate_random(rng);
}

}  // namespace raptee::gossip
