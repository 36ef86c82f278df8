#include "adversary/identification.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"

namespace raptee::adversary {

IdentificationAttack::IdentificationAttack(std::function<bool(NodeId)> is_byzantine,
                                           std::function<bool(NodeId)> is_trusted)
    : is_byzantine_(std::move(is_byzantine)), is_trusted_(std::move(is_trusted)) {
  RAPTEE_REQUIRE(is_byzantine_ && is_trusted_, "identification attack needs oracles");
}

void IdentificationAttack::observe(NodeId responder, std::span<const NodeId> view) {
  if (is_byzantine_(responder)) return;
  std::size_t byz = 0;
  for (NodeId id : view) {
    if (is_byzantine_(id)) ++byz;
  }
  const double share =
      view.empty() ? 0.0 : static_cast<double>(byz) / static_cast<double>(view.size());
  Observation& obs = ledger_[responder.value];
  obs.share_sum += share;
  ++obs.count;
}

IdentificationResult IdentificationAttack::evaluate(Round now, double threshold) const {
  IdentificationResult result;
  result.evaluated_at = now;
  if (ledger_.empty()) return result;

  // Traverse the ledger in sorted key order: the per-node shares are
  // accumulated in floating point, so the summation order reaches the
  // precision/recall/f1 numbers exported into bench JSON — hash-table
  // order must never decide result bytes.
  std::vector<std::uint32_t> ids;
  ids.reserve(ledger_.size());
  // raptee-lint: allow(no-unordered-iteration) key collection only; sorted before any order-sensitive use
  for (const auto& [id, obs] : ledger_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  // Average Byzantine share across all observed honest nodes.
  double total = 0.0;
  for (const std::uint32_t id : ids) {
    const Observation& obs = ledger_.at(id);
    total += obs.share_sum / static_cast<double>(obs.count);
  }
  const double average = total / static_cast<double>(ledger_.size());

  std::size_t flagged = 0, true_positives = 0, trusted_observed = 0;
  for (const std::uint32_t id : ids) {
    const Observation& obs = ledger_.at(id);
    const NodeId node{id};
    const bool truth = is_trusted_(node);
    if (truth) ++trusted_observed;
    const double node_share = obs.share_sum / static_cast<double>(obs.count);
    if (average - node_share > threshold) {
      ++flagged;
      if (truth) ++true_positives;
    }
  }

  result.flagged = flagged;
  result.true_positives = true_positives;
  result.trusted_total = trusted_observed;
  result.precision = flagged ? static_cast<double>(true_positives) /
                                   static_cast<double>(flagged)
                             : 0.0;
  result.recall = trusted_observed ? static_cast<double>(true_positives) /
                                         static_cast<double>(trusted_observed)
                                   : 0.0;
  result.f1 = (result.precision + result.recall) > 0.0
                  ? 2.0 * result.precision * result.recall /
                        (result.precision + result.recall)
                  : 0.0;
  return result;
}

}  // namespace raptee::adversary
