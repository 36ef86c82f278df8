#include "adversary/identification.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace raptee::adversary {

IdentificationAttack::IdentificationAttack(std::size_t population,
                                           std::function<bool(NodeId)> is_byzantine,
                                           std::function<bool(NodeId)> is_trusted)
    : is_byzantine_(std::move(is_byzantine)),
      is_trusted_(std::move(is_trusted)),
      ledger_(population) {
  RAPTEE_REQUIRE(is_byzantine_ && is_trusted_, "identification attack needs oracles");
}

void IdentificationAttack::observe(NodeId responder, std::span<const NodeId> view) {
  if (is_byzantine_(responder)) return;
  RAPTEE_ASSERT_MSG(responder.value < ledger_.size(),
                    "observation of node " << responder.value << " outside the population");
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

std::size_t IdentificationAttack::observed_victims() const {
  return static_cast<std::size_t>(std::count_if(
      ledger_.begin(), ledger_.end(), [](const Observation& obs) { return obs.count > 0; }));
}

IdentificationResult IdentificationAttack::evaluate(Round now, double threshold) const {
  IdentificationResult result;
  result.evaluated_at = now;
  const std::size_t observed = observed_victims();
  if (observed == 0) return result;

  // The per-node shares are summed in floating point, so the summation
  // order reaches the precision/recall/f1 numbers exported into bench
  // JSON: every walk goes by ascending node ID.
  double total = 0.0;
  for (const Observation& obs : ledger_) {
    if (obs.count > 0) total += obs.share_sum / static_cast<double>(obs.count);
  }
  const double average = total / static_cast<double>(observed);

  std::size_t flagged = 0, true_positives = 0, trusted_observed = 0;
  for (std::size_t id = 0; id < ledger_.size(); ++id) {
    const Observation& obs = ledger_[id];
    if (obs.count == 0) continue;
    const bool truth = is_trusted_(NodeId{static_cast<std::uint32_t>(id)});
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
