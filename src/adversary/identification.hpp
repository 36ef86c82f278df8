// Trusted-node identification attack (paper §VI-A).
//
// Every Byzantine node reports the proportion of Byzantine IDs in each pull
// answer it receives from a non-Byzantine node. The adversary aggregates
// per victim, computes the population average, and flags a node as trusted
// when its answers contain `threshold` (10 percentage points) fewer
// Byzantine IDs than average — the signature Byzantine eviction leaves on
// a trusted node's view.
//
// The attack is the adversary's own ledger: the Coordinator holds it and
// every ByzantineNode records each pull reply it receives, keyed by the
// target it pulled. It sees exactly what the adversary sees, nothing more.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>

#include "common/types.hpp"

namespace raptee::adversary {

struct IdentificationResult {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  std::size_t flagged = 0;
  std::size_t true_positives = 0;
  std::size_t trusted_total = 0;
  Round evaluated_at = 0;
};

class IdentificationAttack {
 public:
  /// `is_byzantine` tells the attack which IDs belong to the adversary (its
  /// own members — legitimately known to it); `is_trusted` is the
  /// experiment's ground truth used ONLY to score the attack.
  IdentificationAttack(std::function<bool(NodeId)> is_byzantine,
                       std::function<bool(NodeId)> is_trusted);

  /// A member pulled `responder` and received `view`. Replies from fellow
  /// members are not observations and are ignored.
  void observe(NodeId responder, std::span<const NodeId> view);

  /// Classifies with the given threshold (paper: 0.10) over all
  /// observations accumulated so far and scores against ground truth.
  [[nodiscard]] IdentificationResult evaluate(Round now, double threshold = 0.10) const;

  /// Observation ledger size (victims with at least one observation).
  [[nodiscard]] std::size_t observed_victims() const { return ledger_.size(); }

 private:
  struct Observation {
    double share_sum = 0.0;
    std::size_t count = 0;
  };

  std::function<bool(NodeId)> is_byzantine_;
  std::function<bool(NodeId)> is_trusted_;
  std::unordered_map<std::uint32_t, Observation> ledger_;
};

}  // namespace raptee::adversary
