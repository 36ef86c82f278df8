// §VI-A identification attack: synthetic observation streams with known
// ground truth, verifying the classifier and its scoring.
#include "adversary/identification.hpp"

#include <gtest/gtest.h>

namespace raptee::adversary {
namespace {

// Population layout for these tests:
//   ids 0..9   honest
//   ids 10..11 trusted
//   ids 90..99 Byzantine
bool is_byz(NodeId id) { return id.value >= 90; }
bool is_trusted(NodeId id) { return id.value == 10 || id.value == 11; }

/// View with `byz_count` Byzantine ids out of `total`.
std::vector<NodeId> view_with(std::size_t byz_count, std::size_t total) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < byz_count; ++i) out.emplace_back(90 + (i % 10));
  for (std::size_t i = byz_count; i < total; ++i) out.emplace_back(i % 10);
  return out;
}

TEST(Identification, RequiresOracles) {
  EXPECT_THROW(IdentificationAttack({}, is_trusted), std::invalid_argument);
  EXPECT_THROW(IdentificationAttack(is_byz, {}), std::invalid_argument);
}

TEST(Identification, FlagsCleanerTrustedNodes) {
  IdentificationAttack attack(is_byz, is_trusted);
  // Honest nodes answer with 50% Byzantine views; trusted with 10%.
  for (std::uint32_t honest = 0; honest < 10; ++honest) {
    attack.observe(NodeId{honest}, view_with(10, 20));
  }
  attack.observe(NodeId{10}, view_with(2, 20));
  attack.observe(NodeId{11}, view_with(2, 20));

  const auto result = attack.evaluate(1, 0.10);
  EXPECT_EQ(result.flagged, 2u);
  EXPECT_EQ(result.true_positives, 2u);
  EXPECT_DOUBLE_EQ(result.precision, 1.0);
  EXPECT_DOUBLE_EQ(result.recall, 1.0);
  EXPECT_DOUBLE_EQ(result.f1, 1.0);
  EXPECT_EQ(result.trusted_total, 2u);
  EXPECT_EQ(result.evaluated_at, 1u);
}

TEST(Identification, IndistinguishableViewsYieldNoFlags) {
  IdentificationAttack attack(is_byz, is_trusted);
  for (std::uint32_t node = 0; node < 12; ++node) {
    attack.observe(NodeId{node}, view_with(8, 20));
  }
  const auto result = attack.evaluate(1);
  EXPECT_EQ(result.flagged, 0u);
  EXPECT_DOUBLE_EQ(result.recall, 0.0);
  EXPECT_DOUBLE_EQ(result.f1, 0.0);
}

TEST(Identification, FalsePositivesLowerPrecision) {
  IdentificationAttack attack(is_byz, is_trusted);
  // Honest node 0 happens to have a clean view too (false positive).
  attack.observe(NodeId{0}, view_with(1, 20));
  attack.observe(NodeId{10}, view_with(1, 20));
  for (std::uint32_t honest = 1; honest < 10; ++honest) {
    attack.observe(NodeId{honest}, view_with(10, 20));
  }
  const auto result = attack.evaluate(1, 0.10);
  EXPECT_EQ(result.flagged, 2u);
  EXPECT_EQ(result.true_positives, 1u);
  EXPECT_DOUBLE_EQ(result.precision, 0.5);
  // Recall over observed trusted (only node 10 observed): 1/1.
  EXPECT_DOUBLE_EQ(result.recall, 1.0);
}

TEST(Identification, ThresholdControlsSensitivity) {
  IdentificationAttack attack(is_byz, is_trusted);
  for (std::uint32_t honest = 0; honest < 10; ++honest) {
    attack.observe(NodeId{honest}, view_with(10, 20));
  }
  // Trusted only slightly cleaner: 40% vs 50%.
  attack.observe(NodeId{10}, view_with(8, 20));
  EXPECT_EQ(attack.evaluate(1, /*threshold=*/0.05).flagged, 1u);
  EXPECT_EQ(attack.evaluate(1, /*threshold=*/0.20).flagged, 0u);
}

TEST(Identification, ObservationsAccumulateAcrossRounds) {
  IdentificationAttack attack(is_byz, is_trusted);
  // Noisy per-round snapshots average out: trusted node alternates 20%/30%,
  // honest nodes 50%/60%.
  for (Round r = 0; r < 10; ++r) {
    for (std::uint32_t honest = 0; honest < 6; ++honest) {
      attack.observe(NodeId{honest}, view_with(r % 2 ? 10 : 12, 20));
    }
    attack.observe(NodeId{10}, view_with(r % 2 ? 4 : 6, 20));
  }
  const auto result = attack.evaluate(10, 0.10);
  EXPECT_EQ(result.flagged, 1u);
  EXPECT_DOUBLE_EQ(result.precision, 1.0);
}

TEST(Identification, OnlyNonByzantineRespondersAreObserved) {
  IdentificationAttack attack(is_byz, is_trusted);
  // Reply from a Byzantine responder: not a victim observation.
  attack.observe(NodeId{95}, view_with(20, 20));
  EXPECT_EQ(attack.observed_victims(), 0u);
  // Genuine observation.
  attack.observe(NodeId{3}, view_with(5, 20));
  EXPECT_EQ(attack.observed_victims(), 1u);
}

TEST(Identification, EmptyLedgerEvaluatesToZero) {
  IdentificationAttack attack(is_byz, is_trusted);
  const auto result = attack.evaluate(5);
  EXPECT_EQ(result.flagged, 0u);
  EXPECT_DOUBLE_EQ(result.f1, 0.0);
}

TEST(Identification, EmptyViewCountsAsCleanObservation) {
  IdentificationAttack attack(is_byz, is_trusted);
  attack.observe(NodeId{3}, {});
  EXPECT_EQ(attack.observed_victims(), 1u);
}

}  // namespace
}  // namespace raptee::adversary
