// Determinism gates for the pluggable adversary layer:
//
//  * every catalog strategy is same-seed bit-identical down to the
//    results::to_json bytes (the scale_links-style purity bar);
//  * the default balanced attack is byte-identical to the PRE-redesign
//    hardcoded adversary — asserted against SHA-256 digests of result JSON
//    captured from the seed tree before the IStrategy refactor (commit
//    715300c). If these golden hashes ever change, the balanced attack's
//    observable behaviour changed, which the redesign promised not to do;
//  * selecting balanced explicitly via ScenarioSpec::attack is the same
//    run as not selecting anything.
#include <gtest/gtest.h>

#include <string>

#include "adversary/strategy.hpp"
#include "crypto/sha256.hpp"
#include "scenario/scenario.hpp"

namespace raptee::scenario {
namespace {

// Golden digests of results::to_json(ExperimentResult) captured on the
// pre-redesign tree (see header comment) for the two configs below.
constexpr const char* kGoldenPlain =
    "c8fd25675e2e8f0cc7221870bdc079d888a99aaec21d83c1fd413c6af53a4b68";
constexpr const char* kGoldenChurnIdent =
    "f63e0d46febd8899066b662a9a94013dd12ffa620b21ea08dd5f7ad5a972d22c";

ScenarioSpec golden_plain_spec() {
  return ScenarioSpec()
      .population(128)
      .view_size(16)
      .rounds(64)
      .adversary(0.25)
      .trusted(0.2)
      .eviction(core::EvictionSpec::adaptive())
      .seed(99);
}

ScenarioSpec golden_churn_ident_spec() {
  return ScenarioSpec()
      .population(128)
      .view_size(16)
      .rounds(48)
      .adversary(0.2)
      .trusted_share(0.3)
      .eviction(core::EvictionSpec::fixed(0.4))
      .churn(metrics::ChurnSpec::steady(0.02))
      .identification()
      .wire_roundtrip(true)
      .seed(7);
}

std::string result_digest(const ScenarioSpec& spec) {
  return crypto::to_hex(crypto::sha256(results::to_json(spec.run())));
}

TEST(AttackDeterminism, BalancedDefaultMatchesPreRedesignGoldenBytes) {
  EXPECT_EQ(result_digest(golden_plain_spec()), kGoldenPlain)
      << "the balanced attack diverged from the pre-IStrategy adversary";
  EXPECT_EQ(result_digest(golden_churn_ident_spec()), kGoldenChurnIdent)
      << "balanced + churn + identification diverged from the golden run";
}

TEST(AttackDeterminism, GoldenDigestsHoldAtEveryEngineWidth) {
  // Wider engines run the exchanges in concurrent waves, with Byzantine
  // answers on positioned Coordinator streams and identification
  // observations recorded from pool threads: still the same bytes.
  for (const std::size_t width : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    EXPECT_EQ(result_digest(golden_plain_spec().threads(width)), kGoldenPlain)
        << "width " << width;
    EXPECT_EQ(result_digest(golden_churn_ident_spec().threads(width)), kGoldenChurnIdent)
        << "width " << width;
  }
}

TEST(AttackDeterminism, ExplicitBalancedIsTheDefaultRun) {
  const std::string defaulted = results::to_json(golden_plain_spec().run());
  const std::string explicit_balanced = results::to_json(
      golden_plain_spec().attack(adversary::AttackSpec::balanced()).run());
  EXPECT_EQ(defaulted, explicit_balanced);
}

TEST(AttackDeterminism, EveryRegisteredStrategyIsBitIdenticalAcrossRuns) {
  for (const adversary::StrategyEntry& entry : adversary::strategy_catalog()) {
    const std::string name(entry.name);
    const ScenarioSpec spec = ScenarioSpec()
                                  .population(128)
                                  .view_size(16)
                                  .rounds(32)
                                  .adversary(0.2)
                                  .trusted_share(0.25)
                                  .eviction(core::EvictionSpec::adaptive())
                                  .attack(name)
                                  .seed(4242);
    const std::string first = results::to_json(spec.run());
    const std::string second = results::to_json(spec.run());
    EXPECT_EQ(first, second) << "strategy '" << name
                             << "' is not same-seed deterministic";
    EXPECT_TRUE(metrics::json_valid(first)) << name;
  }
}

TEST(AttackDeterminism, StrategiesProduceDistinctRuns) {
  // The catalog must actually differ behaviourally: pairwise-distinct
  // result bytes for the same (seed, population).
  std::vector<std::string> docs;
  for (const adversary::StrategyEntry& entry : adversary::strategy_catalog()) {
    const std::string name(entry.name);
    docs.push_back(results::to_json(ScenarioSpec()
                                        .population(128)
                                        .view_size(16)
                                        .rounds(32)
                                        .adversary(0.2)
                                        .trusted_share(0.25)
                                        .attack(name)
                                        .seed(4242)
                                        .run()));
  }
  for (std::size_t i = 0; i < docs.size(); ++i) {
    for (std::size_t j = i + 1; j < docs.size(); ++j) {
      EXPECT_NE(docs[i], docs[j]) << "strategies " << i << " and " << j
                                  << " are observationally identical";
    }
  }
}

}  // namespace
}  // namespace raptee::scenario
