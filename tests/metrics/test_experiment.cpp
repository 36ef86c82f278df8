#include "metrics/experiment.hpp"

#include <gtest/gtest.h>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace raptee::metrics {
namespace {

// The metrics layer is exercised through configs materialized by the
// public builder — the same path every bench and test takes.
scenario::ScenarioSpec tiny_spec() {
  return scenario::ScenarioSpec()
      .population(80)
      .adversary(0.10)
      .trusted(0.10)
      .view_size(16)
      .eviction(core::EvictionSpec::adaptive())
      .rounds(20)
      .seed(5);
}

ExperimentConfig tiny_config() { return tiny_spec().config(); }

TEST(ExperimentConfig, CountsAreRounded) {
  ExperimentConfig config = tiny_config();
  EXPECT_EQ(config.byzantine_count(), 8u);
  EXPECT_EQ(config.trusted_count(), 8u);
  EXPECT_EQ(config.poisoned_count(), 0u);
  config.poisoned_extra_fraction = 0.05;
  EXPECT_EQ(config.poisoned_count(), 4u);
}

TEST(ExperimentConfig, ValidationCatchesBadInput) {
  ExperimentConfig config = tiny_config();
  config.n = 2;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = tiny_config();
  config.byzantine_fraction = 0.7;
  config.trusted_fraction = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = tiny_config();
  config.rounds = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = tiny_config();
  config.brahms.alpha = 0.5;  // sums to 1.1
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Experiment, ProducesSaneMetrics) {
  const auto result = run_experiment(tiny_config());
  EXPECT_GE(result.steady_pollution, 0.0);
  EXPECT_LE(result.steady_pollution, 1.0);
  EXPECT_EQ(result.pollution_series.size(), 20u);
  EXPECT_EQ(result.min_knowledge_series.size(), 20u);
  EXPECT_GT(result.pulls_completed, 0u);
  // Pollution reflects the attack: clearly above zero.
  EXPECT_GT(result.steady_pollution, 0.02);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_experiment(tiny_config());
  const auto b = run_experiment(tiny_config());
  EXPECT_EQ(a.steady_pollution, b.steady_pollution);
  EXPECT_EQ(a.pollution_series, b.pollution_series);
  EXPECT_EQ(a.swaps_completed, b.swaps_completed);
}

TEST(Experiment, SeedChangesOutcome) {
  auto config = tiny_config();
  const auto a = run_experiment(config);
  config.seed = 6;
  const auto b = run_experiment(config);
  EXPECT_NE(a.pollution_series, b.pollution_series);
}

TEST(Experiment, NoByzantineMeansNoPollution) {
  auto config = tiny_config();
  config.byzantine_fraction = 0.0;
  config.rounds = 120;  // discovery (75 % ever-in-view) takes dozens of rounds
  const auto result = run_experiment(config);
  EXPECT_DOUBLE_EQ(result.steady_pollution, 0.0);
  EXPECT_TRUE(result.discovery_round.has_value());
}

TEST(Experiment, TrustedNodesCleanerUnderFullEviction) {
  auto config = tiny_config();
  config.n = 150;
  config.trusted_fraction = 0.2;
  config.byzantine_fraction = 0.2;
  config.eviction = core::EvictionSpec::fixed(1.0);
  config.rounds = 40;
  const auto result = run_experiment(config);
  EXPECT_LT(result.steady_pollution_trusted, result.steady_pollution_honest);
}

TEST(Experiment, EnclaveCyclesChargedOnlyWithTrustedNodes) {
  auto config = tiny_config();
  const auto with_trusted = run_experiment(config);
  EXPECT_GT(with_trusted.enclave_cycles_total, 0u);

  config.trusted_fraction = 0.0;
  const auto without_trusted = run_experiment(config);
  EXPECT_EQ(without_trusted.enclave_cycles_total, 0u);
}

TEST(Experiment, IdentificationAttackAttaches) {
  auto config = tiny_config();
  config.run_identification = true;
  config.rounds = 15;
  const auto result = run_experiment(config);
  // The ledger collected something and produced a bounded score.
  EXPECT_GE(result.ident_best.f1, 0.0);
  EXPECT_LE(result.ident_best.f1, 1.0);
  EXPECT_LE(result.ident_final.precision, 1.0);
}

TEST(Experiment, PoisonedTrustedNodesExtendPopulation) {
  auto config = tiny_config();
  config.poisoned_extra_fraction = 0.1;
  const auto result = run_experiment(config);
  EXPECT_GE(result.steady_pollution, 0.0);  // smoke: runs with injection
}

// Repetitions, per-run batches and comparisons run under scenario::Runner,
// the only experiment executor.
TEST(RunRepeated, AggregatesAcrossSeeds) {
  const auto agg = scenario::Runner(2).run_repeated(tiny_spec(), 3);
  EXPECT_EQ(agg.runs, 3u);
  EXPECT_EQ(agg.pollution.count(), 3u);
  EXPECT_GT(agg.pollution.mean(), 0.0);
  // Different seeds: some spread expected (not exactly equal runs).
  EXPECT_GT(agg.pollution.max(), agg.pollution.min());
}

TEST(RunEach, PreservesOrderAndMatchesIndividualRuns) {
  const auto s1 = tiny_spec();
  const auto s2 = tiny_spec().seed(99);
  const auto batch = scenario::Runner(2).run_each({s1, s2});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].steady_pollution, run_experiment(s1.config()).steady_pollution);
  EXPECT_EQ(batch[1].steady_pollution, run_experiment(s2.config()).steady_pollution);
}

TEST(RunComparison, BaselineStripsTrustedMachinery) {
  const auto cmp = scenario::Runner(2).run_comparison(tiny_spec().rounds(25), /*reps=*/2);
  EXPECT_EQ(cmp.raptee.runs, 2u);
  EXPECT_EQ(cmp.baseline.runs, 2u);
  // The baseline is plain Brahms: no eviction telemetry.
  EXPECT_DOUBLE_EQ(cmp.baseline.eviction_rate.mean(), 0.0);
  EXPECT_GT(cmp.raptee.eviction_rate.mean(), 0.0);
}

TEST(Experiment, WireRoundtripDoesNotChangeOutcome) {
  // The byte codecs are a pure transport: same seeds, same results.
  auto config = tiny_config();
  config.rounds = 10;
  const auto plain = run_experiment(config);
  config.wire_roundtrip = true;
  const auto wired = run_experiment(config);
  EXPECT_EQ(plain.pollution_series, wired.pollution_series);
  EXPECT_EQ(plain.swaps_completed, wired.swaps_completed);
}

TEST(Experiment, EncryptedLinksDoNotChangeOutcome) {
  auto config = tiny_config();
  config.n = 60;
  config.rounds = 6;
  const auto plain = run_experiment(config);
  config.encrypt_links = true;
  const auto sealed = run_experiment(config);
  EXPECT_EQ(plain.pollution_series, sealed.pollution_series);
}

TEST(Experiment, MessageLossDegradesGracefully) {
  auto config = tiny_config();
  config.message_loss = 0.3;
  const auto result = run_experiment(config);
  EXPECT_GE(result.steady_pollution, 0.0);
  EXPECT_LE(result.steady_pollution, 1.0);
  EXPECT_GT(result.pulls_completed, 0u);
}

}  // namespace
}  // namespace raptee::metrics
