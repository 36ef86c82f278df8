// Delivery contract of the IScenarioObserver streaming interface: per-round
// callbacks fire exactly `rounds` times, in order, with snapshot values
// bit-identical to the corresponding entries of the final ExperimentResult
// series — and attaching an observer never changes the simulation outcome.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "support/scenario.hpp"

namespace raptee::scenario {
namespace {

class RecordingObserver final : public IScenarioObserver {
 public:
  void on_run_start(const metrics::ExperimentConfig& config,
                    const sim::Engine& engine) override {
    ++starts;
    population_at_start = engine.size();
    configured_rounds = config.rounds;
  }

  void on_round(const RoundSnapshot& snapshot, const sim::Engine& engine) override {
    snapshots.push_back(snapshot);
    engine_round_at_callback.push_back(engine.now());
  }

  void on_run_end(const metrics::ExperimentResult& result,
                  const sim::Engine& engine) override {
    ++ends;
    rounds_before_end = static_cast<Round>(snapshots.size());
    final_pulls = engine.counters().pulls_completed;
    final_result_pollution = result.steady_pollution;
  }

  int starts = 0;
  int ends = 0;
  std::size_t population_at_start = 0;
  Round configured_rounds = 0;
  Round rounds_before_end = 0;
  std::uint64_t final_pulls = 0;
  double final_result_pollution = -1.0;
  std::vector<RoundSnapshot> snapshots;
  std::vector<Round> engine_round_at_callback;
};

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(ScenarioObserver, FiresExactlyOncePerRoundAndMatchesSeries) {
  constexpr Round kRounds = 48;
  const ScenarioSpec spec = test::Scenario()
                                .adversary(0.2)
                                .trusted_share(0.3)
                                .eviction_pct(40)
                                .rounds(kRounds);

  RecordingObserver observer;
  const metrics::ExperimentResult result = Runner().run(spec, &observer);

  EXPECT_EQ(observer.starts, 1);
  EXPECT_EQ(observer.ends, 1);
  EXPECT_EQ(observer.configured_rounds, kRounds);
  ASSERT_EQ(observer.snapshots.size(), kRounds);
  EXPECT_EQ(observer.rounds_before_end, kRounds);

  // Rounds arrive in order, 0-based, while the engine clock already
  // advanced past the completed round.
  for (Round r = 0; r < kRounds; ++r) {
    EXPECT_EQ(observer.snapshots[r].round, r);
    EXPECT_EQ(observer.engine_round_at_callback[r], r + 1);
  }

  // The streamed pollution values ARE the final series, bit for bit.
  ASSERT_EQ(result.pollution_series.size(), kRounds);
  ASSERT_EQ(result.pollution_series_trusted.size(), kRounds);
  ASSERT_EQ(result.min_knowledge_series.size(), kRounds);
  for (Round r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(bit_equal(observer.snapshots[r].pollution, result.pollution_series[r]))
        << "pollution diverged at round " << r;
    EXPECT_TRUE(bit_equal(observer.snapshots[r].pollution_trusted,
                          result.pollution_series_trusted[r]))
        << "trusted pollution diverged at round " << r;
    EXPECT_TRUE(bit_equal(observer.snapshots[r].min_knowledge,
                          result.min_knowledge_series[r]))
        << "min knowledge diverged at round " << r;
  }

  // Counters are cumulative and end at the result's totals.
  for (Round r = 1; r < kRounds; ++r) {
    EXPECT_GE(observer.snapshots[r].pulls_completed,
              observer.snapshots[r - 1].pulls_completed);
    EXPECT_GE(observer.snapshots[r].swaps_completed,
              observer.snapshots[r - 1].swaps_completed);
  }
  EXPECT_EQ(observer.snapshots.back().pulls_completed, result.pulls_completed);
  EXPECT_EQ(observer.snapshots.back().swaps_completed, result.swaps_completed);
  EXPECT_EQ(observer.final_pulls, result.pulls_completed);
  EXPECT_EQ(observer.final_result_pollution, result.steady_pollution);

  // The population at on_run_start is the full build (base + injected).
  EXPECT_EQ(observer.population_at_start, spec.config().n);
}

TEST(ScenarioObserver, FixedEvictionRateIsStreamedPerRound) {
  RecordingObserver observer;
  (void)Runner().run(
      test::Scenario().adversary(0.2).trusted_share(0.5).eviction_pct(60).rounds(20),
      &observer);
  ASSERT_EQ(observer.snapshots.size(), 20u);
  for (const RoundSnapshot& snapshot : observer.snapshots) {
    EXPECT_NEAR(snapshot.eviction_rate, 0.60, 1e-12);
    EXPECT_GE(snapshot.trusted_ratio, 0.0);
    EXPECT_LE(snapshot.trusted_ratio, 1.0);
  }
}

TEST(ScenarioObserver, AttackSnapshotsStreamVictimSeriesAndSuppression) {
  // Eclipse: per-round victim pollution in the snapshot IS the final
  // series, bit for bit, and the attack stays on duty every round.
  adversary::AttackSpec eclipse = adversary::AttackSpec::eclipse(0.2);
  RecordingObserver observer;
  const auto result = Runner().run(
      test::Scenario().adversary(0.2).trusted_share(0.3).attack(eclipse).rounds(24),
      &observer);
  ASSERT_EQ(observer.snapshots.size(), 24u);
  ASSERT_EQ(result.attack.victim_pollution_series.size(), 24u);
  for (Round r = 0; r < 24; ++r) {
    EXPECT_TRUE(bit_equal(observer.snapshots[r].victim_pollution,
                          result.attack.victim_pollution_series[r]))
        << "victim pollution diverged at round " << r;
    EXPECT_TRUE(observer.snapshots[r].attack_active);
  }

  // Omission: the cumulative suppression counter streams per round and
  // ends at the result total.
  RecordingObserver omission_observer;
  const auto omission = Runner().run(
      test::Scenario().adversary(0.2).attack("omission").rounds(16), &omission_observer);
  ASSERT_EQ(omission_observer.snapshots.size(), 16u);
  for (Round r = 1; r < 16; ++r) {
    EXPECT_GE(omission_observer.snapshots[r].legs_suppressed,
              omission_observer.snapshots[r - 1].legs_suppressed);
  }
  EXPECT_EQ(omission_observer.snapshots.back().legs_suppressed,
            omission.attack.legs_suppressed);

  // Oscillating: attack_active follows the duty cycle.
  RecordingObserver duty_observer;
  (void)Runner().run(
      test::Scenario().adversary(0.2).attack(adversary::AttackSpec::oscillating(4, 4)).rounds(16),
      &duty_observer);
  for (Round r = 0; r < 16; ++r) {
    EXPECT_EQ(duty_observer.snapshots[r].attack_active, (r % 8) < 4) << "round " << r;
  }

  // No adversary: the attack is never active.
  RecordingObserver idle_observer;
  (void)Runner().run(test::Scenario().adversary(0.0).rounds(8), &idle_observer);
  for (const RoundSnapshot& snapshot : idle_observer.snapshots) {
    EXPECT_FALSE(snapshot.attack_active);
    EXPECT_EQ(snapshot.legs_suppressed, 0u);
    EXPECT_TRUE(bit_equal(snapshot.victim_pollution, 0.0));
  }
}

/// Records each round's trusted telemetry and whether any trusted node was
/// alive when the round closed.
class TrustedTelemetryObserver final : public IScenarioObserver {
 public:
  void on_round(const RoundSnapshot& snapshot, const sim::Engine& engine) override {
    bool alive = false;
    for (std::uint32_t i = 0; i < engine.size(); ++i) {
      const NodeId id{i};
      if (is_trusted(engine.kind(id)) && engine.is_alive(id)) alive = true;
    }
    trusted_alive.push_back(alive);
    snapshots.push_back(snapshot);
  }

  std::vector<bool> trusted_alive;
  std::vector<RoundSnapshot> snapshots;
};

TEST(ScenarioObserver, RoundsWithoutAnAliveTrustedNodeStreamZeroTelemetry) {
  // t = 1 % of 128 leaves one trusted node; under 5 %/round churn with a
  // 10-round downtime it spends rounds crashed, and those rounds have no
  // telemetry to average.
  TrustedTelemetryObserver observer;
  const auto result =
      Runner().run(test::Scenario()
                       .adversary(0.1)
                       .trusted_pct(1)
                       .eviction(core::EvictionSpec::adaptive())
                       .churn(metrics::ChurnSpec::steady(0.05, /*downtime=*/10))
                       .rounds(40),
                   &observer);
  ASSERT_EQ(observer.snapshots.size(), 40u);

  double rate_sum = 0.0;
  std::size_t alive_rounds = 0, dead_rounds = 0;
  for (Round r = 0; r < 40; ++r) {
    const RoundSnapshot& snapshot = observer.snapshots[r];
    if (observer.trusted_alive[r]) {
      rate_sum += snapshot.eviction_rate;
      ++alive_rounds;
    } else {
      EXPECT_TRUE(bit_equal(snapshot.eviction_rate, 0.0)) << "round " << r;
      EXPECT_TRUE(bit_equal(snapshot.trusted_ratio, 0.0)) << "round " << r;
      ++dead_rounds;
    }
  }
  EXPECT_GT(dead_rounds, 0u) << "the trusted node never crashed";
  ASSERT_GT(alive_rounds, 0u);
  // The series skipped exactly the dead rounds: its mean is the mean of the
  // streamed values over the other rounds, bit for bit.
  EXPECT_TRUE(bit_equal(rate_sum / static_cast<double>(alive_rounds),
                        result.mean_eviction_rate));
}

TEST(ScenarioObserver, AttachingAnObserverDoesNotPerturbTheRun) {
  const ScenarioSpec spec =
      test::Scenario().adversary(0.3).trusted_share(0.2).eviction_pct(100).churn(true);
  RecordingObserver observer;
  const auto observed = Runner().run(spec, &observer);
  const auto plain = spec.run();
  EXPECT_TRUE(test::same_metric_streams(observed, plain));
}

}  // namespace
}  // namespace raptee::scenario
