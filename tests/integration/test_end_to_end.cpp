// End-to-end system properties: full populations under the engine, the
// paper's qualitative claims as assertions.
#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/scenario.hpp"
#include "sim/churn.hpp"
#include "sim/engine.hpp"
#include "core/node_factory.hpp"

namespace raptee {
namespace {

scenario::ScenarioSpec base_spec() {
  return scenario::ScenarioSpec()
      .population(150)
      .adversary(0.15)
      .trusted(0.0)
      .view_size(20)
      .rounds(50)
      .seed(31);
}

TEST(EndToEnd, CleanSystemConvergesAndDiscovers) {
  const auto result = base_spec().adversary(0.0).rounds(150).run();
  EXPECT_DOUBLE_EQ(result.steady_pollution, 0.0);
  ASSERT_TRUE(result.discovery_round.has_value());
  EXPECT_LT(*result.discovery_round, 140u);
  // Knowledge grows monotonically.
  for (std::size_t i = 1; i < result.min_knowledge_series.size(); ++i) {
    EXPECT_GE(result.min_knowledge_series[i], result.min_knowledge_series[i - 1]);
  }
}

TEST(EndToEnd, BalancedAttackOverRepresentsByzantineIds) {
  // The defining Brahms threat: adversarial over-representation. With
  // f=15 % of nodes, well over 15 % of view slots become Byzantine.
  const auto result = base_spec().run();
  EXPECT_GT(result.steady_pollution, 0.15);
  EXPECT_LT(result.steady_pollution, 0.95);
}

TEST(EndToEnd, PollutionGrowsWithByzantineFraction) {
  const double p10 = base_spec().adversary(0.10).run().steady_pollution;
  const double p25 = base_spec().adversary(0.25).run().steady_pollution;
  EXPECT_GT(p25, p10);
}

TEST(EndToEnd, RapteeImprovesTrustedViewQuality) {
  const auto result = base_spec()
                          .trusted(0.15)
                          .eviction(core::EvictionSpec::adaptive())
                          .rounds(60)
                          .run();
  // The §IV-C defence: trusted views clearly cleaner than honest views.
  EXPECT_LT(result.steady_pollution_trusted, result.steady_pollution_honest * 0.95);
}

TEST(EndToEnd, RapteeReducesSystemPollutionAtHighTrustedShare) {
  const auto cmp = scenario::Runner(2).run_comparison(
      base_spec().rounds(60).trusted(0.3).eviction(core::EvictionSpec::adaptive()),
      /*reps=*/2);
  EXPECT_GT(cmp.resilience_improvement_pct, 0.0);
}

TEST(EndToEnd, AuthModesProduceIdenticalProtocolOutcome) {
  // D5: Full / Fingerprint transports are behaviourally identical —
  // same seeds must give identical pollution series and swap counts.
  const auto spec = base_spec()
                        .population(80)
                        .trusted(0.2)
                        .rounds(15)
                        .eviction(core::EvictionSpec::adaptive());

  const auto fingerprint =
      scenario::ScenarioSpec(spec).auth_mode(brahms::AuthMode::kFingerprint).run();
  const auto full = scenario::ScenarioSpec(spec).auth_mode(brahms::AuthMode::kFull).run();

  EXPECT_EQ(full.swaps_completed, fingerprint.swaps_completed);
  EXPECT_EQ(full.pollution_series, fingerprint.pollution_series);
}

TEST(EndToEnd, ChurnRecoveryWithSamplerValidation) {
  // 20 % of honest nodes crash mid-run; sampler validation must flush the
  // departed ids out of the sample lists of survivors.
  core::NodeFactory factory(17, brahms::AuthMode::kFingerprint);
  sim::Engine engine({17});
  brahms::BrahmsConfig brahms_config;
  brahms_config.params.l1 = 16;
  brahms_config.params.l2 = 16;
  brahms_config.sampler_validation_period = 2;
  constexpr std::uint32_t kN = 60;
  std::vector<brahms::BrahmsNode*> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    auto node = factory.make_honest(NodeId{i}, brahms_config, engine.aliveness_probe());
    nodes.push_back(node.get());
    engine.add_node(std::move(node), NodeKind::kHonest);
  }
  engine.bootstrap_uniform(16);
  engine.run(10);
  // Crash nodes 0..11.
  for (std::uint32_t i = 0; i < 12; ++i) engine.set_alive(NodeId{i}, false);
  engine.run(25);
  // Survivors' sample lists contain no dead nodes.
  std::size_t dead_samples = 0;
  for (std::uint32_t i = 12; i < kN; ++i) {
    for (NodeId id : nodes[i]->sample_list()) {
      if (id.value < 12) ++dead_samples;
    }
  }
  EXPECT_EQ(dead_samples, 0u);
}

TEST(EndToEnd, ViewsRemainFullAndSelfFree) {
  // Use a direct engine world to inspect views.
  core::NodeFactory factory(23, brahms::AuthMode::kFingerprint);
  sim::Engine engine({23});
  brahms::BrahmsConfig brahms_config;
  brahms_config.params.l1 = 16;
  brahms_config.params.l2 = 16;
  core::RapteeConfig raptee_config;
  raptee_config.brahms = brahms_config;
  raptee_config.eviction = core::EvictionSpec::adaptive();
  for (std::uint32_t i = 0; i < 50; ++i) {
    if (i < 5) {
      engine.add_node(factory.make_trusted(NodeId{i}, raptee_config),
                      NodeKind::kTrusted);
    } else {
      engine.add_node(factory.make_honest(NodeId{i}, brahms_config), NodeKind::kHonest);
    }
  }
  engine.bootstrap_uniform(16);
  engine.run(30);
  engine.refresh_views();  // no listener ran, so the slab is filled here
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto view = engine.view_of(NodeId{i});
    EXPECT_EQ(view.size(), 16u) << "node " << i;
    EXPECT_EQ(std::count(view.begin(), view.end(), NodeId{i}), 0) << "node " << i;
    // No duplicates.
    std::vector<NodeId> sorted(view.begin(), view.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

}  // namespace
}  // namespace raptee
