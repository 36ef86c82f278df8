// AttackSpec validation, the named-constructor presets, and the strategy
// catalog: its rows, unknown-name diagnostics, and end-to-end use of a
// catalog strategy through the public scenario API.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "adversary/strategy.hpp"
#include "scenario/scenario.hpp"

namespace raptee::adversary {
namespace {

TEST(AttackSpec, DefaultIsBalancedAndValid) {
  const AttackSpec spec;
  EXPECT_EQ(spec.strategy, "balanced");
  EXPECT_NO_THROW(spec.validate());
  EXPECT_FALSE(spec.attach_bogus_swap_offer);
}

TEST(AttackSpec, NamedConstructorsSelectTheirStrategies) {
  EXPECT_EQ(AttackSpec::balanced().strategy, "balanced");
  EXPECT_EQ(AttackSpec::eclipse(0.1).strategy, "eclipse");
  EXPECT_EQ(AttackSpec::eclipse(0.1).victim_fraction, 0.1);
  EXPECT_EQ(AttackSpec::oscillating(4, 12).on_rounds, 4u);
  EXPECT_EQ(AttackSpec::oscillating(4, 12).off_rounds, 12u);
  EXPECT_EQ(AttackSpec::omission().strategy, "omission");
  EXPECT_TRUE(AttackSpec::bogus_swap().attach_bogus_swap_offer);
  // named() round-trips every builtin.
  for (const char* name :
       {"balanced", "eclipse", "oscillating", "omission", "bogus_swap"}) {
    EXPECT_EQ(AttackSpec::named(name).strategy, name);
    EXPECT_NO_THROW(AttackSpec::named(name).validate());
  }
}

TEST(AttackSpec, ValidationRejectsBadParameters) {
  AttackSpec spec;
  spec.strategy = "definitely-not-registered";
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = AttackSpec::eclipse(1.5);
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = AttackSpec::eclipse(0.1);
  spec.push_cap_fraction = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = AttackSpec::eclipse(0.1);
  spec.isolation_threshold = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = AttackSpec::oscillating(0, 8);
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = AttackSpec{};
  spec.strategy.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(StrategyCatalog, SevenSortedRowsEachNamedByItsPreset) {
  const auto catalog = strategy_catalog();
  ASSERT_EQ(catalog.size(), 7u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(catalog[i - 1].name, catalog[i].name) << "catalog not sorted";
    }
    EXPECT_FALSE(catalog[i].summary.empty()) << catalog[i].name;
    const std::string name(catalog[i].name);
    EXPECT_EQ(AttackSpec::named(name).strategy, name);
    EXPECT_EQ(find_strategy(name), &catalog[i]);
  }
  EXPECT_EQ(find_strategy("nope"), nullptr);
}

TEST(StrategyCatalog, UnknownStrategyThrowsWithCatalog) {
  AttackSpec spec;
  spec.strategy = "unknown-strategy";
  try {
    (void)make_strategy(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown-strategy"), std::string::npos);
    EXPECT_NE(what.find("balanced"), std::string::npos) << "should list the catalog";
  }
  EXPECT_THROW((void)AttackSpec::named("unknown-strategy"), std::invalid_argument);
}

TEST(StrategyCatalog, OscillatingStrategyRunsThroughTheScenarioApi) {
  const auto result = scenario::ScenarioSpec()
                          .population(96)
                          .view_size(12)
                          .rounds(20)
                          .adversary(0.2)
                          .attack(AttackSpec::oscillating(1, 1))
                          .seed(3)
                          .run();
  EXPECT_TRUE(result.attack.engaged);
  EXPECT_EQ(result.attack.strategy, "oscillating");
  EXPECT_EQ(result.attack.rounds_active, 10u);  // even rounds of 20
  EXPECT_GT(result.steady_pollution, 0.0);
}

}  // namespace
}  // namespace raptee::adversary
