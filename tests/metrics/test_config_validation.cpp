// Edge-case coverage for ChurnSpec::validate() and
// ExperimentConfig::validate(): malformed scenario input must be rejected
// with std::invalid_argument (RAPTEE_REQUIRE) before any simulation state
// is built, never half-run or wrap around in size_t arithmetic.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "metrics/experiment.hpp"

namespace raptee::metrics {
namespace {

ExperimentConfig valid_config() {
  ExperimentConfig config;
  config.n = 100;
  config.byzantine_fraction = 0.10;
  config.trusted_fraction = 0.10;
  config.brahms.l1 = 16;
  config.brahms.l2 = 16;
  config.rounds = 10;
  return config;
}

// --- ChurnSpec ---

TEST(ChurnSpecValidation, AcceptsDefaultsAndSteady) {
  EXPECT_NO_THROW(ChurnSpec::none().validate());
  EXPECT_NO_THROW(ChurnSpec::steady(0.02).validate());
  EXPECT_NO_THROW(ChurnSpec::steady(0.0).validate());   // zero rate is legal
  EXPECT_NO_THROW(ChurnSpec::steady(1.0).validate());   // so is "everyone"
}

TEST(ChurnSpecValidation, RejectsNegativeRate) {
  ChurnSpec spec = ChurnSpec::steady(-0.01);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ChurnSpecValidation, RejectsRateAboveOne) {
  ChurnSpec spec = ChurnSpec::steady(1.5);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ChurnSpecValidation, RejectsNonFiniteRate) {
  ChurnSpec spec = ChurnSpec::steady(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.rate_per_round = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ChurnSpecValidation, RejectsWindowEndBeforeStart) {
  ChurnSpec spec = ChurnSpec::steady(0.02);
  spec.from = 30;
  spec.until = 10;  // until < from, and until != 0 ("run length") sentinel
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ChurnSpecValidation, UntilZeroMeansRunLength) {
  ChurnSpec spec = ChurnSpec::steady(0.02);
  spec.from = 30;
  spec.until = 0;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ChurnSpecValidation, DisabledSpecSkipsChecks) {
  // A disabled spec is inert configuration: bad values must not trip runs
  // that never churn.
  ChurnSpec spec;
  spec.enabled = false;
  spec.rate_per_round = -5.0;
  spec.from = 9;
  spec.until = 3;
  EXPECT_NO_THROW(spec.validate());
}

// --- ExperimentConfig ---

TEST(ExperimentConfigValidation, AcceptsBaseline) {
  EXPECT_NO_THROW(valid_config().validate());
}

TEST(ExperimentConfigValidation, RejectsNegativeFractions) {
  ExperimentConfig config = valid_config();
  config.byzantine_fraction = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = valid_config();
  config.trusted_fraction = -0.2;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = valid_config();
  config.poisoned_extra_fraction = -0.01;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsOverUnityFractions) {
  ExperimentConfig config = valid_config();
  config.byzantine_fraction = 1.0;  // f must stay strictly below 1
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = valid_config();
  config.byzantine_fraction = 1.3;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = valid_config();
  config.trusted_fraction = 1.2;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsEmptyCorrectPopulation) {
  // f = 0.97 on n = 16 rounds to 16 Byzantine nodes: nobody left to
  // observe, and the honest count would wrap in size_t arithmetic.
  ExperimentConfig config = valid_config();
  config.n = 16;
  config.byzantine_fraction = 0.97;
  config.trusted_fraction = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsRoundedCountOverflow) {
  // f + t <= 1 holds, but both fractions round half away from zero and the
  // rounded counts exceed n (9 * 0.5 -> 5 each, 10 > 9).
  ExperimentConfig config = valid_config();
  config.n = 9;
  config.brahms.l1 = 4;
  config.brahms.l2 = 4;
  config.byzantine_fraction = 0.5;
  config.trusted_fraction = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsDegenerateSchedule) {
  ExperimentConfig config = valid_config();
  config.rounds = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsBadFidelityKnobs) {
  ExperimentConfig config = valid_config();
  config.message_loss = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = valid_config();
  config.message_loss = 1.0;  // would drop every leg forever
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = valid_config();
  config.identification_threshold = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsBadNestedSpecs) {
  ExperimentConfig config = valid_config();
  config.churn = ChurnSpec::steady(2.0);
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = valid_config();
  config.eviction.fixed_rate = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RunExperimentValidatesUpFront) {
  ExperimentConfig config = valid_config();
  config.byzantine_fraction = -0.5;
  EXPECT_THROW((void)run_experiment(config), std::invalid_argument);
}

}  // namespace
}  // namespace raptee::metrics
