#include "adversary/attack.hpp"

#include <cmath>

#include "adversary/strategy.hpp"
#include "common/assert.hpp"

namespace raptee::adversary {

AttackSpec AttackSpec::balanced() { return {}; }

AttackSpec AttackSpec::eclipse(double victim_fraction) {
  AttackSpec spec;
  spec.strategy = "eclipse";
  spec.victim_fraction = victim_fraction;
  return spec;
}

AttackSpec AttackSpec::oscillating(Round on_rounds, Round off_rounds) {
  AttackSpec spec;
  spec.strategy = "oscillating";
  spec.on_rounds = on_rounds;
  spec.off_rounds = off_rounds;
  return spec;
}

AttackSpec AttackSpec::omission() {
  AttackSpec spec;
  spec.strategy = "omission";
  return spec;
}

AttackSpec AttackSpec::bogus_swap() {
  AttackSpec spec;
  spec.strategy = "bogus_swap";
  spec.attach_bogus_swap_offer = true;
  return spec;
}

AttackSpec AttackSpec::delay_eclipse(std::uint64_t delay_ms, double victim_fraction) {
  AttackSpec spec;
  spec.strategy = "delay_eclipse";
  spec.delay_ms = delay_ms;
  spec.victim_fraction = victim_fraction;
  return spec;
}

AttackSpec AttackSpec::partition_eclipse(Round window_from, Round window_until,
                                         double victim_fraction) {
  AttackSpec spec;
  spec.strategy = "partition_eclipse";
  spec.window_from = window_from;
  spec.window_until = window_until;
  spec.victim_fraction = victim_fraction;
  return spec;
}

AttackSpec AttackSpec::named(const std::string& name) {
  const StrategyEntry* entry = find_strategy(name);
  RAPTEE_REQUIRE(entry != nullptr, "unknown attack strategy '" << name << "'");
  return entry->preset();
}

void AttackSpec::validate() const {
  RAPTEE_REQUIRE(!strategy.empty(), "attack strategy name must not be empty");
  RAPTEE_REQUIRE(find_strategy(strategy) != nullptr,
                 "attack strategy '" << strategy << "' is not in the catalog");
  RAPTEE_REQUIRE(std::isfinite(victim_fraction) && victim_fraction >= 0.0 &&
                     victim_fraction <= 1.0,
                 "victim fraction out of [0,1]: " << victim_fraction);
  RAPTEE_REQUIRE(std::isfinite(push_cap_fraction) && push_cap_fraction >= 0.0 &&
                     push_cap_fraction <= 1.0,
                 "push cap fraction out of [0,1]: " << push_cap_fraction);
  RAPTEE_REQUIRE(std::isfinite(isolation_threshold) && isolation_threshold > 0.0 &&
                     isolation_threshold <= 1.0,
                 "isolation threshold out of (0,1]: " << isolation_threshold);
  RAPTEE_REQUIRE(on_rounds >= 1, "oscillating on_rounds must be >= 1");
  RAPTEE_REQUIRE(delay_ms <= 60000, "delay_ms above 60 s: " << delay_ms);
  RAPTEE_REQUIRE(window_until == 0 || window_from < window_until,
                 "attack window [" << window_from << ", " << window_until
                                   << ") is empty");
}

}  // namespace raptee::adversary
