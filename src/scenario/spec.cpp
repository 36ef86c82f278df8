#include "scenario/spec.hpp"

#include <utility>

namespace raptee::scenario {

ScenarioSpec& ScenarioSpec::population(std::size_t n) {
  base_.n = n;
  return *this;
}
ScenarioSpec& ScenarioSpec::view_size(std::size_t l1) {
  base_.brahms.l1 = l1;
  base_.brahms.l2 = l1;
  return *this;
}
ScenarioSpec& ScenarioSpec::rounds(Round rounds) {
  base_.rounds = rounds;
  return *this;
}
ScenarioSpec& ScenarioSpec::seed(std::uint64_t seed) {
  base_.seed = seed;
  return *this;
}
ScenarioSpec& ScenarioSpec::adversary(double fraction) {
  base_.byzantine_fraction = fraction;
  return *this;
}
ScenarioSpec& ScenarioSpec::attack(const adversary::AttackSpec& spec) {
  base_.attack = spec;
  return *this;
}
ScenarioSpec& ScenarioSpec::attack(const std::string& strategy_name) {
  base_.attack = adversary::AttackSpec::named(strategy_name);
  return *this;
}
ScenarioSpec& ScenarioSpec::poisoned_extra(double fraction) {
  base_.poisoned_extra_fraction = fraction;
  return *this;
}
ScenarioSpec& ScenarioSpec::identification(double threshold) {
  base_.run_identification = true;
  base_.identification_threshold = threshold;
  return *this;
}
ScenarioSpec& ScenarioSpec::trusted(double fraction) {
  base_.trusted_fraction = fraction;
  use_trusted_share_ = false;
  return *this;
}
ScenarioSpec& ScenarioSpec::trusted_share(double share) {
  trusted_share_ = share;
  use_trusted_share_ = true;
  return *this;
}
ScenarioSpec& ScenarioSpec::trusted_overlay(bool enabled) {
  base_.trusted_overlay = enabled;
  return *this;
}
ScenarioSpec& ScenarioSpec::eviction_pct(int percent) {
  base_.eviction = percent == 0 ? core::EvictionSpec::none()
                                : core::EvictionSpec::fixed(percent / 100.0);
  return *this;
}
ScenarioSpec& ScenarioSpec::eviction(const core::EvictionSpec& spec) {
  base_.eviction = spec;
  return *this;
}
ScenarioSpec& ScenarioSpec::churn(bool enabled) {
  metrics::ChurnSpec spec = metrics::ChurnSpec::steady(0.02);
  spec.enabled = enabled;
  base_.churn = spec;
  return *this;
}
ScenarioSpec& ScenarioSpec::churn(const metrics::ChurnSpec& spec) {
  base_.churn = spec;
  return *this;
}
ScenarioSpec& ScenarioSpec::auth_mode(brahms::AuthMode mode) {
  base_.auth_mode = mode;
  return *this;
}
ScenarioSpec& ScenarioSpec::threads(std::size_t n) {
  base_.engine_threads = n;
  return *this;
}
ScenarioSpec& ScenarioSpec::wire_roundtrip(bool enabled) {
  base_.wire_roundtrip = enabled;
  return *this;
}
ScenarioSpec& ScenarioSpec::encrypt_links(bool enabled) {
  base_.encrypt_links = enabled;
  return *this;
}
ScenarioSpec& ScenarioSpec::message_loss(double probability) {
  base_.message_loss = probability;
  return *this;
}
ScenarioSpec& ScenarioSpec::tamper_rate(double probability) {
  base_.tamper_rate = probability;
  return *this;
}
ScenarioSpec& ScenarioSpec::event_mode(bool enabled) {
  base_.event.enabled = enabled;
  return *this;
}
ScenarioSpec& ScenarioSpec::latency(const evt::LatencySpec& spec) {
  base_.event.enabled = true;
  base_.event.latency = spec;
  if (spec.kind == evt::LatencyKind::kMatrix) {
    base_.event.topology.regions = spec.matrix_regions;
  }
  return *this;
}
ScenarioSpec& ScenarioSpec::latency(const std::string& name) {
  return latency(evt::LatencySpec::named(name));
}
ScenarioSpec& ScenarioSpec::partition(const evt::PartitionSchedule& schedule) {
  base_.event.enabled = true;
  base_.event.partition = schedule;
  if (base_.event.topology.regions < 2 && !schedule.windows.empty()) {
    base_.event.topology.regions = 2;
  }
  return *this;
}
ScenarioSpec& ScenarioSpec::partition(const std::string& name) {
  return partition(evt::PartitionSchedule::named(name, base_.rounds));
}
ScenarioSpec& ScenarioSpec::round_interval_ms(std::uint64_t ms) {
  base_.event.round_interval_us = ms * 1000;
  return *this;
}
ScenarioSpec& ScenarioSpec::label(std::string text) {
  label_ = std::move(text);
  return *this;
}

metrics::ExperimentConfig ScenarioSpec::config() const {
  metrics::ExperimentConfig config = base_;
  if (use_trusted_share_) {
    config.trusted_fraction = trusted_share_ * (1.0 - base_.byzantine_fraction);
  }
  return config;
}

metrics::ExperimentResult ScenarioSpec::run() const {
  return metrics::run_experiment(config());
}

}  // namespace raptee::scenario
