#include "metrics/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "adversary/byzantine.hpp"
#include "adversary/injection.hpp"
#include "common/assert.hpp"
#include "core/node_factory.hpp"
#include "core/raptee_node.hpp"
#include "metrics/trackers.hpp"
#include "scenario/observer.hpp"
#include "sim/churn.hpp"
#include "sim/engine.hpp"

namespace raptee::metrics {

void ChurnSpec::validate() const {
  if (!enabled) return;
  RAPTEE_REQUIRE(std::isfinite(rate_per_round) && rate_per_round >= 0.0 &&
                     rate_per_round <= 1.0,
                 "churn rate out of [0,1]: " << rate_per_round);
  RAPTEE_REQUIRE(until == 0 || from <= until,
                 "churn window invalid: [" << from << ", " << until << ")");
}

std::size_t ExperimentConfig::byzantine_count() const {
  return static_cast<std::size_t>(std::lround(byzantine_fraction * static_cast<double>(n)));
}
std::size_t ExperimentConfig::trusted_count() const {
  return static_cast<std::size_t>(std::lround(trusted_fraction * static_cast<double>(n)));
}
std::size_t ExperimentConfig::poisoned_count() const {
  return static_cast<std::size_t>(
      std::lround(poisoned_extra_fraction * static_cast<double>(n)));
}

void ExperimentConfig::validate() const {
  RAPTEE_REQUIRE(n >= 8, "population too small: " << n);
  RAPTEE_REQUIRE(byzantine_fraction >= 0.0 && byzantine_fraction < 1.0,
                 "byzantine fraction out of range");
  RAPTEE_REQUIRE(trusted_fraction >= 0.0 && trusted_fraction <= 1.0,
                 "trusted fraction out of range");
  RAPTEE_REQUIRE(byzantine_fraction + trusted_fraction <= 1.0,
                 "f + t exceeds the population");
  RAPTEE_REQUIRE(poisoned_extra_fraction >= 0.0,
                 "negative poisoned fraction: " << poisoned_extra_fraction);
  // Fractions are rounded to counts independently, so near the boundary the
  // rounded counts can overshoot what the fractions promise: catch both an
  // over-allocated population and a run with no correct node at all (the
  // trackers need at least one observer).
  RAPTEE_REQUIRE(byzantine_count() + trusted_count() <= n,
                 "rounded byzantine + trusted counts exceed the population");
  RAPTEE_REQUIRE(byzantine_count() < n, "no correct node left in the population");
  RAPTEE_REQUIRE(message_loss >= 0.0 && message_loss < 1.0,
                 "message loss out of [0,1): " << message_loss);
  RAPTEE_REQUIRE(std::isfinite(tamper_rate) && tamper_rate >= 0.0 && tamper_rate <= 1.0,
                 "tamper rate out of [0,1]: " << tamper_rate);
  RAPTEE_REQUIRE(identification_threshold >= 0.0 && identification_threshold <= 1.0,
                 "identification threshold out of [0,1]");
  RAPTEE_REQUIRE(rounds >= 1, "need at least one round");
  RAPTEE_REQUIRE(engine_threads <= 4096,
                 "engine_threads implausibly large: " << engine_threads);
  attack.validate();
  brahms.validate();
  eviction.validate();
  churn.validate();
  event.validate();
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                scenario::IScenarioObserver* observer) {
  config.validate();

  const std::size_t n_byz = config.byzantine_count();
  const std::size_t n_trusted = config.trusted_count();
  const std::size_t n_poisoned = config.poisoned_count();
  const std::size_t n_honest = config.n - n_byz - n_trusted;
  const std::size_t total = config.n + n_poisoned;

  // --- kind assignment, shuffled over the id space ---
  std::vector<NodeKind> kinds;
  kinds.reserve(total);
  kinds.insert(kinds.end(), n_honest, NodeKind::kHonest);
  kinds.insert(kinds.end(), n_trusted, NodeKind::kTrusted);
  kinds.insert(kinds.end(), n_byz, NodeKind::kByzantine);
  kinds.insert(kinds.end(), n_poisoned, NodeKind::kPoisonedTrusted);
  Rng layout_rng(mix64(config.seed, 0x6C61796Full));
  layout_rng.shuffle(kinds);

  std::vector<NodeId> byz_ids, correct_ids, trusted_ids;
  for (std::uint32_t i = 0; i < total; ++i) {
    const NodeId id{i};
    if (kinds[i] == NodeKind::kByzantine) {
      byz_ids.push_back(id);
    } else {
      correct_ids.push_back(id);
      if (is_trusted(kinds[i])) trusted_ids.push_back(id);
    }
  }

  auto is_byz = [&kinds](NodeId id) {
    return id.value < kinds.size() && kinds[id.value] == NodeKind::kByzantine;
  };
  // The §VI-A identification attack: the adversary's own ledger, fed by its
  // members' pull replies. Built before the engine, so it outlives every
  // ByzantineNode that records into it. Only genuinely honest trusted nodes
  // are "trusted" ground truth: the attack targets the nodes whose
  // camouflage matters.
  std::unique_ptr<adversary::IdentificationAttack> ident;
  if (config.run_identification && !byz_ids.empty()) {
    auto is_trusted_truth = [&kinds](NodeId id) {
      return id.value < kinds.size() && is_trusted(kinds[id.value]);
    };
    ident = std::make_unique<adversary::IdentificationAttack>(kinds.size(), is_byz,
                                                            is_trusted_truth);
  }

  // --- engine, adversary, factory ---
  sim::EngineConfig engine_config;
  engine_config.seed = config.seed;
  engine_config.wire_roundtrip = config.wire_roundtrip;
  engine_config.encrypt_links = config.encrypt_links;
  engine_config.message_loss = config.message_loss;
  engine_config.tamper_rate = config.tamper_rate;
  engine_config.link_sessions = config.link_sessions;
  engine_config.threads = config.engine_threads;
  engine_config.event = config.event;
  sim::Engine engine(engine_config);

  std::shared_ptr<adversary::Coordinator> coordinator;
  std::vector<NodeId> victim_ids;
  if (!byz_ids.empty()) {
    std::unique_ptr<adversary::IStrategy> strategy =
        adversary::make_strategy(config.attack);
    adversary::AttackConfig attack;
    attack.push_budget_per_member = config.brahms.push_slice();
    attack.pull_fanout = config.brahms.pull_slice();
    attack.advertised_view_size = config.brahms.l1;
    attack.attach_bogus_swap_offer = config.attack.attach_bogus_swap_offer;
    if (strategy->wants_victims()) {
      // Targeted set: drawn from the configured population slice (falling
      // back to all correct nodes when the slice is empty); an explicit
      // count wins over the fraction, and at least one victim is drawn.
      // The draw uses a private seed-derived stream so the other random
      // streams stay untouched.
      std::vector<NodeId> pool;
      using VictimKind = adversary::AttackSpec::VictimKind;
      if (config.attack.victim_kind != VictimKind::kAny) {
        const bool want_trusted = config.attack.victim_kind == VictimKind::kTrusted;
        for (NodeId id : correct_ids) {
          if (is_trusted(kinds[id.value]) == want_trusted) pool.push_back(id);
        }
      }
      if (pool.empty()) pool = correct_ids;
      std::size_t count =
          config.attack.victim_count > 0
              ? config.attack.victim_count
              : static_cast<std::size_t>(std::lround(config.attack.victim_fraction *
                                                     static_cast<double>(pool.size())));
      count = std::min(std::max<std::size_t>(count, 1), pool.size());
      Rng victim_rng(mix64(config.seed, 0x76637469ull));
      victim_ids = victim_rng.sample(pool, count);
      std::sort(victim_ids.begin(), victim_ids.end());
      attack.targeted_victims = victim_ids;
    }
    coordinator = std::make_shared<adversary::Coordinator>(
        byz_ids, correct_ids, attack, mix64(config.seed, 0x636F6F72ull),
        std::move(strategy), ident.get());
    if (config.event.enabled) {
      // Delay-capable strategies (delay_eclipse) inject extra per-link
      // latency through the engine's scheduling path; extra_delay_us is a
      // pure function, so determinism across worker counts is preserved.
      engine.set_link_delay([coordinator](Round r, NodeId from, NodeId to) {
        return coordinator->strategy().extra_delay_us(r, from, to, *coordinator);
      });
    }
  }

  const sgx::CycleModel cycle_model = sgx::CycleModel::paper_table1();
  core::NodeFactory factory(config.seed, config.auth_mode, &cycle_model);

  brahms::BrahmsConfig brahms_config;
  brahms_config.params = config.brahms;
  core::RapteeConfig raptee_config;
  raptee_config.brahms = brahms_config;
  raptee_config.eviction = config.eviction;
  raptee_config.trusted_overlay = config.trusted_overlay;

  const auto probe = engine.aliveness_probe();
  for (std::uint32_t i = 0; i < total; ++i) {
    const NodeId id{i};
    switch (kinds[i]) {
      case NodeKind::kHonest:
        engine.add_node(factory.make_honest(id, brahms_config, probe), kinds[i]);
        break;
      case NodeKind::kTrusted:
      case NodeKind::kPoisonedTrusted:
        engine.add_node(factory.make_trusted(id, raptee_config, probe), kinds[i]);
        break;
      case NodeKind::kByzantine:
        engine.add_node(std::make_unique<adversary::ByzantineNode>(
                            id, coordinator, mix64(config.seed, 0xB00Bull + i)),
                        kinds[i]);
        break;
    }
  }

  // --- bootstrap: uniform global sample; poisoned nodes get faulty views ---
  // Index-remap draw: the population is the dense id range [0, total), so
  // "everyone minus self" is reproduced by sampling j from [0, total-1)
  // and bumping past self's own index — the same draws (sample ==
  // sample_indices + lookup) as the legacy per-node candidates copy,
  // without its O(n²) bootstrap cost.
  Rng bootstrap_rng(mix64(config.seed, 0x626F6F74ull));
  std::vector<std::size_t> draw_scratch;
  engine.bootstrap_with([&](NodeId self, NodeKind kind) -> std::vector<NodeId> {
    if (kind == NodeKind::kByzantine) return {};
    if (kind == NodeKind::kPoisonedTrusted && coordinator) {
      return adversary::poisoned_bootstrap(*coordinator, config.brahms.l1);
    }
    bootstrap_rng.sample_indices_into(total - 1, config.brahms.l1, draw_scratch);
    std::vector<NodeId> view;
    view.reserve(draw_scratch.size());
    for (const std::size_t j : draw_scratch) {
      view.emplace_back(static_cast<std::uint32_t>(j >= self.value ? j + 1 : j));
    }
    return view;
  });

  // --- trackers ---
  PollutionTracker pollution(is_byz, config.brahms.l1, 0.10, kStabilityWindow);
  DiscoveryTracker discovery(correct_ids);
  TrustedTelemetryTracker trusted_telemetry(trusted_ids);
  discovery.prime(engine);

  std::unique_ptr<VictimTracker> victim_tracker;
  if (!victim_ids.empty()) {
    victim_tracker = std::make_unique<VictimTracker>(is_byz, victim_ids,
                                                     config.attack.isolation_threshold);
  }

  // --- churn schedule (correct nodes only; seed-derived stream) ---
  sim::ChurnSchedule churn_schedule;
  if (config.churn.enabled) {
    const Round until =
        config.churn.until == 0 ? config.rounds
                                : std::min<Round>(config.churn.until, config.rounds);
    Rng churn_rng(mix64(config.seed, 0x6368726Eull));
    churn_schedule = sim::ChurnSchedule::random_churn(
        correct_ids, config.churn.from, until, config.churn.rate_per_round,
        config.churn.downtime, config.churn.rejoin, churn_rng);
  }

  // --- run ---
  ExperimentResult result;
  adversary::IdentificationResult best{};
  if (observer) observer->on_run_start(config, engine);
  for (Round r = 0; r < config.rounds; ++r) {
    if (config.churn.enabled) churn_schedule.apply(engine, config.brahms.l1);
    engine.step();
    // One slab refresh per round serves every tracker; each observe()
    // returns the round's values (0 where its population had no alive
    // member).
    engine.refresh_views();
    const auto shares = pollution.observe(r, engine);
    const double min_knowledge = discovery.observe(r, engine);
    const auto telemetry = trusted_telemetry.observe(r, engine);
    const double victim_pollution =
        victim_tracker ? victim_tracker->observe(r, engine) : 0.0;
    if (ident) {
      const auto eval = ident->evaluate(engine.now(), config.identification_threshold);
      if (eval.f1 > best.f1) best = eval;
    }
    if (observer) {
      scenario::RoundSnapshot snapshot;
      snapshot.round = r;
      snapshot.pollution = shares.all;
      snapshot.pollution_honest = shares.honest;
      snapshot.pollution_trusted = shares.trusted;
      snapshot.min_knowledge = min_knowledge;
      snapshot.eviction_rate = telemetry.eviction_rate;
      snapshot.trusted_ratio = telemetry.trusted_ratio;
      snapshot.swaps_completed = engine.counters().swaps_completed;
      snapshot.pulls_completed = engine.counters().pulls_completed;
      snapshot.pushes_delivered = engine.counters().pushes_delivered;
      snapshot.wire_bytes = engine.counters().wire_bytes;
      snapshot.legs_dropped = engine.counters().legs_dropped;
      snapshot.legs_tampered = engine.counters().legs_tampered;
      snapshot.legs_corrupted = engine.counters().legs_corrupted;
      snapshot.legs_suppressed = engine.counters().legs_suppressed;
      snapshot.victim_pollution = victim_pollution;
      snapshot.attack_active = coordinator && coordinator->active();
      if (config.event.enabled) {
        snapshot.virtual_ms = engine.virtual_now_us() / 1000;
        snapshot.legs_late = engine.counters().legs_late;
        snapshot.partition_drops = engine.counters().partition_drops;
      }
      for (std::size_t p = 0; p < snapshot.phase_ms.size(); ++p) {
        snapshot.phase_ms[p] =
            static_cast<double>(engine.last_phase_us()[p]) / 1000.0;
      }
      observer->on_round(snapshot, engine);
    }
  }

  // --- collect ---
  result.steady_pollution = pollution.steady_state_pollution();
  result.steady_pollution_honest = pollution.steady_state_honest();
  result.steady_pollution_trusted = pollution.steady_state_trusted();
  result.discovery_round = discovery.discovery_round();
  result.stability_round = pollution.stability_round();
  result.pollution_series = pollution.pollution_series();
  result.pollution_series_trusted = pollution.trusted_series();
  result.min_knowledge_series = discovery.min_knowledge_series();
  result.mean_eviction_rate = trusted_telemetry.mean_eviction_rate();
  result.mean_trusted_ratio = trusted_telemetry.mean_trusted_ratio();
  if (ident) {
    result.ident_best = best;
    result.ident_final = ident->evaluate(engine.now(), config.identification_threshold);
  }
  for (NodeId id : trusted_ids) {
    if (const auto* node = dynamic_cast<const core::RapteeNode*>(&engine.node(id))) {
      result.enclave_cycles_total += node->enclave().ledger().total_cycles();
    }
  }
  result.swaps_completed = engine.counters().swaps_completed;
  result.pulls_completed = engine.counters().pulls_completed;
  result.legs_dropped = engine.counters().legs_dropped;
  result.legs_tampered = engine.counters().legs_tampered;
  result.legs_corrupted = engine.counters().legs_corrupted;
  result.wire_bytes = engine.counters().wire_bytes;

  result.attack.strategy = config.attack.strategy;
  result.attack.engaged = coordinator != nullptr &&
                          (config.attack.strategy != "balanced" ||
                           config.attack.attach_bogus_swap_offer || !victim_ids.empty());
  result.attack.victims = victim_ids.size();
  result.attack.legs_suppressed = engine.counters().legs_suppressed;
  if (coordinator) result.attack.rounds_active = coordinator->rounds_active();
  if (victim_tracker) {
    result.attack.victim_pollution_series = victim_tracker->pollution_series();
    result.attack.steady_victim_pollution = victim_tracker->steady_state_pollution();
    result.attack.rounds_to_isolation = victim_tracker->isolation_round();
  }

  if (config.event.enabled) {
    result.evt.engaged = true;
    result.evt.virtual_ms = engine.virtual_now_us() / 1000;
    result.evt.legs_late = engine.counters().legs_late;
    result.evt.partition_drops = engine.counters().partition_drops;
    if (result.discovery_round) {
      result.evt.dissemination_time_ms =
          (static_cast<std::uint64_t>(*result.discovery_round) + 1) *
          config.event.round_interval_us / 1000;
    }
  }
  if (observer) observer->on_run_end(result, engine);
  return result;
}

std::uint64_t repetition_seed(std::uint64_t base_seed, std::size_t rep) {
  return mix64(base_seed, 0x5265705Aull + rep);
}

RepeatedResult aggregate_runs(const ExperimentResult* results, std::size_t count) {
  RepeatedResult agg;
  agg.runs = count;
  for (std::size_t i = 0; i < count; ++i) {
    const ExperimentResult& r = results[i];
    agg.pollution.add(r.steady_pollution);
    agg.pollution_honest.add(r.steady_pollution_honest);
    agg.pollution_trusted.add(r.steady_pollution_trusted);
    if (r.discovery_round) {
      agg.discovery.add(static_cast<double>(*r.discovery_round));
      ++agg.discovery_reached;
    }
    if (r.stability_round) {
      agg.stability.add(static_cast<double>(*r.stability_round));
      ++agg.stability_reached;
    }
    agg.eviction_rate.add(r.mean_eviction_rate);
    agg.trusted_ratio.add(r.mean_trusted_ratio);
    agg.ident_best_precision.add(r.ident_best.precision);
    agg.ident_best_recall.add(r.ident_best.recall);
    agg.ident_best_f1.add(r.ident_best.f1);
    if (r.attack.engaged) {
      ++agg.attacked_runs;
      agg.legs_suppressed.add(static_cast<double>(r.attack.legs_suppressed));
    }
    if (r.attack.victims > 0) {
      agg.victim_pollution.add(r.attack.steady_victim_pollution);
      if (r.attack.rounds_to_isolation) {
        agg.isolation_round.add(static_cast<double>(*r.attack.rounds_to_isolation));
        ++agg.isolation_reached;
      }
    }
  }
  return agg;
}

ExperimentConfig comparison_baseline(const ExperimentConfig& raptee_config) {
  ExperimentConfig baseline = raptee_config;
  baseline.trusted_fraction = 0.0;
  baseline.poisoned_extra_fraction = 0.0;
  baseline.eviction = core::EvictionSpec::none();
  baseline.trusted_overlay = false;
  baseline.run_identification = false;
  return baseline;
}

ComparisonResult finalize_comparison(RepeatedResult raptee, RepeatedResult baseline) {
  ComparisonResult cmp;
  cmp.raptee = std::move(raptee);
  cmp.baseline = std::move(baseline);

  const double base_all = cmp.baseline.pollution.mean();
  if (base_all > 0.0) {
    cmp.resilience_improvement_pct =
        100.0 * (base_all - cmp.raptee.pollution.mean()) / base_all;
  }
  const double base_honest = cmp.baseline.pollution_honest.mean();
  if (base_honest > 0.0) {
    cmp.resilience_improvement_honest_pct =
        100.0 * (base_honest - cmp.raptee.pollution_honest.mean()) / base_honest;
  }
  if (cmp.raptee.discovery_reached > 0 && cmp.baseline.discovery_reached > 0 &&
      cmp.baseline.discovery.mean() > 0.0) {
    cmp.discovery_overhead_pct =
        100.0 * (cmp.raptee.discovery.mean() / cmp.baseline.discovery.mean() - 1.0);
  }
  if (cmp.raptee.stability_reached > 0 && cmp.baseline.stability_reached > 0 &&
      cmp.baseline.stability.mean() > 0.0) {
    cmp.stability_overhead_pct =
        100.0 * (cmp.raptee.stability.mean() / cmp.baseline.stability.mean() - 1.0);
  }
  return cmp;
}

}  // namespace raptee::metrics
