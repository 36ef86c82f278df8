#include "scenario/results.hpp"

#include <iostream>
#include <utility>

namespace raptee::scenario::results {

using metrics::JsonArray;
using metrics::JsonObject;

namespace {

const char* auth_mode_name(brahms::AuthMode mode) {
  switch (mode) {
    case brahms::AuthMode::kFull: return "full";
    case brahms::AuthMode::kFingerprint: return "fingerprint";
  }
  return "unknown";
}

const char* eviction_kind_name(core::EvictionSpec::Kind kind) {
  switch (kind) {
    case core::EvictionSpec::Kind::kNone: return "none";
    case core::EvictionSpec::Kind::kFixed: return "fixed";
    case core::EvictionSpec::Kind::kAdaptive: return "adaptive";
  }
  return "unknown";
}

std::optional<double> round_opt(const std::optional<Round>& round) {
  if (!round) return std::nullopt;
  return static_cast<double>(*round);
}

const char* victim_kind_name(adversary::AttackSpec::VictimKind kind) {
  switch (kind) {
    case adversary::AttackSpec::VictimKind::kAny: return "any";
    case adversary::AttackSpec::VictimKind::kHonest: return "honest";
    case adversary::AttackSpec::VictimKind::kTrusted: return "trusted";
  }
  return "unknown";
}

}  // namespace

std::string to_json(const Knobs& knobs) {
  return JsonObject()
      .field("mode", knobs.full ? "full" : "quick")
      .field("n", knobs.n)
      .field("view", knobs.l1)
      .field("rounds", static_cast<std::uint64_t>(knobs.rounds))
      .field("reps", knobs.reps)
      .field("threads", knobs.threads)
      .field("seed", knobs.seed)
      .field("tamper_pct", knobs.tamper_pct)
      .field("attack", knobs.attack)
      .field("port", static_cast<std::uint64_t>(knobs.port))
      .field("connections", knobs.connections)
      .field("duration_ms", knobs.duration_ms)
      .field("latency", knobs.latency)
      .field("jitter_pct", knobs.jitter_pct)
      .field("partition", knobs.partition)
      .str();
}

std::string to_json(const adversary::AttackSpec& attack) {
  return JsonObject()
      .field("strategy", attack.strategy)
      .field("victim_fraction", attack.victim_fraction)
      .field("victim_count", attack.victim_count)
      .field("victim_kind", victim_kind_name(attack.victim_kind))
      .field("push_cap_fraction", attack.push_cap_fraction)
      .field("isolation_threshold", attack.isolation_threshold)
      .field("on_rounds", static_cast<std::uint64_t>(attack.on_rounds))
      .field("off_rounds", static_cast<std::uint64_t>(attack.off_rounds))
      .field("attach_bogus_swap_offer", attack.attach_bogus_swap_offer)
      .str();
}

std::string to_json(const metrics::AttackOutcome& attack) {
  return JsonObject()
      .field("strategy", attack.strategy)
      .field("victims", attack.victims)
      .field("steady_victim_pollution", attack.steady_victim_pollution)
      .field("rounds_to_isolation", round_opt(attack.rounds_to_isolation))
      .field("legs_suppressed", attack.legs_suppressed)
      .field("rounds_active", attack.rounds_active)
      .field_raw("victim_pollution_series",
                 metrics::json_series(attack.victim_pollution_series))
      .str();
}

std::string to_json(const metrics::EvtOutcome& evt) {
  return JsonObject()
      .field("virtual_ms", evt.virtual_ms)
      .field("legs_late", evt.legs_late)
      .field("partition_drops", evt.partition_drops)
      .field("dissemination_time_ms", evt.dissemination_time_ms)
      .str();
}

std::string to_json(const metrics::ExperimentConfig& config) {
  const JsonObject brahms = JsonObject()
                                .field("l1", config.brahms.l1)
                                .field("l2", config.brahms.l2)
                                .field("alpha", config.brahms.alpha)
                                .field("beta", config.brahms.beta)
                                .field("gamma", config.brahms.gamma);
  const JsonObject eviction = JsonObject()
                                  .field("kind", eviction_kind_name(config.eviction.kind))
                                  .field("fixed_rate", config.eviction.fixed_rate)
                                  .field("lower", config.eviction.lower)
                                  .field("upper", config.eviction.upper)
                                  .field("describe", config.eviction.describe());
  const JsonObject churn =
      JsonObject()
          .field("enabled", config.churn.enabled)
          .field("from", static_cast<std::uint64_t>(config.churn.from))
          .field("until", static_cast<std::uint64_t>(config.churn.until))
          .field("rate_per_round", config.churn.rate_per_round)
          .field("downtime", static_cast<std::uint64_t>(config.churn.downtime))
          .field("rejoin", config.churn.rejoin);
  JsonObject doc;
  doc.field("n", config.n)
      .field("byzantine_fraction", config.byzantine_fraction)
      .field("trusted_fraction", config.trusted_fraction)
      .field("poisoned_extra_fraction", config.poisoned_extra_fraction)
      .field_raw("brahms", brahms.str())
      .field_raw("attack", to_json(config.attack))
      .field_raw("eviction", eviction.str())
      .field_raw("churn", churn.str())
      .field("trusted_overlay", config.trusted_overlay)
      .field("auth_mode", auth_mode_name(config.auth_mode))
      .field("rounds", static_cast<std::uint64_t>(config.rounds))
      .field("seed", config.seed)
      .field("run_identification", config.run_identification)
      .field("identification_threshold", config.identification_threshold)
      // Fixed policies, still emitted so config documents keep their shape:
      // the D4 smoothing window, enclaves always charging Table-I cycles,
      // and (in its old slot below) one cached link session per node pair.
      .field("stability_window", metrics::kStabilityWindow)
      .field("use_cycle_model", true)
      .field("wire_roundtrip", config.wire_roundtrip)
      .field("encrypt_links", config.encrypt_links)
      .field("message_loss", config.message_loss)
      .field("tamper_rate", config.tamper_rate)
      .field("link_sessions", true)
      .field("engine_threads", config.engine_threads);
  // The event block exists only for event-mode configs, so round-mode config
  // JSON stays byte-identical to the pre-evt schema (same omission rule as
  // the result-side attack/evt blocks).
  if (config.event.enabled) {
    doc.field_raw("event",
                  JsonObject()
                      .field("round_interval_us", config.event.round_interval_us)
                      .field("regions", static_cast<std::uint64_t>(
                                            config.event.topology.regions))
                      .field("latency", config.event.latency.describe())
                      .field("partition", config.event.partition.describe())
                      .str());
  }
  return doc.str();
}

std::string to_json(const RunningStats& stats) {
  return JsonObject()
      .field("count", stats.count())
      .field("mean", stats.mean())
      .field("sd", stats.sample_stddev())
      .field("min", stats.min())
      .field("max", stats.max())
      .str();
}

std::string to_json(const adversary::IdentificationResult& result) {
  return JsonObject()
      .field("precision", result.precision)
      .field("recall", result.recall)
      .field("f1", result.f1)
      .field("flagged", result.flagged)
      .field("true_positives", result.true_positives)
      .field("trusted_total", result.trusted_total)
      .field("evaluated_at", static_cast<std::uint64_t>(result.evaluated_at))
      .str();
}

std::string to_json(const metrics::ExperimentResult& result) {
  JsonObject doc;
  doc.field("steady_pollution", result.steady_pollution)
      .field("steady_pollution_honest", result.steady_pollution_honest)
      .field("steady_pollution_trusted", result.steady_pollution_trusted)
      .field("discovery_round", round_opt(result.discovery_round))
      .field("stability_round", round_opt(result.stability_round))
      .field("mean_eviction_rate", result.mean_eviction_rate)
      .field("mean_trusted_ratio", result.mean_trusted_ratio)
      .field_raw("ident_best", to_json(result.ident_best))
      .field_raw("ident_final", to_json(result.ident_final))
      .field("enclave_cycles_total", result.enclave_cycles_total)
      .field("swaps_completed", result.swaps_completed)
      .field("pulls_completed", result.pulls_completed)
      .field("legs_dropped", result.legs_dropped)
      .field("legs_tampered", result.legs_tampered)
      .field("legs_corrupted", result.legs_corrupted)
      .field("wire_bytes", result.wire_bytes)
      .field_raw("pollution_series", metrics::json_series(result.pollution_series))
      .field_raw("pollution_series_trusted",
                 metrics::json_series(result.pollution_series_trusted))
      .field_raw("min_knowledge_series",
                 metrics::json_series(result.min_knowledge_series));
  // Attack-side observables exist only for a non-default adversary; omitting
  // them otherwise keeps default-run result JSON byte-identical to the
  // pre-AttackSpec schema (asserted by scenario_test_attack_determinism).
  if (result.attack.engaged) doc.field_raw("attack", to_json(result.attack));
  // Same rule for event-mode observables: round-mode runs omit the block.
  if (result.evt.engaged) doc.field_raw("evt", to_json(result.evt));
  return doc.str();
}

std::string to_json(const metrics::RepeatedResult& result) {
  JsonObject doc;
  doc.field("runs", result.runs)
      .field("discovery_reached", result.discovery_reached)
      .field("stability_reached", result.stability_reached)
      .field_raw("pollution", to_json(result.pollution))
      .field_raw("pollution_honest", to_json(result.pollution_honest))
      .field_raw("pollution_trusted", to_json(result.pollution_trusted))
      .field_raw("discovery", to_json(result.discovery))
      .field_raw("stability", to_json(result.stability))
      .field_raw("eviction_rate", to_json(result.eviction_rate))
      .field_raw("trusted_ratio", to_json(result.trusted_ratio))
      .field_raw("ident_best_precision", to_json(result.ident_best_precision))
      .field_raw("ident_best_recall", to_json(result.ident_best_recall))
      .field_raw("ident_best_f1", to_json(result.ident_best_f1));
  // Same conditional-omission rule as the single-run document: only runs
  // with an engaged adversary contribute attack aggregates.
  if (result.attacked_runs > 0 || result.victim_pollution.count() > 0) {
    doc.field_raw("attack", JsonObject()
                                .field("attacked_runs", result.attacked_runs)
                                .field("isolation_reached", result.isolation_reached)
                                .field_raw("victim_pollution",
                                           to_json(result.victim_pollution))
                                .field_raw("isolation_round",
                                           to_json(result.isolation_round))
                                .field_raw("legs_suppressed",
                                           to_json(result.legs_suppressed))
                                .str());
  }
  return doc.str();
}

std::string to_json(const metrics::ComparisonResult& result) {
  return JsonObject()
      .field_raw("raptee", to_json(result.raptee))
      .field_raw("baseline", to_json(result.baseline))
      .field("resilience_improvement_pct", result.resilience_improvement_pct)
      .field("resilience_improvement_honest_pct",
             result.resilience_improvement_honest_pct)
      .field("discovery_overhead_pct", result.discovery_overhead_pct)
      .field("stability_overhead_pct", result.stability_overhead_pct)
      .str();
}

std::string experiment_document(const ScenarioSpec& spec,
                                const metrics::ExperimentResult& result) {
  return JsonObject()
      .field("schema", "raptee.scenario.experiment/4")
      .field("label", spec.label())
      .field_raw("config", to_json(spec.config()))
      .field_raw("result", to_json(result))
      .str();
}

std::string repeated_document(const ScenarioSpec& spec, std::size_t reps,
                              const metrics::RepeatedResult& result) {
  return JsonObject()
      .field("schema", "raptee.scenario.repeated/4")
      .field("label", spec.label())
      .field("reps", reps)
      .field_raw("config", to_json(spec.config()))
      .field_raw("result", to_json(result))
      .str();
}

std::string comparison_document(const ScenarioSpec& spec, std::size_t reps,
                                const metrics::ComparisonResult& result) {
  return JsonObject()
      .field("schema", "raptee.scenario.comparison/4")
      .field("label", spec.label())
      .field("reps", reps)
      .field_raw("config", to_json(spec.config()))
      .field_raw("result", to_json(result))
      .str();
}

std::string grid_document(const GridResult& sweep, std::size_t reps) {
  JsonArray axes;
  for (const Axis& axis : sweep.axes) {
    JsonArray points;
    for (const AxisPoint& point : axis.points) points.item(point.label);
    axes.item_raw(
        JsonObject().field("name", axis.name).field_raw("points", points.str()).str());
  }
  JsonArray cells;
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    JsonObject cell;
    cell.field("label", sweep.specs[i].label());
    cell.field_raw("config", to_json(sweep.specs[i].config()));
    cell.field_raw("result", to_json(sweep.cells[i]));
    cells.item_raw(cell.str());
  }
  return JsonObject()
      .field("schema", "raptee.scenario.grid/4")
      .field("reps", reps)
      .field_raw("axes", axes.str())
      .field_raw("cells", cells.str())
      .str();
}

bool write(const std::string& path, std::string_view json) {
  if (!metrics::write_text_file(path, json)) {
    // raptee-lint: allow(no-iostream-in-lib) bench front-door contract: the warning must reach the operator
    std::cerr << "warning: could not write " << path << '\n';
    return false;
  }
  // raptee-lint: allow(no-iostream-in-lib) bench front-door contract: the "[json] path" line is part of every bench's stdout
  std::cout << "[json] " << path << '\n';
  return true;
}

BenchReport::BenchReport(std::string bench_name, const Knobs& knobs)
    : bench_name_(std::move(bench_name)), knobs_json_(to_json(knobs)) {}

void BenchReport::add_row(const JsonObject& row) { rows_.item_raw(row.str()); }

BenchReport& BenchReport::set_timing(double wall_seconds, std::size_t threads,
                                     std::optional<double> speedup_vs_serial) {
  timing_json_ = JsonObject()
                     .field("wall_seconds", wall_seconds)
                     .field("threads", threads)
                     .field("speedup_vs_serial", speedup_vs_serial)
                     .str();
  return *this;
}

std::string BenchReport::document() const {
  JsonObject doc;
  doc.field("schema", "raptee.bench/4")
      .field("bench", bench_name_)
      .field_raw("knobs", knobs_json_);
  if (!timing_json_.empty()) doc.field_raw("timing", timing_json_);
  doc.field_raw("rows", rows_.str());
  return doc.str();
}

bool BenchReport::write(const std::string& dir) const {
  return results::write(dir + "/" + bench_name_ + ".json", document());
}

}  // namespace raptee::scenario::results
