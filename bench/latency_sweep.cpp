// Latency sweep: event-driven time under the delay-assisted adversary —
// latency model x partition schedule x attack, single-run cells with the
// full event-mode telemetry (virtual clock, late legs, partition drops,
// dissemination time) the aggregated grid path does not carry.
//
// Emits bench_out/latency_sweep.json (raptee.bench/4) and exits
// non-zero if event-driven time loses its teeth:
//   * delay leverage — under high-latency (wan) links, delay_eclipse must
//     pollute its trusted victims measurably harder than plain eclipse
//     (the injected delay pushes honest refresh past the round deadline);
//   * defence holds — adaptive eviction must keep the delay-assisted
//     attacker from full isolation even on wan links;
//   * partition accounting — every mid-third cell severs messages
//     (partition_drops > 0), every none cell severs nothing;
//   * clock sanity — every cell advances the virtual clock by exactly
//     rounds x round_interval.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/strategy.hpp"
#include "bench_common.hpp"

int main() {
  using namespace raptee;
  auto knobs = scenario::Knobs::from_env();
  // Runner::run_each runs every cell once, whatever RAPTEE_BENCH_REPS asks:
  // the header and the JSON knobs report the repetitions actually run.
  knobs.reps = 1;
  bench::print_header("latency_sweep", knobs);
  std::cout << "latency x partition x attack, event-driven time "
            << "(f=20%, t=20% of correct, trusted victims)\n\n";

  constexpr std::uint64_t kIntervalMs = 500;
  const Round window_from = knobs.rounds / 3;
  const Round window_until = 2 * knobs.rounds / 3;

  adversary::AttackSpec eclipse = adversary::AttackSpec::eclipse(0.25);
  eclipse.victim_kind = adversary::AttackSpec::VictimKind::kTrusted;
  eclipse.push_cap_fraction = 0.34;
  adversary::AttackSpec delay = adversary::AttackSpec::delay_eclipse(400, 0.25);
  delay.victim_kind = eclipse.victim_kind;
  delay.push_cap_fraction = eclipse.push_cap_fraction;
  adversary::AttackSpec partition_attack =
      adversary::AttackSpec::partition_eclipse(window_from, window_until, 0.25);
  partition_attack.victim_kind = eclipse.victim_kind;
  partition_attack.push_cap_fraction = eclipse.push_cap_fraction;

  std::vector<std::pair<std::string, evt::LatencySpec>> latencies = {
      {"lan", evt::LatencySpec::named("lan")},
      {"wan", evt::LatencySpec::named("wan")}};
  if (knobs.latency != "lan" && knobs.latency != "wan") {
    latencies.emplace_back(knobs.latency, knobs.latency_spec());
  }
  std::vector<std::pair<std::string, evt::PartitionSchedule>> partitions = {
      {"none", evt::PartitionSchedule::none()},
      {"mid-third", evt::PartitionSchedule::named("mid-third", knobs.rounds)}};
  if (knobs.partition != "none" && knobs.partition != "mid-third") {
    partitions.emplace_back(knobs.partition, knobs.partition_schedule());
  }
  // The attack axis carries its paired defence, so it is a custom axis
  // rather than axis_attack: the adaptive point mutates both.
  const std::vector<std::pair<std::string, std::function<void(scenario::ScenarioSpec&)>>>
      attacks = {
          {"eclipse", [&](scenario::ScenarioSpec& s) { s.attack(eclipse); }},
          {"delay_eclipse", [&](scenario::ScenarioSpec& s) { s.attack(delay); }},
          {"delay_eclipse_adaptive",
           [&](scenario::ScenarioSpec& s) {
             s.attack(delay).eviction(core::EvictionSpec::adaptive());
           }},
          {"partition_eclipse",
           [&](scenario::ScenarioSpec& s) { s.attack(partition_attack); }}};

  scenario::Grid grid(knobs.base_spec()
                          .adversary(0.2)
                          .trusted_share(0.2)
                          .round_interval_ms(kIntervalMs)
                          .label("latency_sweep"));
  grid.axis_latency(latencies).axis_partition(partitions);
  {
    std::vector<scenario::AxisPoint> points;
    points.reserve(attacks.size());
    for (const auto& [label, apply] : attacks) points.push_back({label, apply});
    grid.axis("attack", std::move(points));
  }

  const bench::WallTimer timer;
  const std::vector<metrics::ExperimentResult> runs =
      scenario::Runner(knobs.threads).run_each(grid.cells());

  // Row-major like GridResult: latency slowest, attack fastest.
  const std::size_t P = partitions.size();
  const std::size_t A = attacks.size();
  const auto at = [&](std::size_t l, std::size_t p, std::size_t a)
      -> const metrics::ExperimentResult& { return runs[(l * P + p) * A + a]; };

  metrics::TablePrinter table({"latency", "partition", "attack", "victim %",
                               "isolated", "late", "severed", "dissem ms"});
  scenario::results::BenchReport report("latency_sweep", knobs);

  for (std::size_t l = 0; l < latencies.size(); ++l) {
    for (std::size_t p = 0; p < P; ++p) {
      for (std::size_t a = 0; a < A; ++a) {
        const metrics::ExperimentResult& run = at(l, p, a);
        const std::optional<double> isolation =
            run.attack.rounds_to_isolation
                ? std::optional<double>(static_cast<double>(*run.attack.rounds_to_isolation))
                : std::optional<double>();
        table.add_row({latencies[l].first, partitions[p].first, attacks[a].first,
                       metrics::fmt(100.0 * run.attack.steady_victim_pollution),
                       run.attack.rounds_to_isolation ? "yes" : "no",
                       std::to_string(run.evt.legs_late),
                       std::to_string(run.evt.partition_drops),
                       std::to_string(run.evt.dissemination_time_ms)});
        metrics::JsonObject row;
        row.field("latency", latencies[l].first)
            .field("partition", partitions[p].first)
            .field("attack", attacks[a].first)
            .field("pollution", run.steady_pollution)
            .field("victim_pollution", run.attack.steady_victim_pollution)
            .field("rounds_to_isolation", isolation)
            .field("legs_late", run.evt.legs_late)
            .field("partition_drops", run.evt.partition_drops)
            .field("virtual_ms", run.evt.virtual_ms)
            .field("dissemination_time_ms", run.evt.dissemination_time_ms);
        report.add_row(row);
      }
    }
  }

  std::cout << table.render() << '\n';
  bench::report_timing(report, timer, knobs, runs.size());
  report.write();

  // --- gates ---
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    std::cerr << "FAIL: " << what << '\n';
    ok = false;
  };
  const auto attack_index = [&attacks, &fail](const std::string& label) {
    for (std::size_t i = 0; i < attacks.size(); ++i) {
      if (attacks[i].first == label) return i;
    }
    fail("attack axis lost its '" + label + "' point");
    return std::size_t{0};
  };
  const std::size_t eclipse_i = attack_index("eclipse");
  const std::size_t delay_i = attack_index("delay_eclipse");
  const std::size_t adaptive_i = attack_index("delay_eclipse_adaptive");
  if (!ok) return 1;
  const std::size_t wan = 1;  // latencies[1]
  const std::size_t none = 0, mid = 1;

  // Delay leverage: on wan links the injected 400 ms pushes honest refresh
  // past the 500 ms deadline, so the delay-assisted attacker must beat the
  // plain eclipse on the same links.
  const metrics::ExperimentResult& delay_wan = at(wan, none, delay_i);
  const metrics::ExperimentResult& eclipse_wan = at(wan, none, eclipse_i);
  if (delay_wan.attack.steady_victim_pollution <
      eclipse_wan.attack.steady_victim_pollution + 0.02) {
    fail("delay_eclipse does not degrade victim views beyond plain eclipse on wan");
  }
  if (delay_wan.evt.legs_late == 0) {
    fail("delay_eclipse on wan produced no late legs");
  }

  // Defence holds: adaptive eviction keeps the delay-assisted attacker from
  // full isolation even with honest refresh starved.
  if (at(wan, none, adaptive_i).attack.rounds_to_isolation) {
    fail("trusted victims fully isolated despite adaptive eviction");
  }

  // Partition accounting + virtual-clock sanity across every cell.
  const std::uint64_t expected_ms = static_cast<std::uint64_t>(knobs.rounds) * kIntervalMs;
  for (std::size_t l = 0; l < latencies.size(); ++l) {
    for (std::size_t p = 0; p < P; ++p) {
      for (std::size_t a = 0; a < A; ++a) {
        const metrics::ExperimentResult& run = at(l, p, a);
        if (partitions[p].first == "none" && run.evt.partition_drops != 0) {
          fail("unpartitioned cell severed messages");
        }
        if (partitions[p].first == "mid-third" && run.evt.partition_drops == 0) {
          fail("mid-third partition severed nothing");
        }
        if (run.evt.virtual_ms != expected_ms) {
          fail("virtual clock ended at " + std::to_string(run.evt.virtual_ms) +
               " ms, expected " + std::to_string(expected_ms));
        }
        if (!run.evt.engaged) fail("event telemetry missing from an event-mode run");
      }
    }
  }
  (void)mid;

  if (!ok) return 1;
  std::cout << "latency/partition/delay-attack gates passed\n";
  return 0;
}
