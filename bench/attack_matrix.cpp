// Attack matrix: the full adversary catalog (every catalog strategy,
// plus a trusted-victim eclipse variant) against the defence axis (no
// eviction / fixed 60 % / adaptive), on one RAPTEE population — the
// coverage BASALT-style evaluations demand and the single balanced attack
// of the paper's §VI cannot provide.
//
// Emits bench_out/attack_matrix.{csv,json} (raptee.bench/4) and exits
// non-zero if the catalog loses its teeth:
//   * capture — the honest-victim eclipse must push its victims well past
//     the population-wide pollution, to majority capture (eviction cannot
//     protect honest nodes);
//   * eviction differentiation — the trusted-victim eclipse must pollute
//     its victims measurably harder with eviction off than under adaptive
//     eviction, and adaptive eviction must prevent full isolation;
//   * suppression accounting — only the omission strategy suppresses legs,
//     and it must actually suppress some;
//   * purity — the balanced row never engages attack telemetry, while the
//     oscillating row always does.
#include <iostream>
#include <string>
#include <vector>

#include "adversary/strategy.hpp"
#include "bench_common.hpp"

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("attack_matrix", knobs);
  std::cout << "adversary catalog x eviction policy (f=20%, t=20% of correct)\n\n";

  adversary::AttackSpec eclipse_honest = adversary::AttackSpec::eclipse(0.25);
  eclipse_honest.victim_kind = adversary::AttackSpec::VictimKind::kHonest;
  eclipse_honest.push_cap_fraction = 0.34;
  eclipse_honest.isolation_threshold = 0.5;
  adversary::AttackSpec eclipse_trusted = eclipse_honest;
  eclipse_trusted.victim_kind = adversary::AttackSpec::VictimKind::kTrusted;
  eclipse_trusted.isolation_threshold = 0.75;

  const std::vector<std::pair<std::string, adversary::AttackSpec>> attacks = {
      {"balanced", adversary::AttackSpec::balanced()},
      {"eclipse", eclipse_honest},
      {"eclipse_trusted", eclipse_trusted},
      {"oscillating", adversary::AttackSpec::oscillating()},
      {"omission", adversary::AttackSpec::omission()},
      {"bogus_swap", adversary::AttackSpec::bogus_swap()}};
  const std::vector<std::pair<std::string, core::EvictionSpec>> evictions = {
      {"none", core::EvictionSpec::none()},
      {"fixed60", core::EvictionSpec::fixed(0.6)},
      {"adaptive", core::EvictionSpec::adaptive()}};

  scenario::Grid grid(knobs.base_spec()
                          .adversary(0.2)
                          .trusted_share(0.2)
                          .label("attack_matrix"));
  grid.axis_attack(attacks).axis_eviction(evictions);

  const bench::WallTimer timer;
  const scenario::GridResult sweep =
      scenario::Runner(knobs.threads).run_grid(grid, knobs.reps);

  metrics::TablePrinter table({"attack", "eviction", "pollution %", "victim %",
                               "isolated", "suppressed"});
  metrics::CsvWriter csv({"attack", "eviction", "pollution", "victim_pollution",
                          "isolation_reached", "isolation_round_mean",
                          "legs_suppressed_mean", "attacked_runs"});
  scenario::results::BenchReport report("attack_matrix", knobs);

  for (std::size_t a = 0; a < attacks.size(); ++a) {
    for (std::size_t e = 0; e < evictions.size(); ++e) {
      const metrics::RepeatedResult& cell = sweep.at({a, e});
      const bool has_victims = cell.victim_pollution.count() > 0;
      const double suppressed =
          cell.legs_suppressed.count() ? cell.legs_suppressed.mean() : 0.0;
      table.add_row(
          {attacks[a].first, evictions[e].first,
           metrics::fmt(100.0 * cell.pollution.mean()),
           has_victims ? metrics::fmt(100.0 * cell.victim_pollution.mean()) : "-",
           std::to_string(cell.isolation_reached) + "/" + std::to_string(cell.runs),
           metrics::fmt(suppressed, 0)});
      csv.add_row({attacks[a].first, evictions[e].first,
                   metrics::fmt(cell.pollution.mean(), 6),
                   has_victims ? metrics::fmt(cell.victim_pollution.mean(), 6) : "",
                   std::to_string(cell.isolation_reached),
                   cell.isolation_reached ? metrics::fmt(cell.isolation_round.mean(), 1)
                                          : "",
                   metrics::fmt(suppressed, 1), std::to_string(cell.attacked_runs)});
      metrics::JsonObject row;
      row.field("attack", attacks[a].first)
          .field("eviction", evictions[e].first)
          .field("pollution", cell.pollution.mean())
          .field("victim_pollution",
                 has_victims ? std::optional<double>(cell.victim_pollution.mean())
                             : std::optional<double>())
          .field("isolation_reached", cell.isolation_reached)
          .field("isolation_round_mean",
                 cell.isolation_reached
                     ? std::optional<double>(cell.isolation_round.mean())
                     : std::optional<double>())
          .field("legs_suppressed_mean", suppressed)
          .field("attacked_runs", cell.attacked_runs)
          .field("runs", cell.runs);
      report.add_row(row);
    }
  }

  std::cout << table.render() << '\n';
  bench::report_timing(report, timer, knobs, sweep.cells.size() * knobs.reps);
  bench::write_csv("attack_matrix.csv", csv);
  report.write();

  // --- gates ---
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    std::cerr << "FAIL: " << what << '\n';
    ok = false;
  };

  // Axis indices derived from the labels so reordering the axis vectors
  // cannot silently point the gates at the wrong cells.
  const auto attack_index = [&attacks, &fail](const std::string& label) {
    for (std::size_t i = 0; i < attacks.size(); ++i) {
      if (attacks[i].first == label) return i;
    }
    fail("attack axis lost its '" + label + "' point");
    return std::size_t{0};
  };
  const auto eviction_index = [&evictions, &fail](const std::string& label) {
    for (std::size_t i = 0; i < evictions.size(); ++i) {
      if (evictions[i].first == label) return i;
    }
    fail("eviction axis lost its '" + label + "' point");
    return std::size_t{0};
  };
  const std::size_t balanced_i = attack_index("balanced");
  const std::size_t eclipse_i = attack_index("eclipse");
  const std::size_t eclipse_trusted_i = attack_index("eclipse_trusted");
  const std::size_t oscillating_i = attack_index("oscillating");
  const std::size_t omission_i = attack_index("omission");
  const std::size_t ev_none = eviction_index("none");
  const std::size_t ev_adaptive = eviction_index("adaptive");
  if (!ok) return 1;

  // Honest-victim capture: eviction cannot protect honest nodes, so with
  // defences off the victims must sit far above the population average and
  // reach majority capture (either the all-victims isolation event at the
  // 0.5 threshold, or a majority-polluted victim mean).
  const auto& capture = sweep.at({eclipse_i, ev_none});
  if (capture.victim_pollution.count() == 0) {
    fail("honest-victim eclipse carries no victim telemetry");
  } else {
    if (capture.victim_pollution.mean() < capture.pollution.mean() + 0.05) {
      fail("eclipse victims are no worse off than the population average");
    }
    if (capture.isolation_reached == 0 && capture.victim_pollution.mean() < 0.5) {
      fail("honest-victim eclipse reached neither isolation nor majority capture");
    }
  }

  // Eviction-vs-strategy differentiation on the hardened targets: adaptive
  // eviction must measurably protect trusted victims and keep them clear of
  // full isolation.
  const auto& hard_off = sweep.at({eclipse_trusted_i, ev_none});
  const auto& hard_on = sweep.at({eclipse_trusted_i, ev_adaptive});
  if (hard_off.victim_pollution.count() == 0 || hard_on.victim_pollution.count() == 0) {
    fail("trusted-victim eclipse carries no victim telemetry");
  } else {
    if (hard_off.victim_pollution.mean() < hard_on.victim_pollution.mean() + 0.02) {
      fail("adaptive eviction does not protect trusted eclipse victims");
    }
    if (hard_on.isolation_reached != 0) {
      fail("trusted victims reached full isolation despite adaptive eviction");
    }
  }

  // Suppression accounting: omission suppresses, nobody else does.
  for (std::size_t a = 0; a < attacks.size(); ++a) {
    for (std::size_t e = 0; e < evictions.size(); ++e) {
      const auto& cell = sweep.at({a, e});
      const double suppressed =
          cell.legs_suppressed.count() ? cell.legs_suppressed.mean() : 0.0;
      if (a == omission_i && suppressed <= 0.0) {
        fail("omission strategy suppressed no legs");
      }
      if (a != omission_i && suppressed > 0.0) {
        fail("strategy '" + attacks[a].first + "' unexpectedly suppressed legs");
      }
    }
  }

  // Purity: balanced rows carry no attack telemetry; oscillating engages
  // every run (its duty cycle is telemetry, not silence).
  if (sweep.at({balanced_i, ev_none}).attacked_runs != 0 ||
      sweep.at({balanced_i, ev_none}).victim_pollution.count() != 0) {
    fail("balanced default unexpectedly engaged attack telemetry");
  }
  if (sweep.at({oscillating_i, ev_none}).attacked_runs != knobs.reps) {
    fail("oscillating rows missing engaged-run telemetry");
  }

  if (!ok) return 1;
  std::cout << "attack/eviction differentiation gates passed\n";
  return 0;
}
