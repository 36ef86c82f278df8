// Tamper sweep: why the paper's §III-B link encryption matters on an open
// network. An on-path adversary flips one bit per tampered leg at rates
// 0 .. RAPTEE_BENCH_TAMPER_PCT percent, against the same scenario with and
// without encrypt_links:
//
//   * encrypted  — encrypt-then-MAC rejects every flip: corruption shows up
//     only as dropped legs (graceful throughput loss, no bad data);
//   * plaintext  — only structural damage fails the typed-leg validator;
//     flips landing in payload fields decode cleanly and reach the
//     protocol as silent corruption (detected < tampered).
//
// Emits bench_out/tamper_sweep.json (raptee.bench/4) and exits
// non-zero if the detection accounting ever breaks.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace raptee;
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("tamper_sweep", knobs);
  std::cout << "on-path bit flips vs link encryption (f=10%, t=20% of correct)\n\n";

  std::vector<std::size_t> rate_pcts{0, 1, 5, knobs.tamper_pct};
  std::sort(rate_pcts.begin(), rate_pcts.end());
  rate_pcts.erase(std::unique(rate_pcts.begin(), rate_pcts.end()), rate_pcts.end());

  metrics::TablePrinter table({"tamper %", "links", "tampered", "detected",
                               "pulls ok", "pollution"});
  scenario::results::BenchReport report("tamper_sweep", knobs);

  bool coherent = true;
  for (const std::size_t pct : rate_pcts) {
    for (const bool encrypted : {false, true}) {
      const scenario::ScenarioSpec spec =
          knobs.base_spec()
              .adversary(0.1)
              .trusted_share(0.2)
              .wire_roundtrip(true)
              .encrypt_links(encrypted)
              .tamper_rate(static_cast<double>(pct) / 100.0)
              .label(std::string("tamper_sweep/") + (encrypted ? "aead" : "plain"));
      const metrics::ExperimentResult result = spec.run();

      table.add_row({std::to_string(pct), encrypted ? "aead" : "plain",
                     std::to_string(result.legs_tampered),
                     std::to_string(result.legs_corrupted),
                     std::to_string(result.pulls_completed),
                     metrics::fmt(result.steady_pollution, 4)});
      report.add_row(metrics::JsonObject()
                         .field("tamper_pct", pct)
                         .field("encrypted", encrypted)
                         .field("legs_tampered", result.legs_tampered)
                         .field("legs_corrupted", result.legs_corrupted)
                         .field("legs_dropped", result.legs_dropped)
                         .field("pulls_completed", result.pulls_completed)
                         .field("swaps_completed", result.swaps_completed)
                         .field("steady_pollution", result.steady_pollution));

      // Accounting gates: AEAD detects everything; plaintext never detects
      // more than was tampered; a zero rate tampers nothing.
      if (pct == 0 && result.legs_tampered != 0) coherent = false;
      if (encrypted && result.legs_corrupted != result.legs_tampered)
        coherent = false;
      if (!encrypted && result.legs_corrupted > result.legs_tampered)
        coherent = false;
    }
  }

  std::cout << table.render() << '\n';
  std::cout << "aead: detected == tampered (every flip rejected); plain: the "
               "gap is silent corruption reaching the protocol\n";
  report.write();

  if (!coherent) {
    std::cerr << "FAIL: tamper detection accounting incoherent\n";
    return 1;
  }
  return 0;
}
