// perfbench — runs one workload of the repository benchmark in this
// process and prints its metrics. run.py builds this binary and is the
// command to use (see README.md):
//
//   perfbench --workload <wide_round|service_1c> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//   perfbench --self-test
//
// The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics in an untraced
// run, the per-layer metrics in a traced one. The exit code is 0 only when
// every output check held.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/json.hpp"
#include "scenario/knobs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e, double ok_share) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"rounds_per_s", e.rounds_per_s, "1/s"},
      {"requests_per_s", e.requests_per_s, "1/s"},
      {"latency_p50_us", e.latency_p50_us, "us"},
      {"correct_share", e.correct_share, "fraction"},
      {"peak_rss_mib", e.peak_rss_mib, "MiB"},
      {"ok_share", ok_share, "fraction"},
  };
}

std::vector<Metric> layer_metrics(const LayerValues& v, double failed_share) {
  return {
      {"sim.begin_round_ms", v.begin_round_ms, "ms"},
      {"sim.push_gen_ms", v.push_gen_ms, "ms"},
      {"sim.push_deliver_ms", v.push_deliver_ms, "ms"},
      {"sim.pulls_ms", v.pulls_ms, "ms"},
      {"sim.end_round_ms", v.end_round_ms, "ms"},
      {"sim.pulls_share", v.pulls_share, "fraction"},
      {"sim.exchange_us", v.exchange_us, "us"},
      {"sim.exchanges_started", v.exchanges_started, "count/round"},
      {"sim.exchanges_completed", v.exchanges_completed, "count/round"},
      {"sim.exchanges_timed_out", v.exchanges_timed_out, "count/round"},
      {"sim.pushes_delivered", v.pushes_delivered, "count/round"},
      {"sim.rss_bytes_per_node", v.rss_bytes_per_node, "B/node"},
      {"exec.busy_cores", v.busy_cores, "cores"},
      {"exec.shard_speedup", v.shard_speedup, "x"},
      {"brahms.auth_handshake_us", v.probe.auth_handshake_us, "us"},
      // A layer's share of its phase: per-call cost x calls / phase time.
      {"brahms.auth_share_of_pulls",
       v.probe.auth_handshake_us * v.exchanges_started / (v.pulls_ms * 1000.0), "fraction"},
      {"brahms.sampler_feed_ns_per_id", v.probe.sampler_feed_ns_per_id, "ns/id"},
      {"core.trusted_exchanges", v.trusted_exchanges, "count/round"},
      {"core.eviction_rate", v.eviction_rate, "fraction"},
      {"crypto.hmac_sha256_ns", v.probe.hmac_sha256_ns, "ns"},
      {"crypto.sha256_ns_per_kib", v.probe.sha256_ns_per_kib, "ns/KiB"},
      {"crypto.aes256_ctr_ns_per_kib", v.probe.aes256_ctr_ns_per_kib, "ns/KiB"},
      {"crypto.drbg_fill16_ns", v.probe.drbg_fill16_ns, "ns"},
      {"wire.codec_us_per_leg", v.probe.codec_us_per_leg, "us"},
      {"wire.seal_open_us_per_leg", v.probe.seal_open_us_per_leg, "us"},
      {"evt.schedule_pop_ns", v.probe.schedule_pop_ns, "ns"},
      {"evt.queue_depth", v.queue_depth, "count"},
      {"scenario.driver_ms", v.driver_ms, "ms"},
      {"scenario.teardown_s", v.teardown_s, "s"},
      {"net.latency_p99_us", v.net.latency_p99_us, "us"},
      {"net.latency_p999_us", v.net.latency_p999_us, "us"},
      {"net.samples", v.net.samples, "count"},
      {"net.server_us_mean", v.net.server_us_mean, "us"},
      {"net.frames_per_request", v.net.frames_per_request, "count"},
      {"net.bytes_per_request", v.net.bytes_per_request, "B"},
      {"net.rejected", v.net.rejected, "count"},
      {"net.rounds_stepped", v.net.rounds_stepped, "count"},
      {"net.connect_ms", v.net.connect_ms, "ms"},
      {"trace.overhead_pct", v.overhead_pct, "%"},
      {"failed_share", failed_share, "fraction"},
  };
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  raptee::metrics::JsonObject out;
  for (const Metric& m : metrics) {
    out.field_raw(m.name,
                  raptee::metrics::JsonObject().field("value", m.value).field("unit", m.unit).str());
  }
  return out.str();
}

int self_test() {
  Checker sim_clean, sim_faulty, svc_clean, svc_faulty;
  self_test_simulator(sim_clean, sim_faulty);
  self_test_service(svc_clean, svc_faulty);
  struct Expect {
    const char* what;
    const Checker& checker;
    std::uint64_t attempted;  ///< 0 = any positive count (a timed window)
    std::uint64_t failed;
  };
  // Two 4-round simulator runs, the faulty one with one violated
  // invariant; the service: a clean short window and three forged
  // replies, two of them invalid.
  const Expect expects[] = {
      {"simulator, clean", sim_clean, 4, 0},
      {"simulator, one violated invariant", sim_faulty, 4, 1},
      {"service, clean", svc_clean, 0, 0},
      {"service, forged replies", svc_faulty, 3, 2},
  };
  bool ok = true;
  for (const Expect& e : expects) {
    const bool attempted_ok = e.attempted == 0 ? e.checker.attempted() > 0
                                               : e.checker.attempted() == e.attempted;
    const bool pass = attempted_ok && e.checker.failed() == e.failed;
    std::printf("self-test %-34s attempted %6llu failed %llu  %s\n", e.what,
                static_cast<unsigned long long>(e.checker.attempted()),
                static_cast<unsigned long long>(e.checker.failed()), pass ? "ok" : "FAIL");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const char* error) {
  raptee::scenario::cli_usage(
      "perfbench",
      "--workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] | "
      "--self-test",
      {{"--workload", "wide_round or service_1c"},
       {"--seed", "workload seed (same seed, same inputs)"},
       {"--seconds", "measurement budget of the run"},
       {"--trace", "1 = per-layer metrics and spans, 0 = end-to-end metrics"},
       {"--trace-out", "file for the traced run's spans and metrics"},
       {"--self-test", "check that the harness counts violated invariants"}},
      error);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") return self_test();
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      const char* value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = raptee::scenario::parse_u64("--seed", value, 0, ~std::uint64_t{0});
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = raptee::scenario::parse_double("--seconds", value, 0.1, 3600.0);
        have_seconds = true;
      } else if (arg == "--trace") {
        opt.trace = raptee::scenario::parse_u64("--trace", value, 0, 1) == 1;
        have_trace = true;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const bool simulator = opt.workload == "wide_round";
  if (!simulator && opt.workload != "service_1c") usage("unknown workload");

  Checker checker;
  Trace trace(opt.trace);
  LayerValues layers;
  EndToEnd e2e;
  try {
    e2e = simulator ? run_simulator(opt, checker, trace, layers)
                    : run_service(opt, checker, trace, layers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  const double attempted = static_cast<double>(checker.attempted());
  const double failed_share = static_cast<double>(checker.failed()) / attempted;
  const std::vector<Metric> end_to_end = end_to_end_metrics(e2e, 1.0 - failed_share);
  const std::vector<Metric> per_layer = layer_metrics(layers, failed_share);
  for (const std::string& failure : checker.failures()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  if (opt.trace && !trace_out.empty()) {
    const std::string doc = raptee::metrics::JsonObject()
                                .field("schema", "raptee.perfbench.trace/1")
                                .field("workload", opt.workload)
                                .field("seed", opt.seed)
                                .field("seconds", opt.seconds)
                                .field("correct", checker.correct())
                                .field("attempted", checker.attempted())
                                .field("failed", checker.failed())
                                .field_raw("end_to_end", metrics_json(end_to_end))
                                .field_raw("per_layer", metrics_json(per_layer))
                                .field_raw("spans", trace.to_json())
                                .str();
    if (!raptee::metrics::write_text_file(trace_out, doc)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  const std::string line = raptee::metrics::JsonObject()
                               .field("correct", checker.correct())
                               .field("attempted", checker.attempted())
                               .field("failed", checker.failed())
                               .field_raw("metrics", metrics_json(opt.trace ? per_layer
                                                                            : end_to_end))
                               .str();
  std::printf("%s\n", line.c_str());
  return checker.correct() ? 0 : 1;
}
