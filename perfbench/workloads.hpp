// The perfbench workloads and the metric sets they report.
//
// Every workload reports every metric: BENCHMARK.json declares one metric
// set per mode. Where a layer is not on a workload's path its metric still
// carries a measured number — from the daemon's background engine, an
// off-path probe, or a count that is simply zero there — and README.md
// says which, so a reader knows the prediction there is "no change".
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "probes.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// End-to-end metrics: medians over the untraced repetitions of one run.
struct EndToEnd {
  double setup_s = 0.0;
  double rounds_per_s = 0.0;
  double requests_per_s = 0.0;
  double latency_p50_us = 0.0;
  double correct_share = 0.0;
  double peak_rss_mib = 0.0;
};

/// Net-layer readings of closed-loop service windows.
struct NetLayer {
  double latency_p99_us = 0, latency_p999_us = 0, samples = 0, server_us_mean = 0,
         frames_per_request = 0, bytes_per_request = 0, rejected = 0, rounds_stepped = 0,
         connect_ms = 0;
};

/// Per-layer metrics of a traced run; main.cpp names them and adds units.
struct LayerValues {
  // sim — per round, over the traced repetitions' timed rounds
  double begin_round_ms = 0, push_gen_ms = 0, push_deliver_ms = 0, pulls_ms = 0,
         end_round_ms = 0;
  double pulls_share = 0, exchange_us = 0;
  double exchanges_started = 0, exchanges_completed = 0, exchanges_timed_out = 0,
         pushes_delivered = 0;
  double rss_bytes_per_node = 0;
  // exec
  double busy_cores = 0, shard_speedup = 0;
  // core
  double trusted_exchanges = 0, eviction_rate = 0;
  // evt: events a round schedules (sizes the scheduler probe)
  double queue_depth = 0;
  // scenario, metrics
  double driver_ms = 0, teardown_s = 0;
  // crypto, wire, evt and brahms per-call costs
  ProbeResults probe;
  NetLayer net;
  // the traced run itself
  double overhead_pct = 0;
};

/// wide_round: scenario::Runner::run with an observer.
[[nodiscard]] EndToEnd run_simulator(const RunOptions& opt, Checker& checker, Trace& trace,
                                     LayerValues& layers);
/// service_1c: an in-process net::ServiceDaemon and one closed-loop client.
[[nodiscard]] EndToEnd run_service(const RunOptions& opt, Checker& checker, Trace& trace,
                                   LayerValues& layers);
/// A short service window against a fresh daemon, for the net-layer
/// metrics of the simulator workloads (an off-path probe there).
[[nodiscard]] NetLayer net_probe(std::uint64_t seed, Checker& checker, Trace& trace,
                                 std::uint64_t parent);

/// Self-test halves, at smoke size: each runs a short clean workload into
/// `clean`, which must count no failure, and feeds `faulty` violated
/// invariants, which it must count.
void self_test_simulator(Checker& clean, Checker& faulty);
void self_test_service(Checker& clean, Checker& faulty);

}  // namespace perfbench
