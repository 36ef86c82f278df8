// Environment-driven sizing shared by every figure/table bench.
//
// Grids default to a runtime-trimmed "quick" mode; RAPTEE_BENCH_FULL=1
// selects the paper-scale grid (N=10,000, view 200, 200 rounds, 10 reps,
// f in 10..30 step 2, t in {1,5,10,20,30,50}, ER in {0,20,...,100}), and
// individual knobs are overridden with RAPTEE_BENCH_N / _L1 / _ROUNDS /
// _REPS / _THREADS / _SEED. README.md documents the full table.
//
// Parsing is strict: a knob must be a plain unsigned decimal in range —
// signs, trailing garbage (`RAPTEE_BENCH_SEED=12abc`), overlong or
// out-of-range values raise std::invalid_argument instead of silently
// falling back. Named knobs resolve through their catalogs the same way:
// RAPTEE_BENCH_ATTACK through adversary::strategy_catalog(), the latency
// and partition knobs through the evt presets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace raptee::scenario {

/// Strict unsigned-decimal parse shared by the env knobs and example argv
/// handling: digits only (no sign, no trailing garbage), range-checked
/// against [min, max]. Throws std::invalid_argument with a message naming
/// `what` on any violation.
[[nodiscard]] std::uint64_t parse_u64(const char* what, const char* value,
                                      std::uint64_t min, std::uint64_t max);

/// Strict non-negative decimal parse (digits with an optional fractional
/// part — "20", "12.5"; no sign, no exponent, no trailing garbage),
/// range-checked against [min, max]. Throws std::invalid_argument.
[[nodiscard]] double parse_double(const char* what, const char* value, double min,
                                  double max);

/// One argument row in a tool's usage block: name plus one-line help.
struct CliOption {
  const char* name;
  const char* help;
};

/// Shared bad-usage exit for the CLI tools (rapteed, raptee_load): prints
///   error: <error>
///   usage: <program> <synopsis>
///     <name>  <help>        (names column-aligned)
/// to stderr and exits 2 — the status the CI bad-usage gate asserts.
[[noreturn]] void cli_usage(const char* program, const char* synopsis,
                            std::initializer_list<CliOption> options,
                            const char* error);

struct Knobs {
  bool full = false;
  std::size_t n = 400;
  std::size_t l1 = 40;
  Round rounds = 150;
  std::size_t reps = 1;
  /// Runner pool width for cell batches: 0 = hardware concurrency (the
  /// default), 1 = sequential. RAPTEE_BENCH_THREADS accepts 1..4096.
  std::size_t threads = 0;
  std::uint64_t seed = 20220308;  // arXiv date of the paper
  /// Strongest tamper_rate point (percent) of the tamper-sweep bench;
  /// RAPTEE_BENCH_TAMPER_PCT accepts 0..100.
  std::size_t tamper_pct = 25;
  /// Adversary strategy applied by base_spec(); RAPTEE_BENCH_ATTACK accepts
  /// any name in adversary::strategy_catalog() (default parameters via
  /// AttackSpec::named).
  std::string attack = "balanced";
  /// Service-bench (bench/service_load) knobs. RAPTEE_BENCH_PORT accepts
  /// 0..65535 (0 = ephemeral), RAPTEE_BENCH_CONNECTIONS 1..4096,
  /// RAPTEE_BENCH_DURATION_MS 1..600000.
  std::uint16_t port = 0;
  std::size_t connections = 8;
  std::uint64_t duration_ms = 1000;
  /// Event-mode knobs (bench/latency_sweep). RAPTEE_BENCH_LATENCY accepts
  /// any evt::LatencySpec::named model ("zero", "lan", "wan", "tail",
  /// "geo3"); RAPTEE_BENCH_JITTER_PCT accepts 0..100 (applied on top of the
  /// model's own jitter); RAPTEE_BENCH_PARTITION accepts any
  /// evt::PartitionSchedule::named schedule ("none", "mid-third",
  /// "late-half"). base_spec() stays in round mode — benches opt into the
  /// event scheduler per cell with event_spec().
  std::string latency = "lan";
  double jitter_pct = 0.0;
  std::string partition = "none";

  /// Reads RAPTEE_BENCH_* from the environment (strict parse, see above).
  [[nodiscard]] static Knobs from_env();

  /// The base spec shared by all figure benches (fingerprint auth, no
  /// adversary/trust configured — benches layer those per cell).
  [[nodiscard]] ScenarioSpec base_spec() const;

  /// The latency/jitter/partition knobs resolved into an event-mode
  /// LatencySpec + PartitionSchedule pair (partition windows denominated in
  /// `rounds`). Benches apply them via ScenarioSpec::latency()/partition()
  /// or the Grid axes.
  [[nodiscard]] evt::LatencySpec latency_spec() const;
  [[nodiscard]] evt::PartitionSchedule partition_schedule() const;

  /// Byzantine-fraction grid (percent): paper 10..30 step 2; quick {10,20,30}.
  [[nodiscard]] std::vector<int> f_grid() const;
  /// Trusted-fraction grid (percent): paper {1,5,10,20,30,50}; quick {1,10,30}.
  [[nodiscard]] std::vector<int> t_grid() const;
  /// Eviction-rate grid (percent): paper {0,20,...,100}; quick {0,60,100}.
  [[nodiscard]] std::vector<int> er_grid() const;
};

}  // namespace raptee::scenario
