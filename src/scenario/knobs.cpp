#include "scenario/knobs.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "adversary/strategy.hpp"
#include "common/assert.hpp"

namespace raptee::scenario {

std::uint64_t parse_u64(const char* what, const char* value, std::uint64_t min,
                        std::uint64_t max) {
  RAPTEE_REQUIRE(value != nullptr && *value != '\0',
                 what << " must be an unsigned decimal integer, got an empty value");
  for (const char* c = value; *c != '\0'; ++c) {
    RAPTEE_REQUIRE(*c >= '0' && *c <= '9',
                   what << " must be an unsigned decimal integer, got '" << value
                        << "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  RAPTEE_REQUIRE(errno != ERANGE, what << "=" << value
                                       << " does not fit in 64 bits");
  const auto result = static_cast<std::uint64_t>(parsed);
  RAPTEE_REQUIRE(result >= min && result <= max,
                 what << "=" << value << " out of range [" << min << ", " << max
                      << "]");
  return result;
}

double parse_double(const char* what, const char* value, double min, double max) {
  RAPTEE_REQUIRE(value != nullptr && *value != '\0',
                 what << " must be a non-negative decimal number, got an empty value");
  bool seen_dot = false;
  bool seen_digit = false;
  for (const char* c = value; *c != '\0'; ++c) {
    if (*c == '.') {
      RAPTEE_REQUIRE(!seen_dot, what << " has two decimal points: '" << value << "'");
      seen_dot = true;
      continue;
    }
    RAPTEE_REQUIRE(*c >= '0' && *c <= '9',
                   what << " must be a non-negative decimal number, got '" << value
                        << "'");
    seen_digit = true;
  }
  RAPTEE_REQUIRE(seen_digit, what << " must contain a digit, got '" << value << "'");
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  RAPTEE_REQUIRE(errno != ERANGE, what << "=" << value << " overflows a double");
  RAPTEE_REQUIRE(parsed >= min && parsed <= max,
                 what << "=" << value << " out of range [" << min << ", " << max
                      << "]");
  return parsed;
}

void cli_usage(const char* program, const char* synopsis,
               std::initializer_list<CliOption> options, const char* error) {
  std::size_t width = 0;
  for (const CliOption& option : options) {
    const std::size_t len = std::strlen(option.name);
    if (len > width) width = len;
  }
  // raptee-lint: allow(no-iostream-in-lib) CLI contract: usage text goes to stderr verbatim
  std::cerr << "error: " << error << "\n"
            << "usage: " << program << ' ' << synopsis << "\n";
  for (const CliOption& option : options) {
    // raptee-lint: allow(no-iostream-in-lib) CLI contract: usage text goes to stderr verbatim
    std::cerr << "  " << option.name
              << std::string(width - std::strlen(option.name) + 2, ' ')
              << option.help << "\n";
  }
  std::exit(2);
}

namespace {

/// Strict decimal parse of an environment variable (parse_u64 semantics);
/// unset returns `fallback`.
std::uint64_t env_u64(const char* name, std::uint64_t fallback, std::uint64_t min,
                      std::uint64_t max) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  return parse_u64(name, value, min, max);
}

std::size_t env_size(const char* name, std::size_t fallback, std::size_t min = 1,
                     std::size_t max = 1u << 30) {
  return static_cast<std::size_t>(env_u64(name, fallback, min, max));
}

}  // namespace

Knobs Knobs::from_env() {
  Knobs knobs;
  knobs.full = env_u64("RAPTEE_BENCH_FULL", 0, 0, 1) != 0;
  if (knobs.full) {
    knobs.n = 10000;
    knobs.l1 = 200;
    knobs.rounds = 200;
    knobs.reps = 10;
  }
  knobs.n = env_size("RAPTEE_BENCH_N", knobs.n, 8);
  knobs.l1 = env_size("RAPTEE_BENCH_L1", knobs.l1);
  knobs.rounds = static_cast<Round>(env_size("RAPTEE_BENCH_ROUNDS", knobs.rounds));
  knobs.reps = env_size("RAPTEE_BENCH_REPS", knobs.reps);
  // 0 would be ambiguous with the "auto" default — unset the variable to
  // get hardware concurrency, or pass an explicit 1..4096.
  knobs.threads = env_size("RAPTEE_BENCH_THREADS", knobs.threads, 1, 4096);
  knobs.seed = env_u64("RAPTEE_BENCH_SEED", knobs.seed, 0, ~0ull);
  knobs.tamper_pct = env_size("RAPTEE_BENCH_TAMPER_PCT", knobs.tamper_pct, 0, 100);
  knobs.port = static_cast<std::uint16_t>(env_u64("RAPTEE_BENCH_PORT", 0, 0, 65535));
  knobs.connections = env_size("RAPTEE_BENCH_CONNECTIONS", knobs.connections, 1, 4096);
  knobs.duration_ms = env_u64("RAPTEE_BENCH_DURATION_MS", knobs.duration_ms, 1, 600000);
  if (const char* latency = std::getenv("RAPTEE_BENCH_LATENCY")) {
    // Resolve through the evt catalog so a typo fails loudly, with the
    // valid names in the message (LatencySpec::named throws).
    (void)evt::LatencySpec::named(latency);
    knobs.latency = latency;
  }
  if (const char* jitter = std::getenv("RAPTEE_BENCH_JITTER_PCT")) {
    knobs.jitter_pct = parse_double("RAPTEE_BENCH_JITTER_PCT", jitter, 0.0, 100.0);
  }
  if (const char* partition = std::getenv("RAPTEE_BENCH_PARTITION")) {
    (void)evt::PartitionSchedule::named(partition, knobs.rounds);
    knobs.partition = partition;
  }
  if (const char* attack = std::getenv("RAPTEE_BENCH_ATTACK")) {
    RAPTEE_REQUIRE(adversary::find_strategy(attack) != nullptr,
                   "RAPTEE_BENCH_ATTACK names no catalog strategy: '" << attack << "'");
    knobs.attack = attack;
  }
  return knobs;
}

ScenarioSpec Knobs::base_spec() const {
  return ScenarioSpec()
      .population(n)
      .view_size(l1)
      .rounds(rounds)
      .seed(seed)
      .adversary(0.0)
      .attack(adversary::AttackSpec::named(attack))
      .auth_mode(brahms::AuthMode::kFingerprint);
}

evt::LatencySpec Knobs::latency_spec() const {
  evt::LatencySpec spec = evt::LatencySpec::named(latency);
  if (jitter_pct > 0.0) spec.jitter_pct = jitter_pct;
  return spec;
}

evt::PartitionSchedule Knobs::partition_schedule() const {
  return evt::PartitionSchedule::named(partition, rounds);
}

std::vector<int> Knobs::f_grid() const {
  if (full) {
    std::vector<int> grid;
    for (int f = 10; f <= 30; f += 2) grid.push_back(f);
    return grid;
  }
  return {10, 20, 30};
}

std::vector<int> Knobs::t_grid() const {
  if (full) return {1, 5, 10, 20, 30, 50};
  return {1, 10, 30};
}

std::vector<int> Knobs::er_grid() const {
  if (full) return {0, 20, 40, 60, 80, 100};
  return {0, 60, 100};
}

}  // namespace raptee::scenario
