// The simulator workload, wide_round. Each repetition is one
// scenario::Runner::run of a fixed number of rounds at the run's seed, so
// every repetition must produce the same results document; an observer
// times the rounds and checks each round's outputs.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "metrics/json.hpp"
#include "probes.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace raptee;
using Counters = sim::Engine::Counters;

constexpr std::size_t kPopulation = 10'000;
constexpr std::size_t kView = 40;
/// Each repetition runs one warm-up round, then this many timed rounds.
constexpr Round kTimedRounds = 1;
constexpr std::size_t kMinReps = 3;
constexpr Round kNoFault = ~Round{0};

/// True while another repetition should start: always until `kMinReps`
/// are done, then while one more mean-length repetition fits the budget.
bool another_rep(std::size_t done, double elapsed_s, double budget_s) {
  if (done < kMinReps) return true;
  return elapsed_s + elapsed_s / static_cast<double>(done) <= budget_s;
}

/// The paper's mix: f = 10 %, t = 1 %, adaptive eviction, the balanced
/// attack and fingerprint auth, in round mode without a wire round trip.
scenario::ScenarioSpec make_spec(std::size_t population, std::size_t view,
                                 std::size_t width, Round rounds, std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.population(population)
      .view_size(view)
      .adversary(0.10)
      .trusted(0.01)
      .eviction(core::EvictionSpec::adaptive())
      .auth_mode(brahms::AuthMode::kFingerprint)
      .threads(width)
      .rounds(rounds)
      .seed(seed);
  return spec;
}

Counters minus(const Counters& a, const Counters& b) {
  Counters d;
  d.pushes_sent = a.pushes_sent - b.pushes_sent;
  d.pushes_delivered = a.pushes_delivered - b.pushes_delivered;
  d.pulls_started = a.pulls_started - b.pulls_started;
  d.pulls_completed = a.pulls_completed - b.pulls_completed;
  d.pulls_timed_out = a.pulls_timed_out - b.pulls_timed_out;
  d.swaps_completed = a.swaps_completed - b.swaps_completed;
  return d;
}

/// The per-round output checks; empty when all hold, else the first that
/// failed.
std::string check_round(const scenario::RoundSnapshot& s, Round expected,
                        const Counters& round, const Counters& total,
                        const metrics::ExperimentConfig& config) {
  if (s.round != expected) return "round index out of sequence";
  if (round.pulls_started != round.pulls_completed + round.pulls_timed_out) {
    return "exchanges started != completed + timed out";
  }
  if (round.pushes_delivered > round.pushes_sent) return "more pushes delivered than sent";
  for (const double p : {s.pollution, s.pollution_honest, s.pollution_trusted}) {
    if (!(p >= 0.0 && p <= 1.0)) return "pollution outside [0, 1]";
  }
  if (config.tamper_rate == 0.0 && (total.legs_corrupted != 0 || total.legs_tampered != 0)) {
    return "corrupted legs without tampering";
  }
  return {};
}

struct RoundRecord {
  Clock::time_point end;
  double wall_ms = 0.0;
  std::array<double, sim::Engine::kPhaseCount> phase_ms{};
  Counters delta;
  double pollution = 0.0;
  double pollution_honest = 0.0;
  double eviction_rate = 0.0;

  [[nodiscard]] double phases_total_ms() const {
    double sum = 0.0;
    for (const double p : phase_ms) sum += p;
    return sum;
  }
  /// The phases the engine shards across its pool (all but the exchanges).
  [[nodiscard]] double sharded_ms() const {
    return phases_total_ms() - phase_ms[sim::Engine::kPhasePulls];
  }
};

/// Times and checks every round of one Runner::run.
class SimObserver final : public scenario::IScenarioObserver {
 public:
  SimObserver(Checker& checker, Round fault_round)
      : checker_(checker), fault_round_(fault_round) {}

  void on_run_start(const metrics::ExperimentConfig& config,
                    const sim::Engine& engine) override {
    started_ = Clock::now();
    last_end_ = started_;
    config_ = config;
    total_nodes_ = engine.size();
  }

  void on_round(const scenario::RoundSnapshot& snapshot, const sim::Engine& engine) override {
    const auto now = Clock::now();
    const Counters& total = engine.counters();
    RoundRecord r;
    r.end = now;
    r.wall_ms = std::chrono::duration<double, std::milli>(now - last_end_).count();
    r.phase_ms = snapshot.phase_ms;
    r.delta = minus(total, last_);
    r.pollution = snapshot.pollution;
    r.pollution_honest = snapshot.pollution_honest;
    r.eviction_rate = snapshot.eviction_rate;

    scenario::RoundSnapshot checked = snapshot;
    if (snapshot.round == fault_round_) checked.pollution_honest = 1.5;  // self-test
    const std::string failure =
        check_round(checked, static_cast<Round>(rounds_.size()), r.delta, total, config_);
    checker_.op(failure.empty(),
                "round " + std::to_string(snapshot.round) + ": " + failure);

    if (rounds_.empty()) {
      rss_after_warmup_ = rss_bytes();
      cpu_after_warmup_ = process_cpu_s();
    }
    rounds_.push_back(r);
    last_ = total;
    last_end_ = now;
  }

  [[nodiscard]] Clock::time_point started() const { return started_; }
  [[nodiscard]] const std::vector<RoundRecord>& rounds() const { return rounds_; }
  [[nodiscard]] std::size_t total_nodes() const { return total_nodes_; }
  [[nodiscard]] double rss_after_warmup() const { return rss_after_warmup_; }
  [[nodiscard]] double cpu_after_warmup() const { return cpu_after_warmup_; }

 private:
  Checker& checker_;
  Round fault_round_;
  metrics::ExperimentConfig config_;
  Clock::time_point started_;
  Clock::time_point last_end_;
  Counters last_;
  std::size_t total_nodes_ = 0;
  double rss_after_warmup_ = 0.0;
  double cpu_after_warmup_ = 0.0;
  std::vector<RoundRecord> rounds_;
};

/// One measured repetition: setup is everything up to the end of the
/// warm-up round, the window everything after it until Runner::run
/// returns (teardown included, so no work can hide in it).
struct Rep {
  double setup_s = 0.0;
  double window_s = 0.0;
  double teardown_s = 0.0;
  double busy_cores = 0.0;
  double rss_per_node = 0.0;
  std::vector<RoundRecord> rounds;  ///< rounds[0] is the warm-up round
  metrics::ExperimentResult result;

  [[nodiscard]] double rounds_per_s() const {
    return static_cast<double>(rounds.size() - 1) / window_s;
  }
  [[nodiscard]] double exchanges_per_s() const {
    double started = 0.0;
    for (std::size_t i = 1; i < rounds.size(); ++i) {
      started += static_cast<double>(rounds[i].delta.pulls_started);
    }
    return started / window_s;
  }
};

void add_round_spans(Trace& trace, std::uint64_t parent, const std::string& name,
                     Clock::time_point start, const RoundRecord& r) {
  static constexpr std::array<const char*, sim::Engine::kPhaseCount> kPhaseSpan{
      "sim.begin_round", "sim.push_gen", "sim.push_deliver", "sim.pulls", "sim.end_round"};
  const std::uint64_t id = trace.add(name, parent, start, r.end);
  // The engine reports phase durations, not timestamps: lay the five phase
  // spans end to end from the round's start. The round's self time (the
  // scenario loop's share) is what they leave uncovered.
  auto cursor = start;
  for (std::size_t p = 0; p < r.phase_ms.size(); ++p) {
    const auto next = cursor + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(r.phase_ms[p]));
    trace.add(kPhaseSpan[p], id, cursor, next);
    cursor = next;
  }
}

Rep run_rep(const scenario::ScenarioSpec& spec, Checker& checker, Trace& trace,
            std::uint64_t parent, Round fault_round = kNoFault) {
  SimObserver observer(checker, fault_round);
  const double rss_before = rss_bytes();
  const auto t_call = Clock::now();
  Rep rep;
  rep.result = scenario::Runner(1).run(spec, &observer);
  const auto t_return = Clock::now();
  const double cpu_end = process_cpu_s();

  rep.rounds = observer.rounds();
  RAPTEE_REQUIRE(rep.rounds.size() >= 2, "a repetition needs a warm-up and a timed round");
  const RoundRecord& warm = rep.rounds.front();
  rep.setup_s = seconds_between(t_call, warm.end);
  rep.window_s = seconds_between(warm.end, t_return);
  rep.teardown_s = seconds_between(rep.rounds.back().end, t_return);
  rep.busy_cores = (cpu_end - observer.cpu_after_warmup()) / rep.window_s;
  rep.rss_per_node = (observer.rss_after_warmup() - rss_before) /
                     static_cast<double>(observer.total_nodes());

  if (trace.enabled()) {
    const std::uint64_t rep_span = trace.add("rep", parent, t_call, t_return);
    const std::uint64_t setup = trace.add("setup", rep_span, t_call, warm.end);
    trace.add("setup.build_bootstrap", setup, t_call, observer.started());
    add_round_spans(trace, setup, "warm-up", observer.started(), warm);
    for (std::size_t i = 1; i < rep.rounds.size(); ++i) {
      add_round_spans(trace, rep_span, "round " + std::to_string(i), rep.rounds[i - 1].end,
                      rep.rounds[i]);
    }
    trace.add("teardown", rep_span, rep.rounds.back().end, t_return);
  }
  return rep;
}

/// Mean of a per-round quantity over the timed rounds of `reps`.
template <typename Fn>
double per_round(const std::vector<Rep>& reps, Fn&& fn) {
  std::vector<double> xs;
  for (const Rep& rep : reps) {
    for (std::size_t i = 1; i < rep.rounds.size(); ++i) xs.push_back(fn(rep.rounds[i]));
  }
  return mean_of(xs);
}

void fill_layers(const std::vector<Rep>& traced, LayerValues& v) {
  const auto phase = [&](std::size_t p) {
    return per_round(traced, [p](const RoundRecord& r) { return r.phase_ms[p]; });
  };
  const auto count = [&](std::uint64_t Counters::*field) {
    return per_round(traced,
                     [field](const RoundRecord& r) { return static_cast<double>(r.delta.*field); });
  };
  v.begin_round_ms = phase(sim::Engine::kPhaseBeginRound);
  v.push_gen_ms = phase(sim::Engine::kPhasePushGen);
  v.push_deliver_ms = phase(sim::Engine::kPhasePushDeliver);
  v.pulls_ms = phase(sim::Engine::kPhasePulls);
  v.end_round_ms = phase(sim::Engine::kPhaseEndRound);
  const double wall_ms = per_round(traced, [](const RoundRecord& r) { return r.wall_ms; });
  v.pulls_share = v.pulls_ms / wall_ms;
  v.exchanges_started = count(&Counters::pulls_started);
  v.exchanges_completed = count(&Counters::pulls_completed);
  v.exchanges_timed_out = count(&Counters::pulls_timed_out);
  v.pushes_delivered = count(&Counters::pushes_delivered);
  v.exchange_us = v.pulls_ms * 1000.0 / v.exchanges_started;
  v.busy_cores = median_of(each(traced, [](const Rep& r) { return r.busy_cores; }));
  v.trusted_exchanges = count(&Counters::swaps_completed);
  v.eviction_rate = per_round(traced, [](const RoundRecord& r) { return r.eviction_rate; });
  // Round mode has no event queue; size the scheduler probe by the events
  // an event-mode round of the same traffic would schedule.
  v.queue_depth = count(&Counters::pushes_sent) + v.exchanges_started;
  v.driver_ms = per_round(traced, [](const RoundRecord& r) {
    return r.wall_ms - r.phases_total_ms();
  });
  v.teardown_s = mean_of(each(traced, [](const Rep& r) { return r.teardown_s; }));
}

}  // namespace

EndToEnd run_simulator(const RunOptions& opt, Checker& checker, Trace& trace,
                       LayerValues& layers) {
  const std::size_t width = std::min<std::size_t>(4, usable_cores());
  const scenario::ScenarioSpec spec =
      make_spec(kPopulation, kView, width, 1 + kTimedRounds, opt.seed);
  const std::uint64_t root = trace.open(opt.workload, 0);
  Trace off(false);

  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::string first_json;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; another_rep(i, seconds_between(t0, Clock::now()), opt.seconds); ++i) {
    // A traced run records spans on every other repetition and runs the
    // rest exactly like an untraced run; the gap between the two is the
    // tracing overhead.
    const bool traced_rep = opt.trace && i % 2 == 1;
    Rep rep = run_rep(spec, checker, traced_rep ? trace : off, root);
    std::fprintf(stderr, "perfbench: rep %zu%s: setup %.3f s, %.4f rounds/s\n", i,
                 traced_rep ? " (traced)" : "", rep.setup_s, rep.rounds_per_s());
    const std::string json = scenario::results::to_json(rep.result);
    checker.run_check(metrics::json_valid(json), "results::to_json is not valid JSON");
    if (i == 0) {
      first_json = json;
      layers.rss_bytes_per_node = rep.rss_per_node;  // first build: the allocator grows
    } else {
      checker.run_check(json == first_json, "a repetition at the same seed gave other results");
    }
    (traced_rep ? traced : untraced).push_back(std::move(rep));
  }

  EndToEnd e;
  const auto rate = [](const Rep& r) { return r.rounds_per_s(); };
  e.setup_s = median_of(each(untraced, [](const Rep& r) { return r.setup_s; }));
  e.rounds_per_s = median_of(each(untraced, rate));
  e.requests_per_s = median_of(each(untraced, [](const Rep& r) { return r.exchanges_per_s(); }));
  std::vector<double> round_us;
  for (const Rep& rep : untraced) {
    for (std::size_t i = 1; i < rep.rounds.size(); ++i) {
      round_us.push_back(rep.rounds[i].wall_ms * 1000.0);
    }
  }
  e.latency_p50_us = median_of(std::move(round_us));
  e.correct_share = 1.0 - untraced.front().result.steady_pollution_honest;
  e.peak_rss_mib = peak_rss_bytes() / (1024.0 * 1024.0);
  if (!opt.trace) {
    trace.close(root);
    return e;
  }

  fill_layers(traced, layers);
  layers.overhead_pct = 100.0 * (e.rounds_per_s / median_of(each(traced, rate)) - 1.0);

  // Two extra rounds at width 1. Results are bit-identical across widths,
  // so both runs do the same work and the ratio of their sharded-phase
  // times is the pool's speed-up on this workload.
  const Rep serial = run_rep(make_spec(kPopulation, kView, 1, 2, opt.seed), checker, trace, root);
  const Rep& sharded = traced.front();
  for (std::size_t r = 0; r < 2; ++r) {
    checker.run_check(serial.rounds[r].pollution == sharded.rounds[r].pollution &&
                          serial.rounds[r].pollution_honest == sharded.rounds[r].pollution_honest,
                      "engine widths disagree on round " + std::to_string(r));
  }
  layers.shard_speedup =
      serial.rounds[1].sharded_ms() /
      median_of(each(traced, [](const Rep& r) { return r.rounds[1].sharded_ms(); }));

  ProbeInputs in;
  in.l1 = kView;
  in.l2 = kView;
  in.queue_depth = static_cast<std::size_t>(layers.queue_depth);
  in.seed = opt.seed;
  layers.probe = run_probes(in, trace, root, checker);
  layers.net = net_probe(opt.seed, checker, trace, root);
  trace.close(root);
  return e;
}

void self_test_simulator(Checker& clean, Checker& faulty) {
  // Smoke size: a clean run must count no failure, and a run fed one
  // violated invariant must count exactly that round.
  Trace off(false);
  const auto spec = make_spec(64, 8, 1, 4, 7);
  (void)run_rep(spec, clean, off, 0);
  (void)run_rep(spec, faulty, off, 0, /*fault_round=*/2);
}

}  // namespace perfbench
