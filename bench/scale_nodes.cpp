// Node-count scaling benchmark for the engine core: how far does one
// process get on the structure-of-arrays node state + reused round scratch?
//
// Two parts, both written into bench_out/scale_nodes.json (raptee.bench):
//
//  1. Width identity gate — the full protocol stack (adversary + trusted
//     population + eviction) at the knob population, run at engine widths
//     {1, 2, 4, hw}. Lossless, so EVERY width must produce byte-identical
//     result JSON (scenario::results::to_json) — the sharded-round
//     determinism contract, checked end to end. Divergence exits non-zero.
//
//  2. Node-count sweep — half-decade populations 10k -> 100k (quick) or
//     10k -> 1M (RAPTEE_BENCH_FULL=1), honest-only BrahmsNode populations
//     driven through sim::Engine directly. The scenario front door would
//     drag in DiscoveryTracker, whose n x n knowledge bitsets are O(n^2)
//     bytes (125 GB at 1M nodes) — the engine itself is O(n * l1), and
//     that is the thing this bench characterizes. Per point it reports
//     build time, allocator peak bytes/node, p50/p90 round wall time
//     (sorted once, cut with percentile_of_sorted) and rounds/second.
//
// Memory is measured by replacing global operator new/delete with a
// live-byte counting allocator (each block carries a 16-byte size header),
// so bytes/node is the true allocator footprint, not an RSS guess.
//
// Extra knobs on top of the usual RAPTEE_BENCH_* set (see README.md):
//   RAPTEE_BENCH_SCALE_MAX_N        cap the sweep's largest population
//   RAPTEE_BENCH_MAX_NODE_BYTES     gate: peak bytes/node at the largest
//                                   point must not exceed this (exit 1)
//   RAPTEE_BENCH_MIN_ROUNDS_PER_SEC gate: throughput floor at the largest
//                                   point (exit 1)
#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "core/node_factory.hpp"
#include "exec/thread_pool.hpp"
#include "sim/engine.hpp"

namespace {

// --- live-byte counting allocator -----------------------------------------
// Every allocation is over-sized by a 16-byte header recording the charged
// total and the offset back to the underlying malloc/aligned_alloc block;
// one shared free path reads it. g_live tracks current allocator bytes,
// g_peak the high-water mark since the caller last rebased it.

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

constexpr std::size_t kMetaSize = 16;

struct BlockMeta {
  std::size_t total;  // bytes charged to g_live for this block
  std::size_t pad;    // user pointer minus pad == the block handed to free
};
static_assert(sizeof(BlockMeta) == kMetaSize, "header must stay 16 bytes");

void note_alloc(std::size_t total) noexcept {
  const std::size_t live = g_live.fetch_add(total, std::memory_order_relaxed) + total;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* alloc_tracked(std::size_t size, std::size_t align) noexcept {
  const std::size_t pad = align > kMetaSize ? align : kMetaSize;
  std::size_t total = size + pad;
  void* base = nullptr;
  if (align > alignof(std::max_align_t)) {
    total = (total + align - 1) / align * align;  // aligned_alloc size contract
    base = std::aligned_alloc(align, total);
  } else {
    base = std::malloc(total);
  }
  if (base == nullptr) return nullptr;
  auto* user = static_cast<std::byte*>(base) + pad;
  // raptee-lint: allow(cast-allowlist) counting allocator writes its size header into the raw block it just carved
  auto* meta = reinterpret_cast<BlockMeta*>(user - kMetaSize);
  meta->total = total;
  meta->pad = pad;
  note_alloc(total);
  return user;
}

// Kept out of line: inlined into operator delete, GCC pairs the std::free
// below with the matching operator new and warns -Wmismatched-new-delete.
[[gnu::noinline]] void free_tracked(void* ptr) noexcept {
  if (ptr == nullptr) return;
  auto* user = static_cast<std::byte*>(ptr);
  // raptee-lint: allow(cast-allowlist) counting allocator reads back the size header it wrote in alloc_tracked
  const BlockMeta meta = *reinterpret_cast<const BlockMeta*>(user - kMetaSize);
  g_live.fetch_sub(meta.total, std::memory_order_relaxed);
  std::free(user - meta.pad);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = alloc_tracked(size, alignof(std::max_align_t))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = alloc_tracked(size, alignof(std::max_align_t))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = alloc_tracked(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = alloc_tracked(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_tracked(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_tracked(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return alloc_tracked(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return alloc_tracked(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { free_tracked(ptr); }
void operator delete[](void* ptr) noexcept { free_tracked(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { free_tracked(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { free_tracked(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { free_tracked(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { free_tracked(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { free_tracked(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  free_tracked(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept { free_tracked(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { free_tracked(ptr); }

namespace {

using namespace raptee;

struct ScalePoint {
  std::size_t n = 0;
  double build_seconds = 0.0;
  std::size_t peak_bytes = 0;
  double bytes_per_node = 0.0;
  double round_ms_p50 = 0.0;
  double round_ms_p90 = 0.0;
  double rounds_per_second = 0.0;
  std::uint64_t pushes_delivered = 0;
  /// Mean wall ms/round per engine phase, indexed by sim::Engine::Phase.
  std::array<double, sim::Engine::kPhaseCount> phase_ms_mean{};
};

/// One sweep point: an honest-only BrahmsNode population of size n driven
/// through the engine for `rounds` rounds. The previous point's engine is
/// gone when this runs, so (peak - live_before) is this population's own
/// allocator high-water mark.
ScalePoint run_scale_point(std::size_t n, const scenario::Knobs& knobs, Round rounds) {
  ScalePoint point;
  point.n = n;

  const std::size_t live_before = g_live.load(std::memory_order_relaxed);
  g_peak.store(live_before, std::memory_order_relaxed);

  sim::EngineConfig engine_config;
  engine_config.seed = knobs.seed;
  engine_config.threads = knobs.threads;  // Knobs default 0 = hardware width
  sim::Engine engine(engine_config);

  brahms::BrahmsConfig node_config;
  node_config.params.l1 = knobs.l1;
  node_config.params.l2 = knobs.l1;

  core::NodeFactory factory(knobs.seed, brahms::AuthMode::kFingerprint);
  const bench::WallTimer build_timer;
  for (std::uint32_t i = 0; i < n; ++i) {
    engine.add_node(
        factory.make_honest(NodeId{i}, node_config, engine.aliveness_probe()),
        NodeKind::kHonest);
  }
  engine.bootstrap_uniform(knobs.l1);
  point.build_seconds = build_timer.seconds();

  std::vector<double> round_seconds;
  round_seconds.reserve(rounds);
  std::array<std::uint64_t, sim::Engine::kPhaseCount> phase_us{};
  for (Round r = 0; r < rounds; ++r) {
    const bench::WallTimer round_timer;
    engine.step();
    round_seconds.push_back(round_timer.seconds());
    const auto& last = engine.last_phase_us();
    for (std::size_t p = 0; p < phase_us.size(); ++p) phase_us[p] += last[p];
  }
  for (std::size_t p = 0; p < phase_us.size(); ++p) {
    point.phase_ms_mean[p] =
        static_cast<double>(phase_us[p]) / 1000.0 / static_cast<double>(rounds);
  }

  const std::size_t peak = g_peak.load(std::memory_order_relaxed);
  point.peak_bytes = peak - live_before;
  point.bytes_per_node = static_cast<double>(point.peak_bytes) / static_cast<double>(n);

  // Sort the series once; every percentile cut is then O(1)
  // (percentile_of_sorted), instead of a copy + sort per cut.
  std::sort(round_seconds.begin(), round_seconds.end());
  point.round_ms_p50 = percentile_of_sorted(round_seconds, 50) * 1e3;
  point.round_ms_p90 = percentile_of_sorted(round_seconds, 90) * 1e3;
  double total_seconds = 0.0;
  for (const double s : round_seconds) total_seconds += s;
  point.rounds_per_second =
      total_seconds > 0.0 ? static_cast<double>(rounds) / total_seconds : 0.0;
  point.pushes_delivered = engine.counters().pushes_delivered;
  return point;
}

[[nodiscard]] std::string fmt_mib(std::size_t bytes) {
  return metrics::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

}  // namespace

int main() {
  const auto knobs = scenario::Knobs::from_env();
  bench::print_header("scale_nodes", knobs);
  std::cout << "engine-core scaling: width identity gate at n=" << knobs.n
            << ", then honest-population sweep (SoA state + reused round scratch)\n\n";

  const std::size_t hw = exec::hardware_threads();
  const std::size_t resolved_threads = knobs.threads == 0 ? hw : knobs.threads;
  scenario::results::BenchReport report("scale_nodes", knobs);
  const bench::WallTimer bench_timer;

  // --- part 1: width identity gate ---------------------------------------
  // Full stack (Byzantine adversary, trusted nodes, fixed eviction),
  // loss 0: every width, 1 included, must serialize
  // to the same result bytes. results::to_json(result) carries no config,
  // so the width itself cannot leak into the compared document.
  const Round gate_rounds = std::min<Round>(knobs.rounds, 16);
  scenario::ScenarioSpec gate_spec = knobs.base_spec();
  gate_spec.adversary(0.2).trusted_share(0.3).eviction_pct(40).rounds(gate_rounds);

  std::vector<std::size_t> widths{1, 2, 4};
  if (hw > 4) widths.push_back(hw);

  metrics::TablePrinter gate_table({"threads", "wall s", "identical"});
  bool all_identical = true;
  std::string serial_document;
  for (const std::size_t width : widths) {
    const bench::WallTimer timer;
    const auto result = scenario::ScenarioSpec(gate_spec).threads(width).run();
    const double seconds = timer.seconds();
    const std::string document = scenario::results::to_json(result);
    bool identical = true;
    if (width == 1) {
      serial_document = document;
    } else {
      identical = document == serial_document;
      all_identical = all_identical && identical;
    }
    gate_table.add_row({std::to_string(width), metrics::fmt(seconds, 2),
                        identical ? "yes" : "NO"});
    report.add_row(metrics::JsonObject()
                       .field("kind", "identity")
                       .field("n", knobs.n)
                       .field("threads", width)
                       .field("wall_seconds", seconds)
                       .field("identical_to_serial", identical));
  }
  std::cout << gate_table.render() << '\n';

  // --- part 2: node-count sweep ------------------------------------------
  std::size_t max_n = knobs.full ? 1'000'000 : 100'000;
  if (const char* value = std::getenv("RAPTEE_BENCH_SCALE_MAX_N")) {
    max_n = scenario::parse_u64("RAPTEE_BENCH_SCALE_MAX_N", value, 1'000, 10'000'000);
  }
  std::vector<std::size_t> populations;
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{31'623},
                              std::size_t{100'000}, std::size_t{316'228},
                              std::size_t{1'000'000}}) {
    if (n <= max_n) populations.push_back(n);
  }
  if (populations.empty()) populations.push_back(max_n);

  const Round sweep_rounds = std::min<Round>(knobs.rounds, 6);
  std::cout << "sweep: view " << knobs.l1 << ", " << sweep_rounds
            << " rounds per point, engine width " << resolved_threads << "\n\n";

  metrics::TablePrinter table({"n", "build s", "peak MiB", "B/node", "round ms p50",
                               "round ms p90", "rounds/s"});
  metrics::TablePrinter phase_table({"n", "begin ms", "push gen ms", "deliver ms",
                                     "pulls ms", "end ms"});
  ScalePoint largest;
  bool pushes_flowed = true;
  for (const std::size_t n : populations) {
    const ScalePoint point = run_scale_point(n, knobs, sweep_rounds);
    largest = point;
    pushes_flowed = pushes_flowed && point.pushes_delivered > 0;
    const auto& ph = point.phase_ms_mean;
    table.add_row({std::to_string(point.n), metrics::fmt(point.build_seconds, 2),
                   fmt_mib(point.peak_bytes), metrics::fmt(point.bytes_per_node, 0),
                   metrics::fmt(point.round_ms_p50, 2),
                   metrics::fmt(point.round_ms_p90, 2),
                   metrics::fmt(point.rounds_per_second, 2)});
    phase_table.add_row({std::to_string(point.n),
                         metrics::fmt(ph[sim::Engine::kPhaseBeginRound], 2),
                         metrics::fmt(ph[sim::Engine::kPhasePushGen], 2),
                         metrics::fmt(ph[sim::Engine::kPhasePushDeliver], 2),
                         metrics::fmt(ph[sim::Engine::kPhasePulls], 2),
                         metrics::fmt(ph[sim::Engine::kPhaseEndRound], 2)});
    report.add_row(metrics::JsonObject()
                       .field("kind", "scale")
                       .field("n", point.n)
                       .field("build_seconds", point.build_seconds)
                       .field("peak_bytes", point.peak_bytes)
                       .field("bytes_per_node", point.bytes_per_node)
                       .field("round_ms_p50", point.round_ms_p50)
                       .field("round_ms_p90", point.round_ms_p90)
                       .field("rounds_per_second", point.rounds_per_second)
                       .field("begin_round_ms", ph[sim::Engine::kPhaseBeginRound])
                       .field("push_gen_ms", ph[sim::Engine::kPhasePushGen])
                       .field("push_deliver_ms", ph[sim::Engine::kPhasePushDeliver])
                       .field("pulls_ms", ph[sim::Engine::kPhasePulls])
                       .field("end_round_ms", ph[sim::Engine::kPhaseEndRound]));
  }
  std::cout << table.render() << '\n';
  std::cout << "per-phase mean wall ms/round:\n" << phase_table.render() << '\n';
  std::cout << "hardware threads: " << hw << "\n\n";

  report.set_timing(bench_timer.seconds(), resolved_threads);
  report.write();

  if (!all_identical) {
    std::cerr << "FAIL: sharded result diverged from the 1-thread run\n";
    return 1;
  }
  if (!pushes_flowed) {
    std::cerr << "FAIL: a sweep point delivered zero pushes\n";
    return 1;
  }
  if (const char* value = std::getenv("RAPTEE_BENCH_MAX_NODE_BYTES")) {
    const std::uint64_t cap = scenario::parse_u64(
        "RAPTEE_BENCH_MAX_NODE_BYTES", value, 1, std::uint64_t{1} << 40);
    if (largest.bytes_per_node > static_cast<double>(cap)) {
      std::cerr << "FAIL: " << metrics::fmt(largest.bytes_per_node, 0)
                << " bytes/node at n=" << largest.n << " exceeds the cap of " << cap
                << "\n";
      return 1;
    }
    std::cout << "bytes/node gate passed: " << metrics::fmt(largest.bytes_per_node, 0)
              << " <= " << cap << " at n=" << largest.n << "\n";
  }
  if (const char* value = std::getenv("RAPTEE_BENCH_MIN_ROUNDS_PER_SEC")) {
    const double floor = scenario::parse_double("RAPTEE_BENCH_MIN_ROUNDS_PER_SEC", value,
                                                0.0, 1e9);
    if (largest.rounds_per_second < floor) {
      std::cerr << "FAIL: " << metrics::fmt(largest.rounds_per_second, 2)
                << " rounds/s at n=" << largest.n << " is below the floor of "
                << metrics::fmt(floor, 2) << "\n";
      return 1;
    }
    std::cout << "throughput gate passed: " << metrics::fmt(largest.rounds_per_second, 2)
              << " rounds/s >= " << metrics::fmt(floor, 2) << " at n=" << largest.n
              << "\n";
  }
  return 0;
}
