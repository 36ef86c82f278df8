// Round-synchronous simulation engine.
//
// Substitution note (DESIGN.md §2): the paper deploys 10,000 processes on
// Grid'5000 with 2.5-second rounds. All reported metrics are denominated in
// *rounds*, so a deterministic round-synchronous simulator measures the same
// quantities while making 10 repetitions × dozens of configurations feasible
// on one machine. SGX execution costs are charged to per-node virtual-cycle
// ledgers by the sgx::CycleModel, mirroring the paper's own calibrated
// SGX-emulation methodology.
//
// Fidelity knobs:
//  * wire_roundtrip — every exchange leg is encoded to bytes and decoded
//    back (exercises the codecs; malformed bytes == drop).
//  * encrypt_links — additionally seals/opens each leg with AES-CTR+HMAC
//    (paper §III-B requires symmetric link encryption), through persistent
//    per-pair link sessions (wire::LinkTable) with nonce continuity across
//    rounds and rekeying on churn.
//  * message_loss — iid per-leg drop probability.
//  * tamper_rate — iid per-leg probability that an on-path adversary flips
//    one bit of the serialized leg. Implies the byte round-trip. With
//    encrypt_links the AEAD rejects every flip; without it the typed-leg
//    validator drops what fails to decode (and the rest models undetected
//    corruption reaching the protocol).
//
// Every phase of a round-mode step runs across the engine's pool (see
// EngineConfig::threads). The pull exchanges run in conflict-free waves:
// an exchange's wave is one past the highest wave of any earlier exchange
// (in the round's shuffled order) on either endpoint, so no two exchanges
// of a wave share a node and every node meets its exchanges in shuffled
// order. Each wave is one parallel_for over lanes — per-index leg
// messages, wire buffers and counter shares. Byzantine endpoints, whose
// legs draw on the adversary Coordinator's one stream, have those draws
// positioned while the round is planned (INode::plan_exchange). A round
// whose leg fates are draws on the engine stream (message_loss,
// tamper_rate) runs its exchanges one at a time in shuffled order instead.
// Either way results are bit-identical at every width.
//
// The engine calls no one back: step() ends with the protocol's last
// phase. Observers read the engine between steps — counters(), and views
// through refresh_views() then view_of() — and the adversary records the
// pull replies its own nodes receive (adversary/identification.hpp).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/key.hpp"
#include "evt/config.hpp"
#include "evt/scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"
#include "sim/node.hpp"
#include "wire/link_session.hpp"

namespace raptee::sim {

struct EngineConfig {
  std::uint64_t seed = 1;
  bool wire_roundtrip = false;
  bool encrypt_links = false;
  double message_loss = 0.0;
  /// Per-leg probability of an on-path single-bit flip (see header note).
  double tamper_rate = 0.0;
  /// Width of the sharded round phases — push generation and delivery,
  /// pull-target generation, the pull exchanges (in conflict-free waves),
  /// begin_round and end_round (eviction included): 1 = a pool of one that
  /// runs every phase inline (the default), 0 = hardware concurrency,
  /// n > 1 = shard over n workers. Results are bit-identical for every
  /// width, lossy runs included: push loss always draws per-node split
  /// streams (see the note on the round phases), and the exchanges of a
  /// lossy or tampered run, whose loss/tamper draws interleave on the
  /// shared engine stream, run one at a time (see the header note).
  std::size_t threads = 1;
  /// Opt-in event-driven step mode (src/evt): pushes and pulls become
  /// timestamped message events with per-link latency/jitter, partitions
  /// and a virtual clock. Off by default — round mode is the bit-exact
  /// baseline. Event mode plans pushes and pulls exactly as round mode
  /// does and drains the event heap serially on the coordinating thread,
  /// so its results are bit-identical across every width too.
  evt::EventConfig event{};
};

class Engine {
 public:
  explicit Engine(EngineConfig config);

  /// Registers a node; the node's id() must equal the next dense index.
  void add_node(std::unique_ptr<INode> node, NodeKind kind);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] INode& node(NodeId id);
  [[nodiscard]] const INode& node(NodeId id) const;
  [[nodiscard]] NodeKind kind(NodeId id) const;
  [[nodiscard]] const std::vector<NodeKind>& kinds() const { return kinds_; }

  [[nodiscard]] bool is_alive(NodeId id) const;
  /// Crash or revive a node (churn). A dead node neither initiates nor
  /// answers exchanges; pushes to it vanish.
  void set_alive(NodeId id, bool alive);

  /// Replaces the contents of `out` with the IDs of alive nodes, ascending
  /// (`out` is caller scratch; its capacity amortizes across rounds).
  void alive_ids(std::vector<NodeId>& out) const;

  /// Gives every alive node a uniform random bootstrap view of size
  /// `view_size` drawn from the other alive nodes.
  void bootstrap_uniform(std::size_t view_size);
  /// Per-node bootstrap: `provider(id, kind)` returns the initial view.
  void bootstrap_with(
      const std::function<std::vector<NodeId>(NodeId, NodeKind)>& provider);

  /// Rebuilds the structure-of-arrays view slab read by view_of(): one
  /// dense NodeId range per node, sized by INode::view_capacity(). step()
  /// never fills the slab: a reader (the experiment's trackers after each
  /// step, tracker priming before round 0, a test) refreshes it before
  /// reading it.
  void refresh_views();
  /// The node's view as of the last refresh_views(), as a span over the SoA
  /// view slab: the way anything outside a node reads a view. Valid until
  /// the next refresh_views(). Empty for dead nodes and for nodes that
  /// opted out of the slab (view_capacity() == 0; the adversary does —
  /// Byzantine views are excluded from every honest-side metric anyway).
  [[nodiscard]] std::span<const NodeId> view_of(NodeId id) const;

  /// Executes one full round.
  void step();
  /// Executes `count` rounds; `stop` (optional) is polled after each round
  /// and ends the run early when it returns true.
  void run(Round count, const std::function<bool(Round)>& stop = {});

  [[nodiscard]] Round now() const { return round_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Aliveness oracle handed to protocol nodes for sampler validation
  /// (models Brahms' periodic probe of sampled peers; see DESIGN.md).
  [[nodiscard]] std::function<bool(NodeId)> aliveness_probe() const;

  /// Event mode only: adversary-injected extra one-way delay (microseconds)
  /// for a (round, from, to) link, added on top of the sampled latency —
  /// wired by the experiment driver when a delay-capable attack strategy is
  /// active. Must be a pure function of its arguments (it is consulted on
  /// the deterministic scheduling path).
  void set_link_delay(std::function<std::uint64_t(Round, NodeId, NodeId)> hook) {
    link_delay_ = std::move(hook);
  }

  /// Virtual clock (event mode): microseconds of simulated time elapsed.
  /// Always 0 in round mode.
  [[nodiscard]] std::uint64_t virtual_now_us() const { return evt_sched_.now_us(); }

  /// Exchange-leg statistics (diagnostics & tests).
  struct Counters {
    std::uint64_t pushes_sent = 0;
    std::uint64_t pushes_delivered = 0;
    std::uint64_t pulls_started = 0;
    std::uint64_t pulls_completed = 0;
    std::uint64_t pulls_timed_out = 0;
    std::uint64_t swaps_completed = 0;
    /// Pull requests the responder deliberately refused to answer (an
    /// omission adversary); not counted in legs_dropped — nothing was on
    /// the wire to lose.
    std::uint64_t legs_suppressed = 0;
    std::uint64_t legs_dropped = 0;
    /// Legs the on-path adversary flipped a bit of (tamper_rate draws).
    std::uint64_t legs_tampered = 0;
    /// Legs rejected by the receiver — AEAD failure, malformed bytes, or a
    /// type-confused decode. Each is also counted in legs_dropped.
    std::uint64_t legs_corrupted = 0;
    std::uint64_t wire_bytes = 0;
    /// Event mode only: messages whose sampled arrival (or exchange
    /// completion) landed past the round deadline and were discarded. Late
    /// pushes are also counted in legs_dropped.
    std::uint64_t legs_late = 0;
    /// Event mode only: messages dropped because the link crossed an active
    /// partition cut. Dropped pushes are also counted in legs_dropped.
    std::uint64_t partition_drops = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// The five wall-clock-profiled phases of step(), in execution order.
  /// Indexes last_phase_us() and RoundSnapshot::phase_ms.
  enum Phase : std::size_t {
    kPhaseBeginRound = 0,
    kPhasePushGen,      ///< push-target generation (incl. the global shuffle)
    kPhasePushDeliver,  ///< mailbox application
    kPhasePulls,        ///< pull-target generation + the five-leg exchanges
    kPhaseEndRound,     ///< eviction, view renewal
    kPhaseCount
  };
  /// Wall-clock microseconds each phase of the most recent step() took.
  /// Observational only: timing never feeds simulation state, so results
  /// stay bit-exact. The same values accumulate into the process-wide
  /// "engine.phase.*_us" histograms (obs::Registry::global()).
  [[nodiscard]] const std::array<std::uint64_t, kPhaseCount>& last_phase_us() const {
    return last_phase_us_;
  }

  /// Link-session statistics (both 0 unless encrypt_links): total link
  /// secrets derived, which tracks the number of active pairs, and
  /// sessions currently cached.
  [[nodiscard]] std::uint64_t link_derivations() const;
  [[nodiscard]] std::size_t link_active_sessions() const;

 private:
  /// One generated push awaiting delivery, staged in deliveries_.
  struct Delivery {
    NodeId to;
    NodeId from;
    wire::PushMessage payload;
  };
  /// One planned pull exchange, staged in pulls_.
  struct PendingPull {
    NodeId initiator;
    NodeId target;
  };
  /// Per-node output slot of a sharded phase: private delivery/target lists
  /// plus counter shares, merged in node-index order once every shard
  /// finished. Slots persist across rounds so their capacity amortizes.
  struct ShardSlot {
    std::vector<Delivery> deliveries;
    std::vector<NodeId> targets;
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
  };
  /// What one parallel_for index of a wave runs its exchanges with: the
  /// leg messages (the nodes write each leg into its message and the wire
  /// path decodes back into it, so every view-carrying vector keeps its
  /// capacity), the wire path's encode/seal/open buffers, and counter
  /// shares, merged into counters_ after the phase.
  struct Lane {
    wire::Message request{wire::PullRequest{}};
    wire::Message reply{wire::PullReply{}};
    wire::Message confirm{wire::AuthConfirm{}};
    wire::Message swap{wire::SwapReply{}};
    std::vector<std::uint8_t> plain;
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> opened;
    Counters counters;
  };
  /// The wave a parallel_for is running: its slice of wave_order_ and how
  /// many lanes split it.
  struct Wave {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t lanes = 0;
  };

  /// The lazily-built phase pool; width 1 spawns no workers and runs every
  /// loop inline. Never wider than one worker per node — oversized knobs
  /// would otherwise spawn thousands of idle OS threads per engine.
  [[nodiscard]] exec::ThreadPool& pool();

  /// How many blocks of consecutive entries shard_over_alive splits
  /// alive_scratch_ into: four per worker, like the pool's own chunks.
  [[nodiscard]] std::size_t alive_blocks();
  /// Runs `fn(k, block)` for every index into alive_scratch_, with the
  /// index's block: Byzantine nodes first, serially on this thread in index
  /// order (they share the mutable adversary Coordinator), then everyone
  /// else sharded across the pool a block at a time. Safe iff `fn` touches
  /// only per-node state, per-block state and read-only engine state.
  template <typename Fn>
  void shard_over_alive(const Fn& fn);

  // The round phases, every one sharded over the pool. begin_round,
  // pull-target generation and end_round (eviction) draw only the nodes'
  // private streams. Push generation draws each node's loss decisions from
  // its own split stream, rng().fork("push-phase").split(node), and merges
  // the per-node delivery lists in node-index order. So a round's result is
  // a function of the seed alone, never of the worker count.
  void run_begin_rounds();
  void run_end_rounds();
  /// Push planning, shared by both step modes: every alive node's push
  /// targets, its loss draws and the node-index merge into deliveries_.
  void plan_pushes();
  /// Pull planning, shared by both step modes: every alive node's pull
  /// targets merged in node-index order into pulls_, then shuffled on the
  /// engine stream.
  void plan_pulls();
  /// Round mode: shuffles the planned pushes and applies them, sharded by
  /// target.
  void deliver_pushes();
  /// Round mode: runs the planned exchanges — in conflict-free waves across
  /// the pool, or one at a time in shuffled order when a leg's fate is a
  /// draw (see the header note).
  void run_pull_exchanges();
  /// Whether this run's exchanges may run in waves: no leg fate is drawn
  /// on the engine stream.
  [[nodiscard]] bool exchanges_in_waves() const;
  /// Builds the round's wave schedule from the shuffled pulls_ into
  /// wave_order_/wave_offsets_, and has each Byzantine endpoint position
  /// its Coordinator draws (INode::plan_exchange) in the same serial walk.
  /// Returns the number of waves.
  std::size_t schedule_waves();
  /// The wave of the next exchange in shuffled order, advancing last_wave_.
  std::uint32_t next_wave(const PendingPull& p);
  /// Runs lane `lane`'s share of wave_.
  void run_wave_lane(std::size_t lane);
  /// Runs the planned pulls pull_at(j), j in [from, to), on `lane` in
  /// order: a run one thread owns, a lane's slice of a wave or the serial
  /// list. A two-stage prefetch runs ahead of it and never past `to`: the
  /// endpoints' INode objects four exchanges ahead, then INode::prefetch()
  /// on them two ahead.
  template <typename PullAt>
  void run_pulls(Lane& lane, std::size_t from, std::size_t to, const PullAt& pull_at);
  /// The lanes, built on first use: four per pool worker, like the pool's
  /// own chunks.
  [[nodiscard]] std::vector<Lane>& lanes();
  /// Adds every lane's counter shares into counters_ and clears them.
  void merge_lanes();
  /// Whether a planned pull starts an exchange (a live target other than
  /// the initiator); otherwise it times out touching only the initiator.
  [[nodiscard]] bool starts(const PendingPull& p) const {
    return is_alive(p.target) && p.target != p.initiator;
  }
  /// Runs one planned pull on `lane`: the exchange, or its timeout — always
  /// when not `reachable` (an event-mode pull cut off or past the deadline).
  void run_pull(Lane& lane, const PendingPull& p, bool reachable = true);
  /// Event mode (config_.event.enabled), between step()'s begin and end
  /// phases: the planned pushes and pull exchanges flow through the
  /// (virtual_time, seq) event heap with per-link latency, partition cuts
  /// and the round deadline.
  void step_event();
  /// Runs one five-leg exchange on `lane`; returns false on timeout.
  bool run_exchange(Lane& lane, INode& initiator, INode& responder);
  /// Adds this step's Counters deltas into the process-wide registry
  /// (relaxed atomics, allocation-free). Deltas — not absolute values — so
  /// several engines running in parallel (a bench batch) aggregate into
  /// process totals instead of clobbering each other.
  void publish_metrics();

  EngineConfig config_;
  Rng rng_;
  crypto::SymmetricKey link_master_;  // link-session secrets derived on demand
  Round round_ = 0;

  std::vector<std::unique_ptr<INode>> nodes_;
  std::vector<NodeKind> kinds_;
  std::vector<std::uint8_t> alive_;
  Counters counters_;

  // Per-round scratch, cleared by each round's planning; like the shard
  // slots and alive_scratch_, their capacity persists across rounds.
  std::vector<Delivery> deliveries_;
  std::vector<PendingPull> pulls_;
  std::vector<ShardSlot> shard_slots_;
  std::vector<NodeId> alive_scratch_;        // reused by the round phases
  std::vector<RoundScratch> end_round_scratch_;  // one per end_round block
  std::unique_ptr<exec::ThreadPool> pool_;   // lazily built on first use

  // Structure-of-arrays view slab (refresh_views / view_of): all node
  // views live in one dense NodeId array instead of n per-node heap
  // vectors, so metric sweeps over every view are a linear scan.
  std::vector<NodeId> view_slab_;
  std::vector<std::size_t> view_offset_;  // per-node slot start in the slab
  std::vector<std::uint32_t> view_len_;   // per-node entry count

  // The exchange phase: its lanes, and the round's wave schedule — one
  // order array grouping the exchange indices by wave (shuffled order
  // within a wave), the per-wave offsets into it (wave w is
  // [wave_offsets_[w], wave_offsets_[w + 1])), and per node one past the
  // wave of its latest exchange so far (0 = none). The wave count never
  // exceeds the exchange count, which sizes the offsets; all three keep
  // their capacity across rounds.
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> last_wave_;
  std::vector<std::uint32_t> wave_order_;
  std::vector<std::uint32_t> wave_offsets_;
  Wave wave_;

  // Encrypted-link session cache (encrypt_links only). The lanes' wire
  // buffers make the steady-state wire path of an encrypted exchange
  // allocation-free.
  std::unique_ptr<wire::LinkTable> link_table_;

  // Observability (all pointers into Registry::global(); the registry
  // never erases, so they stay valid). Resolved once in the constructor —
  // step() itself only performs relaxed atomic adds and clock reads.
  static constexpr std::size_t kCounterMetrics = 13;
  std::array<obs::Histogram*, kPhaseCount> phase_hist_{};
  std::array<std::uint64_t, kPhaseCount> last_phase_us_{};
  std::array<obs::Counter*, kCounterMetrics> counter_metrics_{};
  Counters published_;  // baseline for the per-step registry deltas
  obs::Counter* rounds_metric_ = nullptr;

  // Event mode (config_.event.enabled): the (virtual_time, seq) heap, the
  // optional adversary delay hook, and the evt.* histograms.
  evt::Scheduler evt_sched_;
  std::function<std::uint64_t(Round, NodeId, NodeId)> link_delay_;
  obs::Histogram* evt_queue_hist_ = nullptr;
  obs::Histogram* evt_events_hist_ = nullptr;
  obs::Histogram* evt_virtual_hist_ = nullptr;
};

}  // namespace raptee::sim
