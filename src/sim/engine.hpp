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
  /// Cache one link session per node pair across exchanges and rounds
  /// (the deployment model). false = re-derive per exchange — the
  /// pre-cache baseline kept for the bench/scale_links ablation. Either
  /// way every observable metric is identical; only ciphertext differs.
  bool link_sessions = true;
  /// Width of the sharded round phases — push generation and delivery,
  /// pull-target generation, begin_round and end_round (eviction included):
  /// 1 = a pool of one that runs every phase inline (the default),
  /// 0 = hardware concurrency, n > 1 = shard over n workers. Results are
  /// bit-identical for every width, lossy runs included: push loss always
  /// draws per-node split streams (see the note on the round phases). The
  /// exchange legs themselves stay serial: their loss/tamper draws
  /// interleave on the shared engine stream and each leg mutates two
  /// nodes, so sharding them could not preserve the bit-identity contract.
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
  /// secrets derived, and sessions currently cached. With link_sessions
  /// the former tracks the number of active pairs; without it, the number
  /// of encrypted exchanges.
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
  /// Round mode: runs the planned exchanges serially in shuffled order.
  void run_pull_exchanges();
  /// Event mode (config_.event.enabled), between step()'s begin and end
  /// phases: the planned pushes and pull exchanges flow through the
  /// (virtual_time, seq) event heap with per-link latency, partition cuts
  /// and the round deadline.
  void step_event();
  /// Runs one five-leg exchange; returns false on timeout.
  bool run_exchange(INode& initiator, INode& responder);
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

  // The exchange's leg messages, one per leg type: the nodes write each
  // leg into its message and the wire path decodes back into it, so every
  // view-carrying vector keeps its capacity across exchanges.
  wire::Message leg_request_{wire::PullRequest{}};
  wire::Message leg_reply_{wire::PullReply{}};
  wire::Message leg_confirm_{wire::AuthConfirm{}};
  wire::Message leg_swap_{wire::SwapReply{}};

  // Encrypted-link session cache (encrypt_links only) and the wire-path
  // scratch buffers: encode/seal/open/decode reuse these every leg, so the
  // steady-state wire path of an encrypted exchange performs zero heap
  // allocations.
  std::unique_ptr<wire::LinkTable> link_table_;
  std::vector<std::uint8_t> wire_plain_;
  std::vector<std::uint8_t> wire_frame_;
  std::vector<std::uint8_t> wire_opened_;

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
