#include "sim/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/timer.hpp"

namespace raptee::sim {

namespace {

constexpr const char* kPhaseHistNames[Engine::kPhaseCount] = {
    "engine.phase.begin_round_us", "engine.phase.push_gen_us",
    "engine.phase.push_deliver_us", "engine.phase.pulls_us",
    "engine.phase.end_round_us"};

struct CounterMetricEntry {
  const char* name;
  std::uint64_t Engine::Counters::* field;
};

constexpr CounterMetricEntry kCounterEntries[] = {
    {"engine.pushes_sent", &Engine::Counters::pushes_sent},
    {"engine.pushes_delivered", &Engine::Counters::pushes_delivered},
    {"engine.pulls_started", &Engine::Counters::pulls_started},
    {"engine.pulls_completed", &Engine::Counters::pulls_completed},
    {"engine.pulls_timed_out", &Engine::Counters::pulls_timed_out},
    {"engine.swaps_completed", &Engine::Counters::swaps_completed},
    {"engine.legs_suppressed", &Engine::Counters::legs_suppressed},
    {"engine.legs_dropped", &Engine::Counters::legs_dropped},
    {"engine.legs_tampered", &Engine::Counters::legs_tampered},
    {"engine.legs_corrupted", &Engine::Counters::legs_corrupted},
    {"engine.wire_bytes", &Engine::Counters::wire_bytes},
    {"engine.legs_late", &Engine::Counters::legs_late},
    {"engine.partition_drops", &Engine::Counters::partition_drops},
};
static_assert(std::size(kCounterEntries) == 13);

// Encrypted link sessions idle for more than this many rounds are retired
// (and re-derived on next use), bounding cipher-state memory.
constexpr Round kLinkIdleRounds = 64;

/// The `T` alternative of an engine-owned leg message: the one it holds
/// (with its vectors' capacity), or a fresh one after a tampered leg
/// decoded as another type.
template <typename T>
T& held(wire::Message& leg) {
  if (auto* message = std::get_if<T>(&leg)) return *message;
  return leg.emplace<T>();
}

// The exchange lookahead (Engine::run_pulls): the endpoints' INode objects
// are requested this many exchanges ahead, so that INode::prefetch(),
// called kPrefetchStateAhead ahead, finds its node's fields in cache.
constexpr std::size_t kPrefetchObjectsAhead = 4;
constexpr std::size_t kPrefetchStateAhead = 2;

// Event kinds on the engine's scheduler: `a` indexes the per-round staging
// array of the matching kind; a pull event's `b` carries the exchange's
// virtual completion time.
constexpr std::uint32_t kEvtPush = 0;
constexpr std::uint32_t kEvtPull = 1;

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(config), rng_(mix64(config.seed, 0x656E67696E65ull)) {
  config_.event.validate();
  crypto::Drbg key_rng(mix64(config.seed, 0x6C696E6B6Dull));
  link_master_ = key_rng.generate_key();
  if (config_.encrypt_links) {
    link_table_ = std::make_unique<wire::LinkTable>(link_master_);
  }
  obs::Registry& reg = obs::Registry::global();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phase_hist_[i] = &reg.histogram(kPhaseHistNames[i]);
  }
  for (std::size_t i = 0; i < kCounterMetrics; ++i) {
    counter_metrics_[i] = &reg.counter(kCounterEntries[i].name);
  }
  rounds_metric_ = &reg.counter("engine.rounds");
  if (config_.event.enabled) {
    evt_queue_hist_ = &reg.histogram("evt.queue_depth");
    evt_events_hist_ = &reg.histogram("evt.events_us");
    evt_virtual_hist_ = &reg.histogram("evt.virtual_ms");
  }
}

std::uint64_t Engine::link_derivations() const {
  return link_table_ ? link_table_->derivations() : 0;
}

std::size_t Engine::link_active_sessions() const {
  return link_table_ ? link_table_->active_sessions() : 0;
}

void Engine::add_node(std::unique_ptr<INode> node, NodeKind node_kind) {
  RAPTEE_REQUIRE(node != nullptr, "null node");
  RAPTEE_REQUIRE(node->id().value == nodes_.size(),
                 "node ids must be dense: expected " << nodes_.size() << ", got "
                                                     << node->id().value);
  nodes_.push_back(std::move(node));
  kinds_.push_back(node_kind);
  alive_.push_back(1);
}

INode& Engine::node(NodeId id) {
  RAPTEE_REQUIRE(id.value < nodes_.size(), "unknown node " << id.value);
  return *nodes_[id.value];
}

const INode& Engine::node(NodeId id) const {
  RAPTEE_REQUIRE(id.value < nodes_.size(), "unknown node " << id.value);
  return *nodes_[id.value];
}

NodeKind Engine::kind(NodeId id) const {
  RAPTEE_REQUIRE(id.value < kinds_.size(), "unknown node " << id.value);
  return kinds_[id.value];
}

bool Engine::is_alive(NodeId id) const {
  return id.value < alive_.size() && alive_[id.value] != 0;
}

void Engine::set_alive(NodeId id, bool alive) {
  RAPTEE_REQUIRE(id.value < alive_.size(), "unknown node " << id.value);
  alive_[id.value] = alive ? 1 : 0;
  // Churn tears link sessions down: a crashed endpoint loses its cipher
  // state, and a rejoining one re-handshakes — either way the pair must
  // re-establish with a fresh key rather than resume stale sequence state.
  if (link_table_) link_table_->invalidate(id);
}

void Engine::alive_ids(std::vector<NodeId>& out) const {
  out.clear();
  if (out.capacity() < nodes_.size()) out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) out.push_back(NodeId{static_cast<std::uint32_t>(i)});
  }
}

void Engine::bootstrap_uniform(std::size_t view_size) {
  std::vector<NodeId> everyone;
  alive_ids(everyone);
  // Empty/singleton population: there is nobody (or only oneself) to draw
  // from. Hand out empty views instead of letting `everyone.size() - 1`
  // underflow to SIZE_MAX below.
  if (everyone.size() <= 1) {
    bootstrap_with([](NodeId, NodeKind) { return std::vector<NodeId>{}; });
    return;
  }
  // Index-remap draw over the one shared alive list. The legacy form built
  // a per-node `candidates` copy of everyone-minus-self — O(n²) time and
  // memory traffic at bootstrap. rng.sample(candidates, k) is defined as
  // sample_indices(candidates.size(), k) followed by candidates[j], and
  // candidates[j] == everyone[j < rank ? j : j + 1] where rank is self's
  // position — so drawing the same indices from [0, n-1) and bumping past
  // rank reproduces the legacy views draw for draw (goldens unaffected).
  std::vector<std::size_t> draw_scratch;
  std::size_t rank = 0;  // bootstrap_with visits ids ascending, like everyone
  bootstrap_with([&](NodeId self, NodeKind) {
    while (rank < everyone.size() && everyone[rank].value < self.value) ++rank;
    const bool present = rank < everyone.size() && everyone[rank] == self;
    rng_.sample_indices_into(everyone.size() - 1, view_size, draw_scratch);
    std::vector<NodeId> view;
    view.reserve(draw_scratch.size());
    for (const std::size_t j : draw_scratch) {
      view.push_back(everyone[present && j >= rank ? j + 1 : j]);
    }
    return view;
  });
}

void Engine::bootstrap_with(
    const std::function<std::vector<NodeId>(NodeId, NodeKind)>& provider) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!alive_[i]) continue;
    const NodeId id{static_cast<std::uint32_t>(i)};
    nodes_[i]->bootstrap(provider(id, kinds_[i]));
  }
}

exec::ThreadPool& Engine::pool() {
  if (!pool_) {
    pool_ = std::make_unique<exec::ThreadPool>(
        exec::resolve_threads(config_.threads, nodes_.size()));
  }
  return *pool_;
}

std::size_t Engine::alive_blocks() {
  return std::min(alive_scratch_.size(), 4 * pool().size());
}

template <typename Fn>
void Engine::shard_over_alive(const Fn& fn) {
  const std::size_t n = alive_scratch_.size();
  const std::size_t blocks = alive_blocks();
  const auto run_block = [&](std::size_t b, bool byzantine) {
    for (std::size_t k = b * n / blocks; k < (b + 1) * n / blocks; ++k) {
      if ((kinds_[alive_scratch_[k].value] == NodeKind::kByzantine) == byzantine) fn(k, b);
    }
  };
  // Byzantine nodes share the mutable adversary Coordinator: run them on
  // this thread first, in index order, so the first Byzantine call still
  // triggers the round's planning. Everyone else touches only its own
  // state (plus read-only engine state) and shards freely, a block at a
  // time.
  for (std::size_t b = 0; b < blocks; ++b) run_block(b, /*byzantine=*/true);
  pool().parallel_for(
      blocks, [&](std::size_t b) { run_block(b, /*byzantine=*/false); }, /*grain=*/1);
}

void Engine::refresh_views() {
  const std::size_t n = nodes_.size();
  if (view_offset_.size() != n) view_offset_.resize(n);
  if (view_len_.size() != n) view_len_.resize(n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    view_offset_[i] = total;
    total += nodes_[i]->view_capacity();
  }
  if (view_slab_.size() < total) view_slab_.resize(total);
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive_[i]) {
      view_len_[i] = 0;
      continue;
    }
    const std::size_t cap = (i + 1 < n ? view_offset_[i + 1] : total) - view_offset_[i];
    const std::size_t len = nodes_[i]->copy_view(view_slab_.data() + view_offset_[i], cap);
    RAPTEE_ASSERT_MSG(len <= cap, "copy_view overflowed its slab slot");
    view_len_[i] = static_cast<std::uint32_t>(len);
  }
}

std::span<const NodeId> Engine::view_of(NodeId id) const {
  RAPTEE_REQUIRE(id.value < view_len_.size(),
                 "view_of: no slab entry for node " << id.value
                                                    << " (refresh_views first)");
  return {view_slab_.data() + view_offset_[id.value], view_len_[id.value]};
}

void Engine::run_begin_rounds() {
  alive_ids(alive_scratch_);
  // begin_round touches only per-node state (buffer clears, view ageing):
  // no draws on any shared stream, so every width gives the same result.
  shard_over_alive([&](std::size_t k, std::size_t /*block*/) {
    nodes_[alive_scratch_[k].value]->begin_round(round_);
  });
}

void Engine::run_end_rounds() {
  alive_ids(alive_scratch_);
  // end_round is where eviction and view renewal happen — all driven by the
  // node's private rng_ plus the read-only aliveness probe, so as with
  // begin_round every width gives the same result. A block's nodes always
  // run with that block's scratch, so the scratch settles at the block's
  // largest round whatever thread runs it.
  if (end_round_scratch_.size() < alive_blocks()) end_round_scratch_.resize(alive_blocks());
  shard_over_alive([&](std::size_t k, std::size_t block) {
    nodes_[alive_scratch_[k].value]->end_round(round_, end_round_scratch_[block]);
  });
}

void Engine::plan_pushes() {
  // Each alive node owns an output slot and a splittable loss stream, so
  // the merged list is independent of how the partition maps to workers.
  alive_ids(alive_scratch_);
  if (shard_slots_.size() < alive_scratch_.size()) shard_slots_.resize(alive_scratch_.size());
  const Rng phase_base = rng_.fork("push-phase");
  shard_over_alive([&](std::size_t k, std::size_t /*block*/) {
    const NodeId id = alive_scratch_[k];
    INode& sender = *nodes_[id.value];
    ShardSlot& slot = shard_slots_[k];
    slot.deliveries.clear();
    slot.sent = 0;
    slot.dropped = 0;
    Rng loss_rng = phase_base.split(id.value);
    sender.push_targets(slot.targets);
    for (NodeId target : slot.targets) {
      ++slot.sent;
      if (config_.message_loss > 0.0 && loss_rng.chance(config_.message_loss)) {
        ++slot.dropped;
        continue;
      }
      if (!is_alive(target)) continue;
      slot.deliveries.push_back({target, sender.id(), sender.make_push()});
    }
  });
  std::size_t total = 0;
  for (std::size_t k = 0; k < alive_scratch_.size(); ++k) {
    total += shard_slots_[k].deliveries.size();
  }
  deliveries_.clear();
  deliveries_.reserve(total);
  for (std::size_t k = 0; k < alive_scratch_.size(); ++k) {
    const ShardSlot& slot = shard_slots_[k];
    counters_.pushes_sent += slot.sent;
    counters_.legs_dropped += slot.dropped;
    deliveries_.insert(deliveries_.end(), slot.deliveries.begin(), slot.deliveries.end());
  }
}

void Engine::plan_pulls() {
  // Honest targets come from the node's private rng over its own view;
  // Byzantine targets come from the shared Coordinator and stay on this
  // thread. The pairs merge in node-index order, then one shuffle on the
  // engine stream gives the round's global exchange order: exchanges
  // interleave across nodes, as they would in a real deployment.
  alive_ids(alive_scratch_);
  if (shard_slots_.size() < alive_scratch_.size()) shard_slots_.resize(alive_scratch_.size());
  shard_over_alive([&](std::size_t k, std::size_t /*block*/) {
    nodes_[alive_scratch_[k].value]->pull_targets(shard_slots_[k].targets);
  });
  pulls_.clear();
  for (std::size_t k = 0; k < alive_scratch_.size(); ++k) {
    for (NodeId target : shard_slots_[k].targets) {
      pulls_.push_back({alive_scratch_[k], target});
    }
  }
  rng_.shuffle(pulls_);
}

void Engine::deliver_pushes() {
  // Plan every alive node's pushes, then deliver them in a shuffled order
  // so no node systematically observes pushes first.
  {
    const obs::ScopedTimer t(phase_hist_[kPhasePushGen], &last_phase_us_[kPhasePushGen]);
    plan_pushes();
    rng_.shuffle(deliveries_);
  }
  const obs::ScopedTimer deliver_timer(phase_hist_[kPhasePushDeliver],
                                       &last_phase_us_[kPhasePushDeliver]);

  // Each shard owns the targets whose index is congruent to it modulo the
  // pool width and walks the shuffled list in order, so every target's
  // mailbox sees the exact subsequence the global shuffled order dictates.
  // on_push only mutates the receiving node, so per-target order is the
  // only order that is observable. Byzantine targets share the adversary
  // Coordinator, so they go first, on this thread.
  for (const Delivery& d : deliveries_) {
    if (kinds_[d.to.value] == NodeKind::kByzantine) nodes_[d.to.value]->on_push(d.payload);
  }
  pool().parallel_for(
      pool().size(),
      [this](std::size_t shard) {
        const auto shards = static_cast<std::uint32_t>(pool_->size());
        for (const Delivery& d : deliveries_) {
          if (d.to.value % shards == shard && kinds_[d.to.value] != NodeKind::kByzantine) {
            nodes_[d.to.value]->on_push(d.payload);
          }
        }
      },
      /*grain=*/1);
  counters_.pushes_delivered += deliveries_.size();
}

bool Engine::run_exchange(Lane& lane, INode& initiator, INode& responder) {
  const NodeId init_id = initiator.id();
  const NodeId resp_id = responder.id();
  // Tampering needs bytes on a wire, so a nonzero tamper_rate implies the
  // byte round-trip even when wire_roundtrip was left off.
  const bool roundtrip =
      config_.wire_roundtrip || config_.encrypt_links || config_.tamper_rate > 0.0;
  wire::LinkSession* session =
      link_table_ ? &link_table_->session(init_id, resp_id, round_) : nullptr;

  // On-path adversary: flips one uniformly chosen bit of a serialized leg.
  auto tamper = [&](std::vector<std::uint8_t>& bytes) {
    if (config_.tamper_rate <= 0.0 || bytes.empty()) return;
    if (!rng_.chance(config_.tamper_rate)) return;
    const auto byte = static_cast<std::size_t>(rng_.below(bytes.size()));
    bytes[byte] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
    ++lane.counters.legs_tampered;
  };

  // A leg the receiver rejected (AEAD failure, malformed bytes, or a
  // type-confused decode) is dropped, never fatal.
  auto corrupted = [&]() -> bool {
    ++lane.counters.legs_dropped;
    ++lane.counters.legs_corrupted;
    return false;
  };

  auto transfer = [&](wire::Message& message, wire::MsgType expected,
                      bool forward) -> bool {
    if (config_.message_loss > 0.0 && rng_.chance(config_.message_loss)) {
      ++lane.counters.legs_dropped;
      return false;
    }
    if (roundtrip) {
      wire::encode_into(message, lane.plain);
      const std::uint8_t* data = lane.plain.data();
      std::size_t len = lane.plain.size();
      if (session) {
        // One cipher per direction carries both sequence counters; sealing
        // and opening the same leg keeps them in lockstep (in-order net).
        wire::LinkCipher& channel = session->channel_from(forward ? init_id : resp_id);
        channel.seal_into(lane.plain.data(), lane.plain.size(), lane.frame);
        lane.counters.wire_bytes += lane.frame.size();
        tamper(lane.frame);
        if (!channel.open_into(lane.frame.data(), lane.frame.size(), lane.opened)) {
          // Integrity alarm: a deployed endpoint aborts the connection; the
          // pair re-establishes a fresh session on its next exchange.
          link_table_->invalidate_pair(init_id, resp_id);
          session = nullptr;
          return corrupted();
        }
        data = lane.opened.data();
        len = lane.opened.size();
      } else {
        lane.counters.wire_bytes += lane.plain.size();
        tamper(lane.plain);
      }
      try {
        wire::decode_into(data, len, message);
      } catch (const wire::WireError&) {
        return corrupted();
      }
    }
    // Typed-leg validation: tampered plaintext can decode cleanly as a
    // *different* message type; std::get on it would terminate the engine
    // (std::bad_variant_access), so mismatches are counted and dropped.
    if (wire::type_of(message) != expected) return corrupted();
    return true;
  };

  // Leg 1: pull request (auth challenge).
  initiator.open_pull(resp_id, held<wire::PullRequest>(lane.request));
  if (!transfer(lane.request, wire::MsgType::kPullRequest, /*forward=*/true)) return false;

  // The request arrived but the responder refuses to answer (omission
  // adversary): the initiator's slot times out without a leg-2 reply ever
  // touching the wire, so this is suppression, not loss.
  if (!responder.answers_pull(init_id)) {
    ++lane.counters.legs_suppressed;
    return false;
  }

  // Leg 2: pull reply (auth response + full view).
  responder.answer_pull(std::get<wire::PullRequest>(lane.request),
                        held<wire::PullReply>(lane.reply));
  if (!transfer(lane.reply, wire::MsgType::kPullReply, /*forward=*/false)) return false;

  // Leg 3: auth confirm (+ possible swap offer).
  initiator.process_pull_reply(std::get<wire::PullReply>(lane.reply),
                               held<wire::AuthConfirm>(lane.confirm));
  if (!transfer(lane.confirm, wire::MsgType::kAuthConfirm, /*forward=*/true))
    return true;  // pull itself completed

  // Leg 4: swap reply, only for a mutually-trusted exchange.
  if (!responder.process_confirm(std::get<wire::AuthConfirm>(lane.confirm),
                                 held<wire::SwapReply>(lane.swap))) {
    return true;
  }

  // Leg 5: close the trusted exchange.
  if (!transfer(lane.swap, wire::MsgType::kSwapReply, /*forward=*/false)) return true;
  initiator.process_swap_reply(std::get<wire::SwapReply>(lane.swap));
  ++lane.counters.swaps_completed;
  return true;
}

void Engine::run_pull(Lane& lane, const PendingPull& p, bool reachable) {
  ++lane.counters.pulls_started;
  INode& initiator = *nodes_[p.initiator.value];
  if (reachable && starts(p) &&
      run_exchange(lane, initiator, *nodes_[p.target.value])) {
    ++lane.counters.pulls_completed;
    return;
  }
  ++lane.counters.pulls_timed_out;
  initiator.on_pull_timeout(p.target);
}

template <typename PullAt>
void Engine::run_pulls(Lane& lane, std::size_t from, std::size_t to, const PullAt& pull_at) {
  // A pull that does not start touches only its initiator, and its target
  // may be dead or unknown, so only a started pull's target is hinted.
  for (std::size_t j = from; j < to; ++j) {
    if (j + kPrefetchObjectsAhead < to) {
      const PendingPull& p = pull_at(j + kPrefetchObjectsAhead);
      __builtin_prefetch(nodes_[p.initiator.value].get());
      if (starts(p)) __builtin_prefetch(nodes_[p.target.value].get());
    }
    if (j + kPrefetchStateAhead < to) {
      const PendingPull& p = pull_at(j + kPrefetchStateAhead);
      nodes_[p.initiator.value]->prefetch();
      if (starts(p)) nodes_[p.target.value]->prefetch();
    }
    run_pull(lane, pull_at(j));
  }
}

std::vector<Engine::Lane>& Engine::lanes() {
  if (!lanes_.empty()) return lanes_;
  lanes_.resize(4 * pool().size());
  // Every view a leg carries — a pull answer, a swap offer or half — fits
  // the largest view capacity in the population, so the lanes start warm.
  std::size_t view = 0;
  for (const auto& node : nodes_) view = std::max(view, node->view_capacity());
  for (Lane& lane : lanes_) {
    held<wire::PullReply>(lane.reply).view.reserve(view);
    wire::SwapOffer& offer = held<wire::AuthConfirm>(lane.confirm).swap_offer;
    offer.emplace().reserve(view);
    offer.reset();  // keeps the capacity
    held<wire::SwapReply>(lane.swap).swap_half.reserve(view);
  }
  return lanes_;
}

void Engine::merge_lanes() {
  for (Lane& lane : lanes_) {
    for (const CounterMetricEntry& entry : kCounterEntries) {
      counters_.*entry.field += lane.counters.*entry.field;
    }
    lane.counters = {};
  }
}

bool Engine::exchanges_in_waves() const {
  // A drawn leg fate (loss, tamper) makes whether a later leg runs — and so
  // where each Byzantine leg's Coordinator draws fall — unknowable while
  // the round is planned, and the draws themselves interleave on rng_.
  return config_.message_loss <= 0.0 && config_.tamper_rate <= 0.0;
}

std::uint32_t Engine::next_wave(const PendingPull& p) {
  std::uint32_t& initiator = last_wave_[p.initiator.value];
  if (!starts(p)) return initiator++;  // a timeout touches only the initiator
  std::uint32_t& target = last_wave_[p.target.value];
  const std::uint32_t wave = std::max(initiator, target);
  initiator = target = wave + 1;
  return wave;
}

std::size_t Engine::schedule_waves() {
  const std::size_t exchanges = pulls_.size();
  // The offsets' capacity comes from the exchange count; only the entries
  // the waves reach are zeroed, so the rest is never touched.
  last_wave_.assign(nodes_.size(), 0);
  wave_offsets_.reserve(exchanges + 2);
  wave_offsets_.clear();
  // Pass 1: each exchange's wave, counted into wave_offsets_[wave + 2].
  // Byzantine endpoints position their Coordinator draws in the same
  // serial walk, responder first (its answer is leg 2, the initiator's
  // offer leg 3).
  std::size_t waves = 0;
  for (const PendingPull& p : pulls_) {
    const std::uint32_t wave = next_wave(p);
    if (wave >= waves) {
      waves = wave + 1;
      wave_offsets_.resize(waves + 2, 0);
    }
    ++wave_offsets_[wave + 2];
    if (!starts(p)) continue;
    if (kinds_[p.target.value] == NodeKind::kByzantine) {
      nodes_[p.target.value]->plan_exchange(p.initiator, p.target);
    }
    if (kinds_[p.initiator.value] == NodeKind::kByzantine) {
      nodes_[p.initiator.value]->plan_exchange(p.initiator, p.target);
    }
  }
  // wave_offsets_[w + 1] becomes the start of wave w ...
  for (std::size_t w = 2; w < waves + 2; ++w) wave_offsets_[w] += wave_offsets_[w - 1];
  // ... and pass 2 places each exchange there, leaving wave_offsets_[w] at
  // the start of wave w. Waves are recomputed rather than stored.
  last_wave_.assign(nodes_.size(), 0);
  wave_order_.resize(exchanges);
  for (std::size_t k = 0; k < exchanges; ++k) {
    wave_order_[wave_offsets_[next_wave(pulls_[k]) + 1]++] = static_cast<std::uint32_t>(k);
  }
  return waves;
}

void Engine::run_wave_lane(std::size_t lane) {
  const std::size_t size = wave_.end - wave_.begin;
  const std::size_t from = wave_.begin + lane * size / wave_.lanes;
  const std::size_t to = wave_.begin + (lane + 1) * size / wave_.lanes;
  run_pulls(lanes_[lane], from, to,
            [this](std::size_t j) -> const PendingPull& { return pulls_[wave_order_[j]]; });
}

void Engine::run_pull_exchanges() {
  plan_pulls();
  if (!exchanges_in_waves()) {
    // One exchange at a time, on this thread, in shuffled order, with live
    // draws on the engine and Coordinator streams.
    run_pulls(lanes()[0], 0, pulls_.size(),
              [this](std::size_t j) -> const PendingPull& { return pulls_[j]; });
  } else {
    // Each wave is one parallel_for whose body captures only `this`, so it
    // fits std::function's inline buffer and the loop allocates nothing.
    const std::size_t waves = schedule_waves();
    const std::size_t lane_count = lanes().size();
    for (std::size_t w = 0; w < waves; ++w) {
      wave_.begin = wave_offsets_[w];
      wave_.end = wave_offsets_[w + 1];
      wave_.lanes = std::min(lane_count, wave_.end - wave_.begin);
      pool().parallel_for(
          wave_.lanes, [this](std::size_t lane) { run_wave_lane(lane); }, /*grain=*/1);
    }
  }
  merge_lanes();
}

void Engine::step_event() {
  const evt::EventConfig& ev = config_.event;
  const std::uint64_t round_start = evt_sched_.now_us();
  const std::uint64_t deadline = round_start + ev.round_interval_us;
  // Round-scoped base for every per-link stream. The labelled fork is const
  // and does not advance rng_; the base differs each round only because
  // the previous round's pull shuffle (and any loss, tamper or churn
  // draws) advanced rng_. So the same link draws fresh delays each round while
  // each delay stays a pure function of (seed, round, from, to) — never of
  // the worker count or of how many other links are in flight.
  const Rng link_base = rng_.fork("evt.round");
  const auto region_of = [&](NodeId id) {
    return ev.topology.region_of(id.value);
  };
  const auto link_latency = [&](Rng& link_rng, NodeId from, NodeId to) {
    std::uint64_t sampled =
        ev.latency.sample_us(link_rng, region_of(from), region_of(to));
    if (link_delay_) sampled += link_delay_(round_, from, to);
    return sampled;
  };

  // --- pushes: the round-mode plan, delivered through the event heap.
  {
    const obs::ScopedTimer t(phase_hist_[kPhasePushGen],
                             &last_phase_us_[kPhasePushGen]);
    plan_pushes();
  }
  for (std::size_t i = 0; i < deliveries_.size(); ++i) {
    const Delivery& d = deliveries_[i];
    if (ev.partition.severed(region_of(d.from), region_of(d.to), round_)) {
      ++counters_.partition_drops;
      ++counters_.legs_dropped;
      continue;
    }
    Rng link_rng = link_base.fork("evt.link", d.from.value, d.to.value);
    evt_sched_.schedule(round_start + link_latency(link_rng, d.from, d.to),
                        kEvtPush, i);
  }

  // --- pulls: the round-mode plan, each exchange started as an event at
  // the request's arrival; the remaining legs' delays are pre-sampled so
  // each pull event carries its exchange's virtual completion time in `b`.
  plan_pulls();
  for (std::size_t i = 0; i < pulls_.size(); ++i) {
    const PendingPull& p = pulls_[i];
    if (!p.target.valid() || p.target.value >= nodes_.size()) {
      evt_sched_.schedule(round_start, kEvtPull, i, round_start);
      continue;
    }
    // The five-leg exchange alternates direction; each one-way delay comes
    // from the initiator-keyed pair stream, so completion time is as
    // deterministic as the arrival.
    Rng link_rng = link_base.fork("evt.link", p.initiator.value, p.target.value);
    std::uint64_t elapsed = 0;
    std::uint64_t arrival = 0;
    for (int leg = 0; leg < 4; ++leg) {
      const bool fwd = (leg % 2) == 0;
      const NodeId from = fwd ? p.initiator : p.target;
      const NodeId to = fwd ? p.target : p.initiator;
      elapsed += link_latency(link_rng, from, to);
      if (leg == 0) arrival = elapsed;
    }
    evt_sched_.schedule(round_start + arrival, kEvtPull, i,
                        round_start + elapsed);
  }

  if (evt_queue_hist_) {
    evt_queue_hist_->record(static_cast<std::uint64_t>(evt_sched_.size()));
  }

  // --- drain: serial, in (virtual_time, seq) order. Pushes and exchanges
  // interleave by timestamp — the point of event mode — so the whole drain
  // is profiled under the pulls phase (push_deliver reads ~0 here).
  {
    const obs::ScopedTimer t(phase_hist_[kPhasePulls],
                             &last_phase_us_[kPhasePulls]);
    while (!evt_sched_.empty()) {
      const evt::Event e = evt_sched_.pop();
      if (evt_events_hist_) evt_events_hist_->record(e.at_us - round_start);
      if (e.kind == kEvtPush) {
        const Delivery& d = deliveries_[e.a];
        if (e.at_us > deadline) {
          ++counters_.legs_late;
          ++counters_.legs_dropped;
          continue;
        }
        nodes_[d.to.value]->on_push(d.payload);
        ++counters_.pushes_delivered;
        continue;
      }
      // A started exchange the drain cannot deliver times out in run_pull.
      const PendingPull& p = pulls_[e.a];
      bool reachable = true;
      if (starts(p) &&
          ev.partition.severed(region_of(p.initiator), region_of(p.target), round_)) {
        ++counters_.partition_drops;
        reachable = false;
      } else if (starts(p) && e.b > deadline) {
        // The exchange could not have concluded before the round closed.
        ++counters_.legs_late;
        reachable = false;
      }
      run_pull(lanes()[0], p, reachable);
    }
    merge_lanes();
  }
  // A popped late arrival may have carried the clock past the deadline;
  // the leg was dropped, so the round still closes exactly on schedule.
  evt_sched_.close_window(deadline);
  if (evt_virtual_hist_) evt_virtual_hist_->record(deadline / 1000);
}

void Engine::step() {
  {
    const obs::ScopedTimer t(phase_hist_[kPhaseBeginRound],
                             &last_phase_us_[kPhaseBeginRound]);
    run_begin_rounds();
  }
  if (config_.event.enabled) {
    step_event();  // records kPhasePushGen / kPhasePulls itself
  } else {
    deliver_pushes();  // records kPhasePushGen / kPhasePushDeliver itself
    const obs::ScopedTimer t(phase_hist_[kPhasePulls], &last_phase_us_[kPhasePulls]);
    run_pull_exchanges();
  }
  {
    const obs::ScopedTimer t(phase_hist_[kPhaseEndRound],
                             &last_phase_us_[kPhaseEndRound]);
    run_end_rounds();
  }
  if (link_table_) link_table_->retire_idle(round_, kLinkIdleRounds);
  ++round_;
  publish_metrics();
}

void Engine::publish_metrics() {
  for (std::size_t i = 0; i < kCounterMetrics; ++i) {
    const auto field = kCounterEntries[i].field;
    const std::uint64_t delta = counters_.*field - published_.*field;
    if (delta != 0) counter_metrics_[i]->add(delta);
  }
  published_ = counters_;
  rounds_metric_->add(1);
}

void Engine::run(Round count, const std::function<bool(Round)>& stop) {
  for (Round i = 0; i < count; ++i) {
    step();
    if (stop && stop(round_)) return;
  }
}

std::function<bool(NodeId)> Engine::aliveness_probe() const {
  return [this](NodeId id) { return is_alive(id); };
}

}  // namespace raptee::sim
