#include "brahms/node.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/assert.hpp"

namespace raptee::brahms {

namespace {

/// Deduplicates preserving first occurrence, dropping `self`.
std::vector<NodeId> dedup_excluding(const std::vector<NodeId>& ids, NodeId self) {
  std::vector<NodeId> out;
  out.reserve(ids.size());
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(ids.size() * 2);
  for (NodeId id : ids) {
    if (id == self || !id.valid()) continue;
    if (seen.insert(id.value).second) out.push_back(id);
  }
  return out;
}

}  // namespace

BrahmsNode::BrahmsNode(NodeId self, BrahmsConfig config,
                       std::unique_ptr<Authenticator> auth, Rng rng,
                       std::function<bool(NodeId)> alive_probe)
    : self_(self),
      config_(config),
      auth_(std::move(auth)),
      rng_(rng),
      alive_probe_(std::move(alive_probe)),
      view_(config.params.l1),
      samplers_(config.params.l2, rng_) {
  config_.params.validate();
  RAPTEE_REQUIRE(auth_ != nullptr, "BrahmsNode requires an authenticator");
}

void BrahmsNode::bootstrap(const std::vector<NodeId>& initial_peers) {
  view_.clear();
  for (NodeId peer : dedup_excluding(initial_peers, self_)) {
    if (view_.full()) break;
    view_.insert(peer, 0);
  }
  // The bootstrap handout also primes the samplers: a joining node treats
  // it as its first received ID stream.
  for (const auto& entry : view_.entries()) samplers_.feed(entry.id);
}

void BrahmsNode::begin_round(Round /*r*/) {
  pushed_.clear();
  raw_push_count_ = 0;
  pulled_.clear();
  initiator_slot_ = {};
  responder_slot_ = {};
  telemetry_ = {};
  view_.age_all();
}

void BrahmsNode::push_targets(std::vector<NodeId>& out) {
  out.clear();
  if (view_.empty()) return;
  const std::size_t fanout = config_.params.push_slice();
  out.reserve(fanout);
  for (std::size_t i = 0; i < fanout; ++i) out.push_back(view_.pick_id(rng_));
}

wire::PushMessage BrahmsNode::make_push() { return wire::PushMessage{self_}; }

void BrahmsNode::on_push(const wire::PushMessage& push) {
  ++raw_push_count_;
  if (push.sender.valid() && push.sender != self_) pushed_.push_back(push.sender);
}

void BrahmsNode::pull_targets(std::vector<NodeId>& out) {
  out.clear();
  if (view_.empty()) return;
  const std::size_t fanout = config_.params.pull_slice();
  out.reserve(fanout);
  for (std::size_t i = 0; i < fanout; ++i) out.push_back(view_.pick_id(rng_));
}

wire::PullRequest BrahmsNode::open_pull(NodeId target) {
  RAPTEE_ASSERT_MSG(!initiator_slot_.active, "overlapping initiator exchanges");
  initiator_slot_.active = true;
  initiator_slot_.target = target;
  initiator_slot_.challenge = auth_->make_challenge();
  return wire::PullRequest{self_, initiator_slot_.challenge};
}

wire::PullReply BrahmsNode::answer_pull(const wire::PullRequest& request) {
  responder_slot_.active = true;
  responder_slot_.peer = request.sender;
  responder_slot_.challenge = request.challenge;
  responder_slot_.response = auth_->make_response(request.challenge);
  ++telemetry_.pulls_answered;
  // Pull answers carry the full current view (paper §III-A).
  return wire::PullReply{self_, responder_slot_.response, view_.ids()};
}

wire::AuthConfirm BrahmsNode::process_pull_reply(const wire::PullReply& reply) {
  RAPTEE_ASSERT_MSG(initiator_slot_.active, "pull reply without open exchange");
  initiator_slot_.active = false;

  wire::AuthConfirm confirm;
  confirm.sender = self_;
  const bool trusted =
      auth_->verify_response(initiator_slot_.challenge, reply.auth, &confirm.confirm);

  PullRecord record;
  record.peer = reply.sender;
  record.trusted = trusted;
  record.ids = reply.view;
  pulled_.push_back(std::move(record));
  ++telemetry_.pulls_completed;
  telemetry_.pulled_ids_total += reply.view.size();

  if (trusted) {
    ++telemetry_.trusted_exchanges;
    confirm.swap_offer = make_swap_offer(reply.sender);
  }
  return confirm;
}

std::optional<wire::SwapReply> BrahmsNode::process_confirm(
    const wire::AuthConfirm& confirm) {
  if (!responder_slot_.active) return std::nullopt;  // stray confirm: ignore
  responder_slot_.active = false;
  const bool initiator_trusted = auth_->verify_confirm(
      responder_slot_.challenge, responder_slot_.response, confirm.confirm);
  if (!initiator_trusted || !confirm.swap_offer) return std::nullopt;
  auto half = accept_swap_offer(confirm.sender, *confirm.swap_offer);
  if (!half) return std::nullopt;
  return wire::SwapReply{self_, std::move(*half)};
}

void BrahmsNode::process_swap_reply(const wire::SwapReply& reply) {
  integrate_swap_reply(reply.sender, reply.swap_half);
}

void BrahmsNode::on_pull_timeout(NodeId /*target*/) {
  // Brahms keeps unresponsive entries (the history sample washes them out);
  // the initiator slot is simply abandoned.
  initiator_slot_ = {};
}

std::optional<std::vector<NodeId>> BrahmsNode::make_swap_offer(NodeId /*peer*/) {
  return std::nullopt;
}

std::optional<std::vector<NodeId>> BrahmsNode::accept_swap_offer(
    NodeId /*peer*/, const std::vector<NodeId>& /*offer*/) {
  return std::nullopt;
}

void BrahmsNode::integrate_swap_reply(NodeId /*peer*/,
                                      const std::vector<NodeId>& /*half*/) {}

BrahmsNode::PulledContribution BrahmsNode::process_pulled(
    const std::vector<PullRecord>& records) {
  PulledContribution out;
  for (const auto& r : records) {
    out.sampler_ids.insert(out.sampler_ids.end(), r.ids.begin(), r.ids.end());
    // Plain Brahms draws no trusted/untrusted distinction and caps nothing.
    out.renewal_untrusted.insert(out.renewal_untrusted.end(), r.ids.begin(), r.ids.end());
  }
  return out;
}

void BrahmsNode::end_round(Round r) {
  telemetry_.pushes_received = raw_push_count_;

  // Eviction hook (RAPTEE) decides which pulled IDs survive and how much of
  // the β·l1 slice untrusted sources may fill.
  const PulledContribution pulled = process_pulled(pulled_);
  telemetry_.pulled_ids_kept =
      pulled.renewal_trusted.size() + pulled.renewal_untrusted.size();

  // Sampling component: the (filtered) received stream feeds every sampler,
  // independently of the blocking defence — min-wise sampling is unbiased
  // by construction, so it never needs to block. Feeding the deduplicated
  // stream is mathematically identical (a min-wise sampler is duplicate-
  // insensitive) and much cheaper.
  samplers_.feed_all(dedup_excluding(pushed_, self_));
  samplers_.feed_all(dedup_excluding(pulled.sampler_ids, self_));

  if (config_.sampler_validation_period != 0 && alive_probe_ &&
      r % config_.sampler_validation_period == 0) {
    samplers_.validate(alive_probe_, rng_);
  }

  // Defence (ii): skip the view update entirely when flooded, or when
  // either contribution stream is empty (Brahms' update rule).
  const bool flooded = raw_push_count_ > config_.params.push_slice();
  const bool starved = pushed_.empty() || pulled_.empty();
  telemetry_.update_blocked = flooded || starved;
  if (!telemetry_.update_blocked) {
    renew_view(pulled);
    after_view_update();
  }
}

void BrahmsNode::renew_view(const PulledContribution& pulled) {
  const Params& p = config_.params;

  std::vector<NodeId> next;
  next.reserve(p.l1);
  std::unordered_set<std::uint32_t> taken;
  taken.reserve(p.l1 * 2);

  // rand(stream, k): sample k entries from the raw ID stream *with its
  // multiplicities* (shuffle and walk, skipping duplicates already chosen).
  // Deduplicating first would erase exactly the over-representation the
  // Brahms analysis reasons about — the adversary's pull answers repeat its
  // member IDs massively, and the defence quantifies, not erases, that bias.
  auto fill_from_stream = [&](std::vector<NodeId> stream, std::size_t want) {
    rng_.shuffle(stream);
    std::size_t added = 0;
    for (NodeId id : stream) {
      if (added >= want || next.size() >= p.l1) break;
      if (id == self_ || !id.valid()) continue;
      if (taken.insert(id.value).second) {
        next.push_back(id);
        ++added;
      }
    }
  };

  fill_from_stream(pushed_, p.push_slice());

  // β·l1 pulled slice: one joint stream of (id, untrusted?) entries,
  // shuffled together so trusted sources get no artificial priority; the
  // eviction cap bounds how many slots untrusted entries may take.
  {
    const std::size_t quota = p.pull_slice();
    const auto untrusted_cap = static_cast<std::size_t>(
        std::lround(pulled.untrusted_slice_cap * static_cast<double>(quota)));
    struct Tagged {
      NodeId id;
      bool untrusted;
    };
    std::vector<Tagged> stream;
    stream.reserve(pulled.renewal_trusted.size() + pulled.renewal_untrusted.size());
    for (NodeId id : pulled.renewal_trusted) stream.push_back({id, false});
    for (NodeId id : pulled.renewal_untrusted) stream.push_back({id, true});
    rng_.shuffle(stream);
    std::size_t added = 0, untrusted_added = 0;
    for (const Tagged& t : stream) {
      if (added >= quota || next.size() >= p.l1) break;
      if (t.id == self_ || !t.id.valid()) continue;
      if (t.untrusted && untrusted_added >= untrusted_cap) continue;
      if (taken.insert(t.id.value).second) {
        next.push_back(t.id);
        ++added;
        if (t.untrusted) ++untrusted_added;
      }
    }
  }

  for (NodeId id : samplers_.history_sample(p.history_slice(), rng_)) {
    if (next.size() >= p.l1) break;
    if (id != self_ && taken.insert(id.value).second) next.push_back(id);
  }

  // Shortfall rule (design decision D3): keep previous entries, freshest
  // first, until the view is full again.
  std::vector<gossip::ViewEntry> previous = view_.entries();
  std::sort(previous.begin(), previous.end(),
            [](const gossip::ViewEntry& a, const gossip::ViewEntry& b) {
              return a.age < b.age;
            });

  gossip::PartialView renewed(p.l1);
  for (NodeId id : next) renewed.insert(id, 0);
  for (const auto& entry : previous) {
    if (renewed.full()) break;
    renewed.insert(entry.id, entry.age);
  }
  view_ = std::move(renewed);
}

}  // namespace raptee::brahms
