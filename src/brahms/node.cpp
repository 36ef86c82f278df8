#include "brahms/node.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"
#include "common/prefetch.hpp"

namespace raptee::brahms {

namespace {

/// Makes room for `extra` more elements in power-of-two steps. A trusted
/// node's pulled-ID list outgrows its reserve with its swaps; grown this
/// way it settles after a few rounds instead of reallocating at every new
/// largest round.
template <typename T>
void reserve_more(std::vector<T>& v, std::size_t extra) {
  if (v.size() + extra > v.capacity()) v.reserve(std::bit_ceil(v.size() + extra));
}

}  // namespace

/// end_round's working memory. Every vector is cleared and refilled each
/// round, so once a scratch has served its largest round it allocates
/// nothing.
struct BrahmsNode::Workspace {
  SamplerFeed feed;                   ///< the round's distinct sampler stream
  std::vector<RenewalEntry> renewal;  ///< β·l1 renewal stream
  std::vector<NodeId> hook;           ///< PulledContribution::scratch
  std::vector<NodeId> next;           ///< the renewed view's fresh entries
  std::vector<NodeId> history;        ///< the γ·l1 history sample
  std::vector<std::size_t> indices;   ///< history_sample's draw
  std::vector<gossip::ViewEntry> previous;  ///< D3 retention candidates
};

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
  pushed_.reserve(config_.params.push_slice());
  pulled_.reserve(config_.params.pull_slice());
  pulled_ids_.reserve(config_.params.pull_slice() * config_.params.l1);
}

void BrahmsNode::bootstrap(const std::vector<NodeId>& initial_peers) {
  view_.clear();
  // The handout's distinct IDs other than self, in first-seen order: that
  // order sets the view order pick_id reads.
  SamplerFeed handout;
  handout.reset(self_, initial_peers.size());
  for (NodeId peer : initial_peers) handout.add(peer);
  for (NodeId peer : handout.ids()) {
    if (view_.full()) break;
    view_.insert(peer, 0);
  }
  // The bootstrap handout also primes the samplers: a joining node treats
  // it as its first received ID stream.
  samplers_.feed_all(view_.ids());
}

void BrahmsNode::begin_round(Round /*r*/) {
  pushed_.clear();
  raw_push_count_ = 0;
  pulled_.clear();
  pulled_ids_.clear();
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
  if (!push.sender.valid() || push.sender == self_) return;
  // A round with more than push_slice() pushes is flooded and never renews
  // from them (defence ii): past that bound a push only feeds the samplers,
  // at once, so pushed_ never outgrows its reserve.
  if (pushed_.size() < config_.params.push_slice()) {
    pushed_.push_back(push.sender);
  } else {
    samplers_.feed(push.sender);
  }
}

void BrahmsNode::pull_targets(std::vector<NodeId>& out) {
  out.clear();
  if (view_.empty()) return;
  const std::size_t fanout = config_.params.pull_slice();
  out.reserve(fanout);
  for (std::size_t i = 0; i < fanout; ++i) out.push_back(view_.pick_id(rng_));
}

void BrahmsNode::open_pull(NodeId target, wire::PullRequest& out) {
  RAPTEE_ASSERT_MSG(!initiator_slot_.active, "overlapping initiator exchanges");
  initiator_slot_.active = true;
  initiator_slot_.target = target;
  initiator_slot_.challenge = auth_->make_challenge();
  out.sender = self_;
  out.challenge = initiator_slot_.challenge;
}

void BrahmsNode::answer_pull(const wire::PullRequest& request, wire::PullReply& out) {
  responder_slot_.active = true;
  responder_slot_.peer = request.sender;
  responder_slot_.challenge = request.challenge;
  responder_slot_.response = auth_->make_response(request.challenge);
  ++telemetry_.pulls_answered;
  // Pull answers carry the full current view (paper §III-A).
  out.sender = self_;
  out.auth = responder_slot_.response;
  out.view.resize(view_.size());
  view_.copy_ids(out.view.data(), out.view.size());
}

void BrahmsNode::process_pull_reply(const wire::PullReply& reply, wire::AuthConfirm& out) {
  RAPTEE_ASSERT_MSG(initiator_slot_.active, "pull reply without open exchange");
  initiator_slot_.active = false;

  out.sender = self_;
  const bool trusted =
      auth_->verify_response(initiator_slot_.challenge, reply.auth, &out.confirm);

  add_pulled({reply.sender, static_cast<std::uint32_t>(reply.view.size()), trusted},
             reply.view);
  ++telemetry_.pulls_completed;
  telemetry_.pulled_ids_total += reply.view.size();

  out.swap_offer.reset();
  if (trusted) {
    ++telemetry_.trusted_exchanges;
    if (!make_swap_offer(reply.sender, out.swap_offer.emplace())) out.swap_offer.reset();
  }
}

bool BrahmsNode::process_confirm(const wire::AuthConfirm& confirm, wire::SwapReply& out) {
  if (!responder_slot_.active) return false;  // stray confirm: ignore
  responder_slot_.active = false;
  const bool initiator_trusted = auth_->verify_confirm(
      responder_slot_.challenge, responder_slot_.response, confirm.confirm);
  if (!initiator_trusted || !confirm.swap_offer) return false;
  out.sender = self_;
  return accept_swap_offer(confirm.sender, *confirm.swap_offer, out.swap_half);
}

void BrahmsNode::process_swap_reply(const wire::SwapReply& reply) {
  integrate_swap_reply(reply.sender, reply.swap_half);
}

void BrahmsNode::prefetch() const {
  prefetch_bytes(this, sizeof *this);
  auth_->prefetch();
  const std::vector<gossip::ViewEntry>& view = view_.entries();
  prefetch_bytes(view.data(), view.size() * sizeof(gossip::ViewEntry));
  // An initiator appends the pull answer, at most l1 IDs, past size().
  const std::size_t room =
      std::min(pulled_ids_.capacity() - pulled_ids_.size(), config_.params.l1);
  if (room > 0) prefetch_bytes(pulled_ids_.data() + pulled_ids_.size(), room * sizeof(NodeId));
}

void BrahmsNode::add_swap_ids(NodeId peer, std::span<const NodeId> ids) {
  add_pulled({peer, static_cast<std::uint32_t>(ids.size()), /*trusted=*/true, /*swap=*/true},
             ids);
}

void BrahmsNode::add_pulled(const PullRecord& record, std::span<const NodeId> ids) {
  reserve_more(pulled_, 1);
  pulled_.push_back(record);
  reserve_more(pulled_ids_, ids.size());
  pulled_ids_.insert(pulled_ids_.end(), ids.begin(), ids.end());
}

void BrahmsNode::on_pull_timeout(NodeId /*target*/) {
  // Brahms keeps unresponsive entries (the history sample washes them out);
  // the initiator slot is simply abandoned.
  initiator_slot_ = {};
}

bool BrahmsNode::make_swap_offer(NodeId /*peer*/, std::vector<NodeId>& /*offer*/) {
  return false;
}

bool BrahmsNode::accept_swap_offer(NodeId /*peer*/, const std::vector<NodeId>& /*offer*/,
                                   std::vector<NodeId>& /*half*/) {
  return false;
}

void BrahmsNode::integrate_swap_reply(NodeId /*peer*/,
                                      const std::vector<NodeId>& /*half*/) {}

void BrahmsNode::process_pulled(PulledContribution& out) {
  // Plain Brahms draws no trusted/untrusted distinction and caps nothing.
  for (NodeId id : pulled_ids_) {
    out.sampler_feed.add(id);
    out.renewal.push_back({id, /*untrusted=*/true});
  }
}

void BrahmsNode::end_round(Round r, sim::RoundScratch& scratch) {
  telemetry_.pushes_received = raw_push_count_;
  Workspace& work = scratch.get<Workspace>();

  // Sampling component: the received stream feeds every sampler,
  // independently of the blocking defence — min-wise sampling is unbiased
  // by construction, so it never needs to block. Each distinct ID is fed
  // once: a min-wise sampler is duplicate- and order-insensitive, so that
  // is exact and much cheaper. The eviction hook (RAPTEE) decides which
  // pulled IDs reach the feed, and how much of the β·l1 slice untrusted
  // sources may fill.
  //
  // The workspace is sized from the node's buffer capacities, not from this
  // round's counts: those capacities settle within a few rounds, so the
  // workspace does too, whichever of its block's nodes ran first.
  work.feed.reset(self_, pushed_.capacity() + pulled_ids_.capacity());
  for (NodeId id : pushed_) work.feed.add(id);
  work.renewal.clear();
  work.renewal.reserve(pulled_ids_.capacity());
  PulledContribution pulled{work.feed, work.renewal, work.hook};
  process_pulled(pulled);
  samplers_.feed_all(work.feed.ids());

  if (config_.sampler_validation_period != 0 && alive_probe_ &&
      r % config_.sampler_validation_period == 0) {
    samplers_.validate(alive_probe_, rng_);
  }

  // Defence (ii): skip the view update entirely when flooded, or when
  // either contribution stream is empty (Brahms' update rule).
  const bool flooded = raw_push_count_ > config_.params.push_slice();
  const bool starved = pushed_.empty() || telemetry_.pulls_completed == 0;  // swaps aside
  telemetry_.update_blocked = flooded || starved;
  if (!telemetry_.update_blocked) {
    renew_view(work, pulled.untrusted_slice_cap);
    after_view_update();
  }
}

void BrahmsNode::renew_view(Workspace& work, double untrusted_slice_cap) {
  const Params& p = config_.params;

  // The renewed view's fresh entries. It never holds more than l1 IDs, so
  // a linear scan is the cheapest membership test.
  std::vector<NodeId>& next = work.next;
  next.clear();
  next.reserve(p.l1);
  const auto taken = [&next](NodeId id) {
    return std::find(next.begin(), next.end(), id) != next.end();
  };

  // rand(stream, k): sample k entries from the raw ID stream *with its
  // multiplicities* (shuffle and walk, skipping duplicates already chosen).
  // Deduplicating first would erase exactly the over-representation the
  // Brahms analysis reasons about — the adversary's pull answers repeat its
  // member IDs massively, and the defence quantifies, not erases, that bias.
  {
    // pushed_ has fed the samplers already and dies at the next
    // begin_round, so it is shuffled in place.
    rng_.shuffle(pushed_);
    std::size_t added = 0;
    for (NodeId id : pushed_) {
      if (added >= p.push_slice() || next.size() >= p.l1) break;
      if (id == self_ || !id.valid()) continue;
      if (!taken(id)) {
        next.push_back(id);
        ++added;
      }
    }
  }

  // β·l1 pulled slice: one joint stream of (id, untrusted?) entries,
  // shuffled together so trusted sources get no artificial priority; the
  // eviction cap bounds how many slots untrusted entries may take.
  {
    const std::size_t quota = p.pull_slice();
    const auto untrusted_cap = static_cast<std::size_t>(
        std::lround(untrusted_slice_cap * static_cast<double>(quota)));
    rng_.shuffle(work.renewal);
    std::size_t added = 0, untrusted_added = 0;
    for (const RenewalEntry& e : work.renewal) {
      if (added >= quota || next.size() >= p.l1) break;
      if (e.id == self_ || !e.id.valid()) continue;
      if (e.untrusted && untrusted_added >= untrusted_cap) continue;
      if (!taken(e.id)) {
        next.push_back(e.id);
        ++added;
        if (e.untrusted) ++untrusted_added;
      }
    }
  }

  samplers_.history_sample(p.history_slice(), rng_, work.history, work.indices);
  for (NodeId id : work.history) {
    if (next.size() >= p.l1) break;
    if (id != self_ && !taken(id)) next.push_back(id);
  }

  // Shortfall rule (design decision D3): keep previous entries, freshest
  // first, until the view is full again.
  std::vector<gossip::ViewEntry>& previous = work.previous;
  previous.reserve(p.l1);
  previous.assign(view_.entries().begin(), view_.entries().end());
  std::sort(previous.begin(), previous.end(),
            [](const gossip::ViewEntry& a, const gossip::ViewEntry& b) {
              return a.age < b.age;
            });

  // Rebuilt in place: the view keeps its capacity.
  view_.clear();
  for (NodeId id : next) view_.insert(id, 0);
  for (const auto& entry : previous) {
    if (view_.full()) break;
    view_.insert(entry.id, entry.age);
  }
}

}  // namespace raptee::brahms
