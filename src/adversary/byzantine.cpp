#include "adversary/byzantine.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace raptee::adversary {

Coordinator::Coordinator(std::vector<NodeId> members, std::vector<NodeId> victims,
                         AttackConfig config, std::uint64_t seed)
    : Coordinator(std::move(members), std::move(victims), std::move(config), seed,
                  make_strategy(AttackSpec::balanced())) {}

Coordinator::Coordinator(std::vector<NodeId> members, std::vector<NodeId> victims,
                         AttackConfig config, std::uint64_t seed,
                         std::unique_ptr<IStrategy> strategy)
    : members_(std::move(members)),
      victims_(std::move(victims)),
      config_(std::move(config)),
      rng_(mix64(seed, 0x42595A43ull)),
      strategy_(std::move(strategy)) {
  RAPTEE_REQUIRE(!members_.empty(), "coordinator needs at least one member");
  RAPTEE_REQUIRE(strategy_ != nullptr, "coordinator needs a strategy");
  std::sort(members_.begin(), members_.end());
}

void Coordinator::set_victims(std::vector<NodeId> victims) {
  victims_ = std::move(victims);
}

void Coordinator::set_targeted(std::vector<NodeId> victims) {
  // Takes effect at the next round's planning; an already-built schedule
  // keeps pushing at the old set for the remainder of its round.
  config_.targeted_victims = std::move(victims);
}

void Coordinator::begin_round(Round r) {
  if (prepared_round_ && *prepared_round_ == r) return;
  prepared_round_ = r;
  active_ = strategy_->active(r);
  if (active_) ++rounds_active_;
  strategy_->plan_pushes(r, *this, schedule_);
}

std::span<const NodeId> Coordinator::push_slice(NodeId member) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), member);
  RAPTEE_ASSERT_MSG(it != members_.end() && *it == member, "unknown member");
  const auto idx = static_cast<std::size_t>(it - members_.begin());
  const std::size_t budget = config_.push_budget_per_member;
  const std::size_t from = idx * budget;
  if (from >= schedule_.size()) return {};
  const std::size_t to = std::min(from + budget, schedule_.size());
  return {schedule_.data() + from, to - from};
}

void Coordinator::pull_targets(std::vector<NodeId>& out) {
  out.clear();
  strategy_->plan_pulls(*this, out);
}

bool Coordinator::answers_pulls() const {
  return strategy_->answers_pulls(prepared_round_.value_or(0));
}

void Coordinator::answer_view(std::size_t k, std::vector<NodeId>& out) {
  strategy_->answer_view(prepared_round_.value_or(0), *this, k, out);
}

bool Coordinator::attach_bogus_swap() const {
  return strategy_->attach_bogus_swap(prepared_round_.value_or(0), *this);
}

void Coordinator::faulty_view(std::size_t k, std::vector<NodeId>& out) {
  out.clear();
  if (k <= members_.size()) {
    rng_.sample_indices_into(members_.size(), k, index_scratch_);
    out.reserve(index_scratch_.size());
    for (const std::size_t i : index_scratch_) out.push_back(members_[i]);
    return;
  }
  // Fewer members than requested: fill with repeats.
  out.assign(members_.begin(), members_.end());
  while (out.size() < k) {
    out.push_back(members_[static_cast<std::size_t>(rng_.below(members_.size()))]);
  }
  rng_.shuffle(out);
}

NodeId Coordinator::faulty_id() {
  return members_[static_cast<std::size_t>(rng_.below(members_.size()))];
}

bool Coordinator::is_member(NodeId id) const {
  return std::binary_search(members_.begin(), members_.end(), id);
}

ByzantineNode::ByzantineNode(NodeId self, std::shared_ptr<Coordinator> coordinator,
                             std::uint64_t seed)
    : self_(self),
      coordinator_(std::move(coordinator)),
      drbg_(mix64(seed, self.value), "byzantine-camouflage"),
      rng_(mix64(seed, ~static_cast<std::uint64_t>(self.value))) {
  RAPTEE_REQUIRE(coordinator_ != nullptr, "ByzantineNode requires a coordinator");
}

void ByzantineNode::bootstrap(const std::vector<NodeId>& /*initial_peers*/) {
  // The adversary has global knowledge; bootstrap handouts are ignored.
}

void ByzantineNode::begin_round(Round r) { coordinator_->begin_round(r); }

void ByzantineNode::push_targets(std::vector<NodeId>& out) {
  const auto slice = coordinator_->push_slice(self_);
  out.assign(slice.begin(), slice.end());
}

wire::PushMessage ByzantineNode::make_push() {
  // Each push advertises some Byzantine ID (the adversary maximizes the
  // spread of faulty IDs, not of any single identity).
  return wire::PushMessage{coordinator_->faulty_id()};
}

void ByzantineNode::on_push(const wire::PushMessage& /*push*/) {}

void ByzantineNode::pull_targets(std::vector<NodeId>& out) {
  coordinator_->pull_targets(out);
}

wire::PullRequest ByzantineNode::open_pull(NodeId /*target*/) {
  wire::PullRequest request;
  request.sender = self_;
  drbg_.fill(request.challenge.r_a.data(), request.challenge.r_a.size());
  return request;
}

bool ByzantineNode::answers_pull(NodeId /*requester*/) {
  return coordinator_->answers_pulls();
}

wire::PullReply ByzantineNode::answer_pull(const wire::PullRequest& /*request*/) {
  wire::PullReply reply;
  reply.sender = self_;
  drbg_.fill(reply.auth.r_b.data(), reply.auth.r_b.size());
  drbg_.fill(reply.auth.proof_b.data(), reply.auth.proof_b.size());  // can't forge
  coordinator_->answer_view(coordinator_->config().advertised_view_size, reply.view);
  return reply;
}

wire::AuthConfirm ByzantineNode::process_pull_reply(const wire::PullReply& /*reply*/) {
  // The engine's traffic listener already surfaces this reply to the
  // identification attack; the node only needs to keep the exchange shaped
  // like an honest one.
  wire::AuthConfirm confirm;
  confirm.sender = self_;
  drbg_.fill(confirm.confirm.proof_a.data(), confirm.confirm.proof_a.size());
  if (coordinator_->attach_bogus_swap()) {
    coordinator_->faulty_view(
        std::max<std::size_t>(1, coordinator_->config().advertised_view_size / 2),
        confirm.swap_offer.emplace());
  }
  return confirm;
}

std::optional<wire::SwapReply> ByzantineNode::process_confirm(
    const wire::AuthConfirm& /*confirm*/) {
  return std::nullopt;  // nobody ever mutually authenticates with us
}

void ByzantineNode::process_swap_reply(const wire::SwapReply& /*reply*/) {}

void ByzantineNode::end_round(Round /*r*/) {}

}  // namespace raptee::adversary
