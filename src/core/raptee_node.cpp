#include "core/raptee_node.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace raptee::core {

namespace {

// Trusted peers a node remembers for its overlay pulls (TrustedStore).
constexpr std::size_t kTrustedStoreCapacity = 64;

}  // namespace

RapteeNode::RapteeNode(NodeId self, RapteeConfig config,
                       std::unique_ptr<brahms::Authenticator> auth,
                       std::unique_ptr<sgx::Enclave> enclave, Rng rng,
                       std::function<bool(NodeId)> alive_probe)
    : BrahmsNode(self, config.brahms, std::move(auth), rng, std::move(alive_probe)),
      config_(config),
      enclave_(std::move(enclave)),
      trusted_store_(kTrustedStoreCapacity) {
  RAPTEE_REQUIRE(enclave_ != nullptr, "RapteeNode requires an enclave");
  RAPTEE_REQUIRE(enclave_->has_group_key(),
                 "RapteeNode requires an attested (provisioned) enclave");
  config_.eviction.validate();
  // A swap moves at most half a view plus the self link each way, so these
  // hold an l1-entry view and its halves without growing.
  const std::size_t l1 = config_.brahms.params.l1;
  mutable_view().reserve(l1 + (l1 + 1) / 2 + 1);
  view_ids_.reserve(l1);
  incoming_.reserve(l1);
  pending_swap_.sent.reserve(l1);
}

void RapteeNode::begin_round(Round r) {
  BrahmsNode::begin_round(r);
  pending_swap_.active = false;
  pending_swap_.sent.clear();
  trusted_store_.next_round();
}

void RapteeNode::pull_targets(std::vector<NodeId>& out) {
  BrahmsNode::pull_targets(out);
  if (config_.trusted_overlay) {
    // D1 extension: one standing exchange with the oldest known trusted
    // peer (framework tail selection over the trusted sub-overlay).
    if (const auto peer = trusted_store_.oldest()) out.push_back(*peer);
  }
}

bool RapteeNode::make_swap_offer(NodeId peer, std::vector<NodeId>& offer) {
  trusted_store_.note_trusted(peer);
  view_ids_.resize(view().size());
  view().copy_ids(view_ids_.data(), view_ids_.size());
  enclave_->select_swap_half(view_ids_, offer);
  pending_swap_.active = true;
  pending_swap_.peer = peer;
  pending_swap_.sent.assign(offer.begin(), offer.end());
  // Framework criterion 2: the initiator inserts a link to itself in the
  // buffer it sends.
  offer.push_back(id());
  return true;
}

bool RapteeNode::accept_swap_offer(NodeId peer, const std::vector<NodeId>& offer,
                                   std::vector<NodeId>& half) {
  trusted_store_.note_trusted(peer);
  view_ids_.resize(view().size());
  view().copy_ids(view_ids_.data(), view_ids_.size());
  enclave_->select_swap_half(view_ids_, half);
  apply_swap(peer, /*sent=*/half, /*received=*/offer);
  return true;
}

void RapteeNode::integrate_swap_reply(NodeId peer, const std::vector<NodeId>& half) {
  if (!pending_swap_.active || pending_swap_.peer != peer) return;  // stale leg
  apply_swap(peer, /*sent=*/pending_swap_.sent, /*received=*/half);
  pending_swap_.active = false;
  pending_swap_.sent.clear();
}

void RapteeNode::apply_swap(NodeId peer, const std::vector<NodeId>& sent,
                            const std::vector<NodeId>& received) {
  // Framework swap semantics (criterion 3): append the received half, then
  // shrink back to capacity dropping first what we sent, then random. The
  // S-rule only fires on overflow, so the view never shrinks below l1 when
  // the received half overlaps entries we already hold.
  incoming_.clear();
  for (NodeId id_in : received) {
    if (id_in.valid()) incoming_.push_back({id_in, 0});
  }
  mutable_view().framework_merge(incoming_, id(), sent, rng());
  // §IV-B second measure: swap-received IDs also join the pulled-ID list,
  // exempt from eviction.
  add_swap_ids(peer, received);
}

void RapteeNode::process_pulled(PulledContribution& out) {
  std::size_t completed = 0, trusted_exchanges = 0;
  for_each_pulled([&](const PullRecord& r, std::span<const NodeId> /*ids*/) {
    if (r.swap) return;
    ++completed;
    if (r.trusted) ++trusted_exchanges;
  });
  const double trusted_ratio =
      completed == 0 ? 0.0
                     : static_cast<double>(trusted_exchanges) /
                           static_cast<double>(completed);
  const double rate = config_.eviction.rate_for(trusted_ratio);
  last_trusted_ratio_ = trusted_ratio;
  last_eviction_rate_ = rate;
  mutable_telemetry().eviction_rate = rate;

  // §IV-C, both prongs of the defence:
  //  * "not passing them to the BRAHMS sampling component" — the sampler
  //    stream carries trusted-sourced IDs in full, untrusted IDs filtered
  //    inside the enclave at the eviction rate;
  //  * "ignoring them during the renewal of the pulled β·l1 entries" —
  //    untrusted IDs may fill at most (1-ER) of the pulled slice; vacated
  //    slots fall to history sampling and retained entries (so a 100 % rate
  //    builds views "as if trusted nodes issued no pull requests").
  // Trusted sources first: pull answers of trusted peers, then the
  // swap-received IDs, which count as trusted pulled IDs (§IV-B).
  const auto trusted_source = [&out](std::span<const NodeId> ids) {
    for (NodeId pulled : ids) {
      out.sampler_feed.add(pulled);
      out.renewal.push_back({pulled, /*untrusted=*/false});
    }
  };
  for_each_pulled([&](const PullRecord& r, std::span<const NodeId> ids) {
    if (r.trusted && !r.swap) trusted_source(ids);
  });
  for_each_pulled([&](const PullRecord& r, std::span<const NodeId> ids) {
    if (r.swap) trusted_source(ids);
  });
  for_each_pulled([&](const PullRecord& r, std::span<const NodeId> ids) {
    if (r.trusted) return;
    enclave_->filter_pulled(ids, rate, out.scratch);
    for (NodeId survivor : out.scratch) out.sampler_feed.add(survivor);
    for (NodeId pulled : ids) out.renewal.push_back({pulled, /*untrusted=*/true});
  });
  out.untrusted_slice_cap = 1.0 - rate;
}

void RapteeNode::after_view_update() {
  // The sample-list and dynamic-view computations of a trusted node run
  // inside the enclave: charge the Table-I cycle classes.
  enclave_->charge(sgx::FunctionClass::kSampleListComputation);
  enclave_->charge(sgx::FunctionClass::kDynamicViewComputation);
}

}  // namespace raptee::core
