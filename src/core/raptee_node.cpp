#include "core/raptee_node.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace raptee::core {

RapteeNode::RapteeNode(NodeId self, RapteeConfig config,
                       std::unique_ptr<brahms::Authenticator> auth,
                       std::unique_ptr<sgx::Enclave> enclave, Rng rng,
                       std::function<bool(NodeId)> alive_probe)
    : BrahmsNode(self, config.brahms, std::move(auth), rng, std::move(alive_probe)),
      config_(config),
      enclave_(std::move(enclave)),
      trusted_store_(config.trusted_store_capacity) {
  RAPTEE_REQUIRE(enclave_ != nullptr, "RapteeNode requires an enclave");
  RAPTEE_REQUIRE(enclave_->has_group_key(),
                 "RapteeNode requires an attested (provisioned) enclave");
  config_.eviction.validate();
}

void RapteeNode::begin_round(Round r) {
  BrahmsNode::begin_round(r);
  swap_received_.clear();
  pending_swap_ = {};
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

std::optional<std::vector<NodeId>> RapteeNode::make_swap_offer(NodeId peer) {
  trusted_store_.note_trusted(peer);
  std::vector<NodeId> half = enclave_->select_swap_half(view().ids());
  pending_swap_.active = true;
  pending_swap_.peer = peer;
  pending_swap_.sent = half;
  // Framework criterion 2: the initiator inserts a link to itself in the
  // buffer it sends.
  half.push_back(id());
  return half;
}

std::optional<std::vector<NodeId>> RapteeNode::accept_swap_offer(
    NodeId peer, const std::vector<NodeId>& offer) {
  trusted_store_.note_trusted(peer);
  const std::vector<NodeId> my_half = enclave_->select_swap_half(view().ids());
  apply_swap(/*sent=*/my_half, /*received=*/offer);
  return my_half;
}

void RapteeNode::integrate_swap_reply(NodeId peer, const std::vector<NodeId>& half) {
  if (!pending_swap_.active || pending_swap_.peer != peer) return;  // stale leg
  apply_swap(/*sent=*/pending_swap_.sent, /*received=*/half);
  pending_swap_ = {};
}

void RapteeNode::apply_swap(const std::vector<NodeId>& sent,
                            const std::vector<NodeId>& received) {
  // Framework swap semantics (criterion 3): append the received half, then
  // shrink back to capacity dropping first what we sent, then random. The
  // S-rule only fires on overflow, so the view never shrinks below l1 when
  // the received half overlaps entries we already hold.
  std::vector<gossip::ViewEntry> incoming;
  incoming.reserve(received.size());
  for (NodeId id_in : received) {
    if (id_in.valid()) incoming.push_back({id_in, 0});
  }
  mutable_view().framework_merge(incoming, id(), /*h=*/0, /*s=*/sent.size(), sent,
                                 rng());
  // §IV-B second measure: swap-received IDs also join the pulled-ID list.
  swap_received_.insert(swap_received_.end(), received.begin(), received.end());
}

brahms::BrahmsNode::PulledContribution RapteeNode::process_pulled(
    const std::vector<PullRecord>& records) {
  std::size_t trusted_exchanges = 0;
  for (const auto& r : records) {
    if (r.trusted) ++trusted_exchanges;
  }
  const double trusted_ratio =
      records.empty() ? 0.0
                      : static_cast<double>(trusted_exchanges) /
                            static_cast<double>(records.size());
  const double rate = config_.eviction.rate_for(trusted_ratio);
  last_trusted_ratio_ = trusted_ratio;
  last_eviction_rate_ = rate;
  mutable_telemetry().eviction_rate = rate;

  PulledContribution out;
  // §IV-C, both prongs of the defence:
  //  * "not passing them to the BRAHMS sampling component" — the sampler
  //    stream carries trusted-sourced IDs in full, untrusted IDs filtered
  //    inside the enclave at the eviction rate;
  //  * "ignoring them during the renewal of the pulled β·l1 entries" —
  //    untrusted IDs may fill at most (1-ER) of the pulled slice; vacated
  //    slots fall to history sampling and retained entries (so a 100 % rate
  //    builds views "as if trusted nodes issued no pull requests").
  for (const auto& r : records) {
    if (r.trusted) {
      out.sampler_ids.insert(out.sampler_ids.end(), r.ids.begin(), r.ids.end());
      out.renewal_trusted.insert(out.renewal_trusted.end(), r.ids.begin(), r.ids.end());
    } else {
      const std::vector<NodeId> survivors = enclave_->filter_pulled(r.ids, rate);
      out.sampler_ids.insert(out.sampler_ids.end(), survivors.begin(), survivors.end());
      out.renewal_untrusted.insert(out.renewal_untrusted.end(), r.ids.begin(),
                                   r.ids.end());
    }
  }
  // Swap-received IDs count as trusted pulled IDs (§IV-B).
  out.sampler_ids.insert(out.sampler_ids.end(), swap_received_.begin(),
                         swap_received_.end());
  out.renewal_trusted.insert(out.renewal_trusted.end(), swap_received_.begin(),
                             swap_received_.end());
  out.untrusted_slice_cap = 1.0 - rate;
  return out;
}

void RapteeNode::after_view_update() {
  // The sample-list and dynamic-view computations of a trusted node run
  // inside the enclave: charge the Table-I cycle classes.
  enclave_->charge(sgx::FunctionClass::kSampleListComputation);
  enclave_->charge(sgx::FunctionClass::kDynamicViewComputation);
}

}  // namespace raptee::core
