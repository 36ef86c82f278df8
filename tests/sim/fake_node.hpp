// Scripted INode used by engine/tracker tests: fixed view, configurable
// push/pull targets, records every callback.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/node.hpp"

namespace raptee::sim::testing {

class FakeNode : public INode {
 public:
  explicit FakeNode(NodeId id) : id_(id) {}

  NodeId id() const override { return id_; }
  void bootstrap(const std::vector<NodeId>& peers) override {
    view_ = peers;
    ++bootstraps;
  }
  void begin_round(Round r) override {
    last_round = r;
    ++begin_calls;
    pushes_seen_this_round = 0;
  }
  void push_targets(std::vector<NodeId>& out) override { out = push_targets_; }
  wire::PushMessage make_push() override { return wire::PushMessage{id_}; }
  void on_push(const wire::PushMessage& push) override {
    received_pushes.push_back(push.sender);
    ++pushes_seen_this_round;
  }
  void pull_targets(std::vector<NodeId>& out) override { out = pull_targets_; }
  bool answers_pull(NodeId requester) override {
    pull_refusal_checks.push_back(requester);
    return !refuse_pulls;
  }
  void open_pull(NodeId target, wire::PullRequest& out) override {
    last_pull_target = target;
    out = wire::PullRequest{id_, {}};
  }
  void answer_pull(const wire::PullRequest& request, wire::PullReply& out) override {
    pull_requests_answered.push_back(request.sender);
    out = wire::PullReply{id_, {}, view_};
  }
  void process_pull_reply(const wire::PullReply& reply, wire::AuthConfirm& out) override {
    replies_received.push_back(reply.sender);
    last_reply_view = reply.view;
    out = wire::AuthConfirm{};
    out.sender = id_;
    if (offer_on_reply) out.swap_offer = view_;
  }
  bool process_confirm(const wire::AuthConfirm& confirm, wire::SwapReply& out) override {
    confirms_received.push_back(confirm.sender);
    if (!confirm.swap_offer || !answer_swaps) return false;
    out = wire::SwapReply{id_, view_};
    return true;
  }
  void process_swap_reply(const wire::SwapReply& reply) override {
    swap_replies.push_back(reply.sender);
  }
  void on_pull_timeout(NodeId target) override { timeouts.push_back(target); }
  void end_round(Round, RoundScratch&) override { ++end_calls; }
  std::size_t view_capacity() const override { return view_.size(); }
  std::size_t copy_view(NodeId* out, std::size_t cap) const override {
    const std::size_t n = std::min(view_.size(), cap);
    std::copy_n(view_.begin(), n, out);
    return n;
  }

  // Script knobs.
  std::vector<NodeId> view_;
  std::vector<NodeId> push_targets_;
  std::vector<NodeId> pull_targets_;
  bool offer_on_reply = false;
  bool answer_swaps = false;
  bool refuse_pulls = false;  ///< omission: refuse every incoming pull

  // Recorded activity.
  int bootstraps = 0;
  int begin_calls = 0;
  int end_calls = 0;
  Round last_round = 0;
  std::size_t pushes_seen_this_round = 0;
  std::vector<NodeId> received_pushes;
  std::vector<NodeId> pull_requests_answered;
  std::vector<NodeId> replies_received;
  std::vector<NodeId> last_reply_view;
  std::vector<NodeId> confirms_received;
  std::vector<NodeId> swap_replies;
  std::vector<NodeId> timeouts;
  std::vector<NodeId> pull_refusal_checks;
  NodeId last_pull_target;

 private:
  NodeId id_;
};

}  // namespace raptee::sim::testing
