// Collects an INode's round targets and exchange legs into fresh values,
// for tests that assert on them by value.
#pragma once

#include <optional>
#include <vector>

#include "sim/node.hpp"

namespace raptee::test {

[[nodiscard]] inline std::vector<NodeId> push_targets_of(sim::INode& node) {
  std::vector<NodeId> out;
  node.push_targets(out);
  return out;
}

[[nodiscard]] inline std::vector<NodeId> pull_targets_of(sim::INode& node) {
  std::vector<NodeId> out;
  node.pull_targets(out);
  return out;
}

[[nodiscard]] inline wire::PullRequest open_pull_of(sim::INode& node, NodeId target) {
  wire::PullRequest out;
  node.open_pull(target, out);
  return out;
}

[[nodiscard]] inline wire::PullReply answer_pull_of(sim::INode& node,
                                                   const wire::PullRequest& request) {
  wire::PullReply out;
  node.answer_pull(request, out);
  return out;
}

[[nodiscard]] inline wire::AuthConfirm process_pull_reply_of(sim::INode& node,
                                                            const wire::PullReply& reply) {
  wire::AuthConfirm out;
  node.process_pull_reply(reply, out);
  return out;
}

[[nodiscard]] inline std::optional<wire::SwapReply> process_confirm_of(
    sim::INode& node, const wire::AuthConfirm& confirm) {
  wire::SwapReply out;
  if (!node.process_confirm(confirm, out)) return std::nullopt;
  return out;
}

}  // namespace raptee::test
