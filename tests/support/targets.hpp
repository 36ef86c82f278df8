// Collects an INode's round targets into a fresh vector, for tests that
// assert on them by value.
#pragma once

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

}  // namespace raptee::test
