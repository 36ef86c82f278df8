// Loopback cluster integration: nine full RAPTEE endpoints — real
// BrahmsNode instances behind real TCP sockets — started from a sparse
// ring bootstrap (each node knows only its two successors) must converge
// to well-mixed views through genuine five-leg exchanges. This is the
// acceptance test for the transport subsystem: the same protocol objects
// the simulator drives, with every leg crossing a socket.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/types.hpp"
#include "net/cluster.hpp"

namespace raptee::net {
namespace {

// Distinct non-self peers node `i` currently holds.
std::size_t distinct_peers(const LoopbackCluster& cluster, std::size_t i) {
  std::set<std::uint32_t> seen;
  for (const NodeId peer : cluster.view_of(i)) {
    if (peer.value != static_cast<std::uint32_t>(i)) seen.insert(peer.value);
  }
  return seen.size();
}

TEST(LoopbackCluster, NineNodesConvergeOverRealSockets) {
  ClusterConfig config;
  config.nodes = 9;
  config.seed = 42;
  config.view_size = 8;
  config.nonce_seed = 0x5EED;
  LoopbackCluster cluster(config);
  cluster.start();

  // Ring bootstrap: every node starts knowing exactly 2 of the other 8.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_LE(distinct_peers(cluster, i), 2u) << "node " << i;
  }

  // Run rounds until every node's view holds most of the population.
  // Brahms with l1 = 8 over 9 nodes mixes within a handful of rounds; the
  // generous cap absorbs scheduling jitter, not protocol slack.
  const std::size_t want = 6;  // ≥ 6 of the 8 possible distinct peers
  bool converged = false;
  for (int rounds = 0; rounds < 30 && !converged; ++rounds) {
    cluster.run_rounds(1);
    converged = true;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (distinct_peers(cluster, i) < want) {
        converged = false;
        break;
      }
    }
  }
  EXPECT_TRUE(converged) << "views failed to mix within 30 rounds";
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_GE(distinct_peers(cluster, i), want) << "node " << i;
  }

  // The exchanges really happened, over really-sealed links.
  EXPECT_GT(cluster.pulls_completed(), 0u);
  std::uint64_t sealed_frames = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const BusStats stats = cluster.bus_stats(i);
    EXPECT_EQ(stats.open_failures, 0u) << "node " << i;
    sealed_frames += stats.frames_received;
  }
  EXPECT_GT(sealed_frames, 0u);
  cluster.stop();
}

}  // namespace
}  // namespace raptee::net
