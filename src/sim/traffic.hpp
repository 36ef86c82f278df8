// Traffic listeners observe engine-level events without coupling metrics or
// attack code to node internals. The identification attack watches the pull
// replies Byzantine nodes receive; the metric trackers (pollution,
// discovery, victim, trusted telemetry) read the engine at round end, views
// through Engine::view_of.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace raptee::sim {

class Engine;

class ITrafficListener {
 public:
  virtual ~ITrafficListener() = default;

  /// A pull reply from `from` reached its initiator `to`, carrying `view`.
  virtual void on_pull_reply_delivered(Round round, NodeId from, NodeId to,
                                       const std::vector<NodeId>& view) {
    (void)round; (void)from; (void)to; (void)view;
  }
  /// End of round `round`; the engine's view slab is fresh.
  virtual void on_round_end(Round round, Engine& engine) { (void)round; (void)engine; }
};

}  // namespace raptee::sim
