// Load generator for the peer-sampling service: C concurrent closed-loop
// clients, each a thread driving one persistent connection — connect,
// HELLO, then request/reply ping-pong until the duration elapses. Every
// reply's latency is recorded; the report aggregates p50/p99 and
// requests/sec across all connections, feeding bench/service_load and the
// raptee_load CLI.
//
// Closed-loop (one in-flight request per connection) measures service
// latency under steady concurrency C, the standard service-bench shape:
// rps = completed / wall-time is throughput at that offered concurrency.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace raptee::net {

struct LoadConfig {
  std::uint16_t port = 0;               ///< daemon port (required)
  std::size_t connections = 8;          ///< concurrent closed-loop clients
  std::chrono::milliseconds duration{1000};
  std::uint16_t samples_per_request = 8;
  /// Per-reply wait budget; a connection that exceeds it records an error
  /// and reconnects. The end of the run stops new requests but not this
  /// budget: the request in flight at the end still gets all of it.
  std::chrono::milliseconds reply_timeout{2000};
  std::uint64_t nonce_seed = 0;         ///< HELLO nonce base (0 = entropy)
};

struct LoadReport {
  std::uint64_t requests = 0;       ///< completed request/reply round trips
  std::uint64_t errors = 0;         ///< timeouts, resets, malformed replies
  std::uint64_t samples_received = 0;
  double duration_ms = 0.0;         ///< measured wall time
  double p50_us = 0.0;              ///< latency percentiles over all replies
  double p99_us = 0.0;
  double max_us = 0.0;
  double rps = 0.0;                 ///< requests / measured seconds
};

/// Runs the full load (blocks for ~duration). Throws NetError if no
/// connection can be established at all.
[[nodiscard]] LoadReport run_load(const LoadConfig& config);

}  // namespace raptee::net
