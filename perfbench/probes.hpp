// Layer probes of the traced run: after a workload's rounds, the benchmark
// times calls into the public functions of crypto, wire, evt and brahms on
// inputs sized from that run (view sizes, events per round). Per-call cost
// × the run's call count ÷ the phase time gives a layer's share of its
// phase.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common.hpp"

namespace perfbench {

struct ProbeInputs {
  std::size_t l1 = 40;          ///< PullReply view length
  std::size_t l2 = 40;          ///< sampler count
  std::size_t queue_depth = 1;  ///< events scheduled per round
  std::uint64_t seed = 1;
};

struct ProbeResults {
  double hmac_sha256_ns = 0.0;
  double sha256_ns_per_kib = 0.0;
  double aes256_ctr_ns_per_kib = 0.0;
  double drbg_fill16_ns = 0.0;
  double codec_us_per_leg = 0.0;
  double seal_open_us_per_leg = 0.0;
  double schedule_pop_ns = 0.0;
  double auth_handshake_us = 0.0;
  double sampler_feed_ns_per_id = 0.0;
};

/// Runs every probe once (well under a second in total). Each probe also
/// checks its own output — a sealed leg opens to its plaintext, a decoded
/// leg equals the encoded one, events pop in time order, a same-key
/// handshake is trusted — and reports a failure as a run check.
[[nodiscard]] ProbeResults run_probes(const ProbeInputs& in, Trace& trace,
                                      std::uint64_t parent, Checker& checker);

}  // namespace perfbench
