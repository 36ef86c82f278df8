// Umbrella header: the RAPTEE public API.
//
//   #include "raptee.hpp"
//
// pulls in everything a downstream application needs to build a RAPTEE /
// Brahms peer-sampling deployment or simulation. See README.md for a
// quickstart and examples/ for runnable programs.
#pragma once

#include "brahms/auth.hpp"        // IWYU pragma: export
#include "brahms/node.hpp"        // IWYU pragma: export
#include "brahms/params.hpp"      // IWYU pragma: export
#include "brahms/sampler.hpp"     // IWYU pragma: export
#include "common/rng.hpp"         // IWYU pragma: export
#include "common/stats.hpp"       // IWYU pragma: export
#include "common/types.hpp"       // IWYU pragma: export
#include "core/eviction.hpp"      // IWYU pragma: export
#include "core/node_factory.hpp"  // IWYU pragma: export
#include "core/raptee_node.hpp"   // IWYU pragma: export
#include "exec/exec.hpp"          // IWYU pragma: export
#include "gossip/view.hpp"        // IWYU pragma: export
#include "scenario/scenario.hpp"  // IWYU pragma: export
#include "sgx/attestation.hpp"    // IWYU pragma: export
#include "sgx/enclave.hpp"        // IWYU pragma: export
#include "sim/churn.hpp"          // IWYU pragma: export
#include "sim/engine.hpp"         // IWYU pragma: export
