// Sampler feed kernels, internal to src/brahms (tests include this header
// to hold the kernels against each other and against Sampler).
//
// SamplerArray feeds its samplers through sampler_feed_kernel(), which
// picks once per process: the AVX-512 kernel (sampler_avx512.cpp) when the
// CPU and the OS report AVX-512F, DQ and VL, the portable kernel otherwise
// and on non-x86 builds. Nothing else selects it. Both leave every sampler
// in the same state (see the rule in sampler.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace raptee::brahms::detail {

/// Feeds every ID of `ids` to the `l2` samplers held as parallel arrays:
/// sampler i hashes with seeds[i] and replaces (hashes[i], samples[i])
/// when the ID's hash is <= hashes[i]. An empty sampler holds ~0 and
/// kNoNode; no ID in `ids` may be kNoNode.
using SamplerFeedKernel = void (*)(const std::uint64_t* seeds, std::uint64_t* hashes,
                                   NodeId* samples, std::size_t l2,
                                   std::span<const NodeId> ids);

/// The portable kernel; runs on every CPU.
void sampler_feed_portable(const std::uint64_t* seeds, std::uint64_t* hashes,
                           NodeId* samples, std::size_t l2, std::span<const NodeId> ids);

/// The AVX-512 kernel, or nullptr when the CPU, the OS or the build target
/// lacks AVX-512F/DQ/VL.
[[nodiscard]] SamplerFeedKernel sampler_feed_avx512_kernel();

/// The kernel this process uses, chosen on first call.
[[nodiscard]] SamplerFeedKernel sampler_feed_kernel();

}  // namespace raptee::brahms::detail
