// HMAC-SHA-256 kernels for the pull handshake's two fixed message shapes,
// internal to src/crypto (tests include this header to hold the kernels
// against each other).
//
// HmacKey::mac_counter and HmacKey::mac_tagged MAC through hmac_kernels(),
// which picks once per process: the SHA-extensions kernels
// (sha256_shani.cpp) when CPUID reports SHA, SSSE3 and SSE4.1 on an x86-64
// build, the portable kernels otherwise. Nothing else selects them. The
// portable kernels are HmacSha256's streaming code, so both compute the
// same RFC 2104 function.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace raptee::crypto::detail {

/// HMAC(key, le64(counter)) from the key's schedule: `inner` and `outer`
/// are the chaining values after key XOR ipad and key XOR opad.
using HmacCounter = Digest256 (*)(const Sha256::State& inner, const Sha256::State& outer,
                                  std::uint64_t counter);

/// HMAC(key, tag ‖ first ‖ second) from the key's schedule: a 36-byte
/// message, one inner block with its padding.
using HmacTagged = Digest256 (*)(const Sha256::State& inner, const Sha256::State& outer,
                                 std::span<const std::uint8_t, 4> tag,
                                 std::span<const std::uint8_t, 16> first,
                                 std::span<const std::uint8_t, 16> second);

/// The kernels a process runs, one per shape.
struct HmacKernels {
  HmacCounter counter;
  HmacTagged tagged;
};

/// The portable kernels; run on every CPU.
[[nodiscard]] Digest256 hmac_counter_portable(const Sha256::State& inner,
                                              const Sha256::State& outer,
                                              std::uint64_t counter);
[[nodiscard]] Digest256 hmac_tagged_portable(const Sha256::State& inner,
                                             const Sha256::State& outer,
                                             std::span<const std::uint8_t, 4> tag,
                                             std::span<const std::uint8_t, 16> first,
                                             std::span<const std::uint8_t, 16> second);

/// The SHA-extensions kernels, or nullptr when the CPU lacks them or the
/// build is not x86-64.
[[nodiscard]] HmacCounter hmac_counter_shani_kernel();
[[nodiscard]] HmacTagged hmac_tagged_shani_kernel();

/// The kernels this process uses, chosen on first call.
[[nodiscard]] const HmacKernels& hmac_kernels();

}  // namespace raptee::crypto::detail
