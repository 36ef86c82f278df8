// SHA-256 compression kernels, internal to src/crypto (tests include this
// header to hold the kernels against each other).
//
// Sha256 compresses through sha256_kernel(), which picks once per process:
// the SHA-extensions kernel (sha256_shani.cpp) when CPUID reports SHA,
// SSSE3 and SSE4.1, the portable kernel otherwise and on non-x86 builds.
// Nothing else selects it. Both compute the same FIPS 180-4 function.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

namespace raptee::crypto::detail {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256Compress = void (*)(Sha256::State& state, const std::uint8_t* data,
                                std::size_t blocks);

/// Round constants K0..K63.
inline constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// The portable kernel; runs on every CPU.
void sha256_compress_portable(Sha256::State& state, const std::uint8_t* data,
                              std::size_t blocks);

/// The SHA-extensions kernel, or nullptr when the CPU or the build target
/// lacks them.
[[nodiscard]] Sha256Compress sha256_shani_kernel();

/// The kernel this process uses, chosen on first call.
[[nodiscard]] Sha256Compress sha256_kernel();

}  // namespace raptee::crypto::detail
