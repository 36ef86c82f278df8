// SHA-256 (FIPS 180-4), implemented from scratch for this offline
// reproduction. Used by the mutual-authentication protocol (H(rA·rB)),
// HMAC, enclave measurements and the deterministic DRBG.
//
// Kernel selection: the first hash in a process picks the compression
// function once, from CPUID. CPUs with the x86 SHA extensions (plus SSSE3
// and SSE4.1) run the SHA-NI kernel; every other CPU, and every non-x86
// build, runs the portable one. No flag, option or environment variable
// switches it, and both produce the same bytes (crypto/sha256_kernel.hpp;
// test_sha256_kernels holds them equal).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace raptee::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  /// Chaining value: the eight state words between whole 64-byte blocks.
  using State = std::array<std::uint32_t, 8>;

  Sha256() { reset(); }
  /// Resumes a hash whose first `blocks` whole 64-byte blocks left
  /// `state` (a chaining_value()).
  Sha256(const State& state, std::uint64_t blocks) : h_(state), total_bits_(blocks * 512) {}

  void reset();
  void update(const std::uint8_t* data, std::size_t len);
  void update(std::string_view s) {
    // raptee-lint: allow(cast-allowlist) audited byte pun: char -> uint8_t view of the same buffer
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void update(const std::vector<std::uint8_t>& v) { update(v.data(), v.size()); }

  /// The chaining value so far. The bytes absorbed must fill whole blocks.
  [[nodiscard]] const State& chaining_value() const;

  /// Finalizes and returns the digest. The context must be reset() before reuse.
  [[nodiscard]] Digest256 finish();

 private:
  State h_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Digest256 sha256(const std::uint8_t* data, std::size_t len);
[[nodiscard]] Digest256 sha256(std::string_view s);
[[nodiscard]] Digest256 sha256(const std::vector<std::uint8_t>& v);

/// Lowercase hex encoding of a digest or any other bytes.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> bytes);

/// Constant-time digest comparison (timing-safe even though the simulator
/// adversary cannot time us; done for fidelity).
[[nodiscard]] bool digest_equal(const Digest256& a, const Digest256& b);

}  // namespace raptee::crypto
