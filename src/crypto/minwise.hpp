// Min-wise independent hash family (Broder et al., JCSS 2000) for the Brahms
// sampling component. Each Brahms sampler draws one member of this family at
// initialization and keeps the stream element with the minimal hash — over a
// stream containing each distinct ID at least once, the retained element is
// a uniform sample, regardless of duplication or ordering of the stream.
//
// We use a seeded 64-bit mixer (xxhash-style avalanche over id ^ seed) as a
// practical approximation of a min-wise independent permutation; the
// property tests verify uniformity and order-invariance empirically.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace raptee::crypto {

class MinWiseHash {
 public:
  /// The mixer's constants, shared with the vector sampler kernel.
  static constexpr std::uint64_t kOffset = 0x9E3779B97F4A7C15ull;
  static constexpr std::uint64_t kMul1 = 0xFF51AFD7ED558CCDull;
  static constexpr std::uint64_t kMul2 = 0xC4CEB9FE1A85EC53ull;

  MinWiseHash() = default;
  explicit MinWiseHash(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  [[nodiscard]] std::uint64_t operator()(NodeId id) const {
    std::uint64_t x = (static_cast<std::uint64_t>(id.value) + kOffset) ^ seed_;
    x ^= x >> 33;
    x *= kMul1;
    x ^= x >> 33;
    x *= kMul2;
    x ^= x >> 33;
    return x;
  }

 private:
  std::uint64_t seed_ = 0;
};

}  // namespace raptee::crypto
