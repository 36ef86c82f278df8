// The SHA-256 compression kernels against each other: the SHA-extensions
// kernel must equal the portable one on seeded (chaining value, block)
// pairs, and the process must run the SHA-NI kernel whenever the CPU has it.
#include "crypto/sha256_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "common/rng.hpp"

namespace raptee::crypto::detail {
namespace {

TEST(Sha256Kernels, ShaNiMatchesPortableOnSeededBlocks) {
  std::printf("SHA-256 kernel selected by this process: %s\n",
              sha256_kernel() == &sha256_compress_portable ? "portable" : "sha-ni");
  const Sha256Compress shani = sha256_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this CPU; nothing to compare";

  // 10,000 calls of one to four blocks each, at every alignment mod 4.
  Rng rng(0x5348414e49ull);
  std::array<std::uint8_t, 4 * 64 + 3> buffer{};
  for (int call = 0; call < 10000; ++call) {
    Sha256::State portable{};
    for (std::uint32_t& word : portable) word = static_cast<std::uint32_t>(rng.next());
    for (std::uint8_t& byte : buffer) byte = static_cast<std::uint8_t>(rng.next());
    const std::size_t blocks = 1 + static_cast<std::size_t>(call % 4);
    const std::uint8_t* data = buffer.data() + call % 4;
    Sha256::State accelerated = portable;
    sha256_compress_portable(portable, data, blocks);
    shani(accelerated, data, blocks);
    ASSERT_EQ(portable, accelerated) << "call " << call << ", " << blocks << " block(s)";
  }
}

TEST(Sha256Kernels, ProcessRunsShaNiWhenTheCpuHasIt) {
  const Sha256Compress shani = sha256_shani_kernel();
  EXPECT_EQ(sha256_kernel(), shani != nullptr ? shani : &sha256_compress_portable);
  EXPECT_EQ(sha256_kernel(), sha256_kernel());
}

}  // namespace
}  // namespace raptee::crypto::detail
