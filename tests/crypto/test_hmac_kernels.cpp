// The fixed-shape HMAC kernels against HmacSha256's streaming code: both
// kernels of each shape must equal it on seeded keys and messages, and the
// process must run the SHA-NI kernels whenever the CPU has them.
#include "crypto/hmac_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "crypto/hmac.hpp"

namespace raptee::crypto::detail {
namespace {

/// A key's schedule, built here apart from HmacKey as RFC 2104 says: the
/// chaining values after one block of key XOR ipad and one of key XOR opad,
/// a key longer than a block hashed first.
struct Schedule {
  Sha256::State inner;
  Sha256::State outer;
};

Sha256::State pad_state(const std::array<std::uint8_t, 64>& block_key, std::uint8_t pad) {
  std::array<std::uint8_t, 64> block{};
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(block_key[i] ^ pad);
  }
  Sha256 ctx;
  ctx.update(block.data(), block.size());
  return ctx.chaining_value();
}

Schedule schedule_of(const std::vector<std::uint8_t>& key) {
  std::array<std::uint8_t, 64> block_key{};
  if (key.size() > block_key.size()) {
    const Digest256 digest = sha256(key);
    std::memcpy(block_key.data(), digest.data(), digest.size());
  } else {
    std::memcpy(block_key.data(), key.data(), key.size());
  }
  return {pad_state(block_key, 0x36), pad_state(block_key, 0x5c)};
}

/// Seeded keys of 1, 32, 64 and 65 bytes: shorter than a block, the
/// handshake's size, a whole block, and one HmacKey hashes first.
std::vector<std::vector<std::uint8_t>> seeded_keys(Rng& rng) {
  std::vector<std::vector<std::uint8_t>> keys;
  for (const std::size_t len : {1u, 32u, 64u, 65u}) {
    std::vector<std::uint8_t>& key = keys.emplace_back(len);
    for (std::uint8_t& byte : key) byte = static_cast<std::uint8_t>(rng.next());
  }
  return keys;
}

template <std::size_t N>
void fill(Rng& rng, std::array<std::uint8_t, N>& bytes) {
  for (std::uint8_t& byte : bytes) byte = static_cast<std::uint8_t>(rng.next());
}

/// Holds `tagged` and HmacKey::mac_tagged against the streaming code on
/// 10,000 tuples per key: the two handshake domains, then seeded tags.
void expect_tagged_matches_streaming(HmacTagged tagged) {
  Rng rng(0x484d4143ull);
  const std::array<std::array<std::uint8_t, 4>, 2> domains{
      {{'r', 'e', 's', 'p'}, {'i', 'n', 'i', 't'}}};
  for (const std::vector<std::uint8_t>& key : seeded_keys(rng)) {
    const Schedule schedule = schedule_of(key);
    const HmacKey hmac_key(key.data(), key.size());
    for (int call = 0; call < 10000; ++call) {
      std::array<std::uint8_t, 4> tag{};
      if (call < 2) {
        tag = domains[static_cast<std::size_t>(call)];
      } else {
        fill(rng, tag);
      }
      std::array<std::uint8_t, 16> first{};
      std::array<std::uint8_t, 16> second{};
      fill(rng, first);
      fill(rng, second);
      HmacSha256 streaming(key);
      streaming.update(tag.data(), tag.size());
      streaming.update(first.data(), first.size());
      streaming.update(second.data(), second.size());
      const Digest256 expected = streaming.finish();
      ASSERT_EQ(tagged(schedule.inner, schedule.outer, tag, first, second), expected)
          << key.size() << "-byte key, call " << call;
      ASSERT_EQ(hmac_key.mac_tagged(tag, first, second), expected)
          << key.size() << "-byte key, call " << call;
    }
  }
}

/// Holds `counter_mac` and HmacKey::mac_counter against the streaming code on
/// the edge counters and 10,000 seeded ones per key.
void expect_counter_matches_streaming(HmacCounter counter_mac) {
  Rng rng(0x435452ull);
  std::vector<std::uint64_t> counters = {0,           1,
                                         0xffffffffull, 0x100000000ull,
                                         1ull << 63,  ~0ull};
  for (int i = 0; i < 10000; ++i) counters.push_back(rng.next());
  for (const std::vector<std::uint8_t>& key : seeded_keys(rng)) {
    const Schedule schedule = schedule_of(key);
    const HmacKey hmac_key(key.data(), key.size());
    for (const std::uint64_t counter : counters) {
      std::uint8_t le64[8];
      for (int i = 0; i < 8; ++i) le64[i] = static_cast<std::uint8_t>(counter >> (8 * i));
      HmacSha256 streaming(key);
      streaming.update(le64, sizeof le64);
      const Digest256 expected = streaming.finish();
      ASSERT_EQ(counter_mac(schedule.inner, schedule.outer, counter), expected)
          << key.size() << "-byte key, counter " << counter;
      ASSERT_EQ(hmac_key.mac_counter(counter), expected)
          << key.size() << "-byte key, counter " << counter;
    }
  }
}

TEST(HmacKernels, ShaNiTaggedMatchesStreamingOnSeededTuples) {
  const HmacTagged shani = hmac_tagged_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this CPU; nothing to compare";
  expect_tagged_matches_streaming(shani);
}

TEST(HmacKernels, ShaNiCounterMatchesStreamingOnSeededCounters) {
  const HmacCounter shani = hmac_counter_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this CPU; nothing to compare";
  expect_counter_matches_streaming(shani);
}

// The portable kernels run wherever SHA-NI is missing, so they are held
// against the streaming code on every CPU.
TEST(HmacKernels, PortableKernelsMatchStreaming) {
  expect_tagged_matches_streaming(&hmac_tagged_portable);
  expect_counter_matches_streaming(&hmac_counter_portable);
}

TEST(HmacKernels, ProcessRunsShaNiWhenTheCpuHasIt) {
  std::printf("HMAC kernels selected by this process: %s\n",
              hmac_kernels().tagged == &hmac_tagged_portable ? "portable" : "sha-ni");
  const HmacCounter counter = hmac_counter_shani_kernel();
  const HmacTagged tagged = hmac_tagged_shani_kernel();
  EXPECT_EQ(counter == nullptr, tagged == nullptr);
  EXPECT_EQ(hmac_kernels().counter, counter != nullptr ? counter : &hmac_counter_portable);
  EXPECT_EQ(hmac_kernels().tagged, tagged != nullptr ? tagged : &hmac_tagged_portable);
  EXPECT_EQ(&hmac_kernels(), &hmac_kernels());
}

}  // namespace
}  // namespace raptee::crypto::detail
