// The sampler feed kernels against each other and against Sampler: on
// seeded streams at many sampler counts, the AVX-512 kernel must leave the
// same state as the portable one, and both the state of l2 separate
// Samplers fed through next(). The streams repeat IDs, reach 2^32 - 2,
// leave samplers unfed and re-initialize samplers mid-stream, and some
// seeds are built so that an ID hashes to ~0: the one case where an empty
// sampler's half of the <= rule decides the outcome.
#include "brahms/sampler_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <vector>

#include "brahms/sampler.hpp"
#include "common/rng.hpp"
#include "crypto/minwise.hpp"

namespace raptee::brahms::detail {
namespace {

constexpr std::size_t kGuard = 8;  // lanes past l2 the kernels must not write
constexpr std::uint64_t kGuardHash = 0x5A5A5A5A5A5A5A5Aull;
constexpr NodeId kGuardSample{0x5A5A5A5Au};

std::vector<std::size_t> sampler_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t l2 = 1; l2 <= 17; ++l2) counts.push_back(l2);
  for (std::size_t l2 : {40, 64, 200}) counts.push_back(l2);
  return counts;
}

std::uint64_t inverse_mod_2_64(std::uint64_t odd) {
  std::uint64_t inv = odd;  // correct to 3 bits; each step doubles that
  for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
  return inv;
}

/// The seed under which `id` hashes to ~0: MinWiseHash's mixer inverted.
std::uint64_t seed_hashing_to_all_ones(NodeId id) {
  std::uint64_t x = ~0ull;
  x ^= x >> 33;
  x *= inverse_mod_2_64(crypto::MinWiseHash::kMul2);
  x ^= x >> 33;
  x *= inverse_mod_2_64(crypto::MinWiseHash::kMul1);
  x ^= x >> 33;
  return x ^ (static_cast<std::uint64_t>(id.value) + crypto::MinWiseHash::kOffset);
}

/// One kernel's sampler arrays, with guard lanes past l2.
struct Arrays {
  explicit Arrays(const std::vector<std::uint64_t>& seeds_in)
      : l2(seeds_in.size()),
        seeds(seeds_in),
        hashes(l2 + kGuard, ~0ull),
        samples(l2 + kGuard, kNoNode) {
    seeds.resize(l2 + kGuard, 0);
    std::fill(hashes.begin() + static_cast<std::ptrdiff_t>(l2), hashes.end(), kGuardHash);
    std::fill(samples.begin() + static_cast<std::ptrdiff_t>(l2), samples.end(), kGuardSample);
  }

  void feed(SamplerFeedKernel kernel, std::span<const NodeId> ids) {
    kernel(seeds.data(), hashes.data(), samples.data(), l2, ids);
  }
  void reinit(std::size_t i, std::uint64_t seed) {
    seeds[i] = seed;
    hashes[i] = ~0ull;
    samples[i] = kNoNode;
  }

  std::size_t l2;
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> hashes;
  std::vector<NodeId> samples;
};

/// Every sampler in `a` holds what `reference` holds, with its hash, and
/// no guard lane was written.
::testing::AssertionResult matches(const Arrays& a, const std::vector<Sampler>& reference) {
  for (std::size_t i = 0; i < a.l2; ++i) {
    const NodeId want = reference[i].sample();
    const std::uint64_t want_hash =
        want.valid() ? crypto::MinWiseHash(a.seeds[i])(want) : ~0ull;
    if (a.samples[i] != want || a.hashes[i] != want_hash) {
      return ::testing::AssertionFailure()
             << "sampler " << i << " of " << a.l2 << " holds " << a.samples[i].value
             << ", Sampler holds " << want.value;
    }
  }
  for (std::size_t i = a.l2; i < a.l2 + kGuard; ++i) {
    if (a.hashes[i] != kGuardHash || a.samples[i] != kGuardSample) {
      return ::testing::AssertionFailure() << "guard lane " << i << " of " << a.l2 << " written";
    }
  }
  return ::testing::AssertionSuccess();
}

/// One stream element: a small ID (so the stream repeats), an ID near
/// 2^32 - 2, or any valid ID.
NodeId draw_id(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return NodeId{NodeId::kInvalid - 1 - static_cast<std::uint32_t>(rng.below(4))};
    case 1: return NodeId{static_cast<std::uint32_t>(rng.below(NodeId::kInvalid))};
    default: return NodeId{static_cast<std::uint32_t>(rng.below(48))};
  }
}

/// Feeds `kernel` and l2 reference Samplers the same seeded stream in
/// chunks of 0 to 40 IDs, re-initializing random samplers between chunks
/// (half of them with a seed under which the next ID hashes to ~0, fed
/// alone), and checks the state after every chunk.
void run_stream(SamplerFeedKernel kernel, std::size_t l2, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> seeds(l2);
  for (std::uint64_t& s : seeds) s = rng.next();
  Arrays arrays(seeds);
  std::vector<Sampler> reference;
  for (std::uint64_t s : seeds) reference.emplace_back(s);
  ASSERT_TRUE(matches(arrays, reference)) << "never fed";

  std::vector<NodeId> chunk;
  for (int step = 0; step < 60; ++step) {
    if (rng.below(4) == 0) {
      const NodeId next = draw_id(rng);
      for (std::size_t i = 0; i < l2; ++i) {
        if (rng.below(3) != 0) continue;
        const std::uint64_t fresh = rng.below(2) == 0 ? seed_hashing_to_all_ones(next) : rng.next();
        arrays.reinit(i, fresh);
        reference[i].reinit(fresh);
      }
      ASSERT_TRUE(matches(arrays, reference)) << "step " << step << ", re-initialized";
      chunk.assign(1, next);
    } else {
      chunk.clear();
      const std::size_t length = static_cast<std::size_t>(rng.below(41));
      for (std::size_t k = 0; k < length; ++k) {
        chunk.push_back(k > 0 && rng.below(4) == 0 ? chunk[rng.below(k)] : draw_id(rng));
      }
    }
    arrays.feed(kernel, chunk);
    for (NodeId id : chunk) {
      for (Sampler& s : reference) s.next(id);
    }
    ASSERT_TRUE(matches(arrays, reference)) << "step " << step << ", l2 " << l2;
  }
}

const char* kernel_name(SamplerFeedKernel kernel) {
  return kernel == &sampler_feed_portable ? "portable" : "avx512";
}

TEST(SamplerKernels, PortableMatchesSamplersOnSeededStreams) {
  for (std::size_t l2 : sampler_counts()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_stream(&sampler_feed_portable, l2, 1000 * l2 + seed);
    }
  }
}

TEST(SamplerKernels, Avx512MatchesPortableAndSamplersOnSeededStreams) {
  std::printf("Sampler feed kernel selected by this process: %s\n",
              kernel_name(sampler_feed_kernel()));
  const SamplerFeedKernel avx512 = sampler_feed_avx512_kernel();
  if (avx512 == nullptr) GTEST_SKIP() << "no AVX-512F/DQ/VL on this CPU; nothing to compare";

  for (std::size_t l2 : sampler_counts()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_stream(avx512, l2, 1000 * l2 + seed);
    }
    // Both kernels over one long stream, state compared word for word.
    Rng rng(l2);
    std::vector<std::uint64_t> seeds(l2);
    for (std::uint64_t& s : seeds) s = rng.next();
    Arrays portable(seeds), vector(seeds);
    std::vector<NodeId> stream;
    for (int k = 0; k < 2000; ++k) stream.push_back(draw_id(rng));
    portable.feed(&sampler_feed_portable, stream);
    vector.feed(avx512, stream);
    EXPECT_EQ(vector.hashes, portable.hashes) << "l2 " << l2;
    EXPECT_EQ(vector.samples, portable.samples) << "l2 " << l2;
  }
}

TEST(SamplerKernels, EmptySamplersTakeAnIdHashingToAllOnes) {
  // Every sampler's seed makes `id` hash to ~0, the empty sampler's own
  // hash: under the <= rule each sampler takes it, as Sampler::next does,
  // and a second feed of it changes nothing.
  std::vector<SamplerFeedKernel> kernels{&sampler_feed_portable};
  if (sampler_feed_avx512_kernel() != nullptr) kernels.push_back(sampler_feed_avx512_kernel());
  for (SamplerFeedKernel kernel : kernels) {
    for (std::size_t l2 : sampler_counts()) {
      for (const NodeId id : {NodeId{0}, NodeId{7}, NodeId{NodeId::kInvalid - 1}}) {
        const std::uint64_t seed = seed_hashing_to_all_ones(id);
        ASSERT_EQ(crypto::MinWiseHash(seed)(id), ~0ull);
        Arrays arrays(std::vector<std::uint64_t>(l2, seed));
        std::vector<Sampler> reference(l2, Sampler(seed));
        for (int pass = 0; pass < 2; ++pass) {
          arrays.feed(kernel, {&id, 1});
          for (Sampler& s : reference) s.next(id);
          ASSERT_TRUE(reference[0].holds_sample());
          EXPECT_TRUE(matches(arrays, reference))
              << kernel_name(kernel) << ", id " << id.value << ", pass " << pass;
        }
      }
    }
  }
}

TEST(SamplerKernels, ArrayMatchesSamplersThroughValidate) {
  // SamplerArray on the process's kernel, with validate() re-initializing
  // the samplers whose sample counts as departed between feeds.
  for (std::size_t l2 : sampler_counts()) {
    Rng rng(l2 + 77);
    const std::uint64_t array_seed = rng.next();
    Rng array_rng(array_seed), reference_rng(array_seed);
    SamplerArray array(l2, array_rng);
    std::vector<Sampler> reference;
    for (std::size_t i = 0; i < l2; ++i) reference.emplace_back(reference_rng.next());

    std::vector<NodeId> stream;
    for (int round = 0; round < 6; ++round) {
      stream.clear();
      const std::size_t length = static_cast<std::size_t>(rng.below(60));
      for (std::size_t k = 0; k < length; ++k) stream.push_back(draw_id(rng));
      array.feed_all(stream);
      for (NodeId id : stream) {
        for (Sampler& s : reference) s.next(id);
      }
      const std::uint32_t cut = static_cast<std::uint32_t>(rng.below(48));
      const auto alive = [cut](NodeId id) { return id.value >= cut; };
      std::size_t reinitialized = 0;
      for (Sampler& s : reference) {
        if (s.holds_sample() && !alive(s.sample())) {
          s.reinit(reference_rng.next());
          ++reinitialized;
        }
      }
      EXPECT_EQ(array.validate(alive, array_rng), reinitialized);
      for (std::size_t i = 0; i < l2; ++i) {
        ASSERT_EQ(array.sample(i), reference[i].sample())
            << "l2 " << l2 << ", round " << round << ", sampler " << i;
      }
    }
  }
}

TEST(SamplerKernels, ProcessRunsAvx512WhenTheCpuHasIt) {
  const SamplerFeedKernel avx512 = sampler_feed_avx512_kernel();
  EXPECT_EQ(sampler_feed_kernel(), avx512 != nullptr ? avx512 : &sampler_feed_portable);
  EXPECT_EQ(sampler_feed_kernel(), sampler_feed_kernel());
}

}  // namespace
}  // namespace raptee::brahms::detail
