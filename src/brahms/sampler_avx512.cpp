// The sampler feed on AVX-512: eight samplers per 512-bit vector, with
// MinWiseHash's two 64-bit multiplies on vpmullq (AVX-512DQ) and the held
// samples in a 256-bit vector beside their hashes (AVX-512VL). The kernel
// carries a function-level target attribute, so the file builds with the
// project's ordinary flags; sampler_feed_avx512_kernel() hands it out only
// when the CPU and the OS report the extensions it needs.
#include "brahms/sampler_kernel.hpp"

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>

#include "crypto/minwise.hpp"

namespace raptee::brahms::detail {

namespace {

static_assert(sizeof(NodeId) == sizeof(std::uint32_t), "samples load as 32-bit lanes");

/// x ^ (x >> 33) in every lane. The zero-masking shift with all lanes
/// live is a plain vpsrlq; GCC 12 warns that the unmasked intrinsic's
/// undefined pass-through operand may be used uninitialized.
__attribute__((target("avx512f,avx512dq,avx512vl"))) inline __m512i fold33(__m512i x) {
  return _mm512_xor_si512(x, _mm512_maskz_srli_epi64(0xFF, x, 33));
}

__attribute__((target("avx512f,avx512dq,avx512vl"))) void feed_avx512(
    const std::uint64_t* seeds, std::uint64_t* hashes, NodeId* samples, std::size_t l2,
    std::span<const NodeId> ids) {
  const __m512i mul1 = _mm512_set1_epi64(static_cast<long long>(crypto::MinWiseHash::kMul1));
  const __m512i mul2 = _mm512_set1_epi64(static_cast<long long>(crypto::MinWiseHash::kMul2));
  // Each group of eight samplers keeps its state in registers for the whole
  // span; the last group masks off the lanes past l2.
  for (std::size_t base = 0; base < l2; base += 8) {
    const auto live = static_cast<__mmask8>(0xFFu >> (8 - std::min<std::size_t>(8, l2 - base)));
    const __m512i seed = _mm512_maskz_loadu_epi64(live, seeds + base);
    __m512i held = _mm512_maskz_loadu_epi64(live, hashes + base);
    __m256i sample = _mm256_maskz_loadu_epi32(live, samples + base);
    for (const NodeId id : ids) {
      __m512i x = _mm512_xor_si512(
          _mm512_set1_epi64(static_cast<long long>(id.value + crypto::MinWiseHash::kOffset)),
          seed);
      x = fold33(_mm512_mullo_epi64(fold33(x), mul1));
      x = fold33(_mm512_mullo_epi64(x, mul2));
      // The <= rule (sampler.hpp): ties only with the held ID, or with an
      // empty sampler's ~0, which must take the ID.
      const __mmask8 take = _mm512_cmple_epu64_mask(x, held);
      held = _mm512_mask_mov_epi64(held, take, x);
      sample = _mm256_mask_mov_epi32(sample, take, _mm256_set1_epi32(static_cast<int>(id.value)));
    }
    _mm512_mask_storeu_epi64(hashes + base, live, held);
    _mm256_mask_storeu_epi32(samples + base, live, sample);
  }
}

bool cpu_has_avx512() {
  // __builtin_cpu_supports reports AVX-512 only when XCR0 shows the OS
  // saves the opmask and ZMM state, not merely when CPUID lists it.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}

}  // namespace

SamplerFeedKernel sampler_feed_avx512_kernel() {
  return cpu_has_avx512() ? &feed_avx512 : nullptr;
}

}  // namespace raptee::brahms::detail

#else

namespace raptee::brahms::detail {

SamplerFeedKernel sampler_feed_avx512_kernel() { return nullptr; }

}  // namespace raptee::brahms::detail

#endif
