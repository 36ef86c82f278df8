// SHA-256 compression on the x86 SHA extensions. The kernel carries a
// function-level target attribute, so the file builds with the project's
// ordinary flags; sha256_shani_kernel() hands it out only when CPUID reports
// the extensions it needs.
#include "crypto/sha256_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <cpuid.h>
#include <immintrin.h>

#include <cstring>

namespace raptee::crypto::detail {

namespace {

__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i load128(const void* src) {
  __m128i v{};
  std::memcpy(&v, src, sizeof v);
  return v;
}

__attribute__((target("sha,sse4.1,ssse3"))) inline void store128(void* dst, __m128i v) {
  std::memcpy(dst, &v, sizeof v);
}

/// Rounds 4g..4g+3 with message words `w` = W[4g..4g+3].
__attribute__((target("sha,sse4.1,ssse3"))) inline void rounds4(__m128i& abef, __m128i& cdgh,
                                                                __m128i w, int g) {
  const __m128i wk = _mm_add_epi32(w, load128(&kSha256K[static_cast<std::size_t>(4 * g)]));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The next four message words from the previous sixteen, oldest quad first.
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i schedule(__m128i w0, __m128i w1,
                                                                    __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(Sha256::State& state,
                                                                const std::uint8_t* data,
                                                                std::size_t blocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // The round instruction works on the halves ABEF and CDGH.
  __m128i tmp = _mm_shuffle_epi32(load128(&state[0]), 0xB1);   // CDAB
  __m128i cdgh = _mm_shuffle_epi32(load128(&state[4]), 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = _mm_shuffle_epi8(load128(data), bswap);
    __m128i w1 = _mm_shuffle_epi8(load128(data + 16), bswap);
    __m128i w2 = _mm_shuffle_epi8(load128(data + 32), bswap);
    __m128i w3 = _mm_shuffle_epi8(load128(data + 48), bswap);
    rounds4(abef, cdgh, w0, 0);
    rounds4(abef, cdgh, w1, 1);
    rounds4(abef, cdgh, w2, 2);
    rounds4(abef, cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, g);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, g + 1);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, g + 2);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  store128(&state[0], _mm_blend_epi16(tmp, cdgh, 0xF0));
  store128(&state[4], _mm_alignr_epi8(cdgh, tmp, 8));
}

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}

}  // namespace

Sha256Compress sha256_shani_kernel() {
  return cpu_has_sha_extensions() ? &compress_shani : nullptr;
}

}  // namespace raptee::crypto::detail

#else

namespace raptee::crypto::detail {

Sha256Compress sha256_shani_kernel() { return nullptr; }

}  // namespace raptee::crypto::detail

#endif
