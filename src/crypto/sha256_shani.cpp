// SHA-256 on the x86 SHA extensions: the bulk compression kernel and the
// two fixed-shape HMAC kernels. Every kernel carries a function-level
// target attribute, so the file builds with the project's ordinary flags;
// the getters hand a kernel out only when CPUID reports the extensions it
// needs. All of them run one register-resident block function: the state
// as ABEF/CDGH in two registers, the sixteen message words in four.
#include "crypto/hmac_kernel.hpp"
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

/// Swaps the bytes of each 32-bit lane: big-endian bytes to message words.
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i bswap32x4(__m128i v) {
  return _mm_shuffle_epi8(v, _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL));
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

/// A state as the round instruction holds it: the halves ABEF and CDGH.
struct Halves {
  __m128i abef;
  __m128i cdgh;
};

/// Eight state or message words in order: the first four in `lo`, the
/// rest in `hi`, each quad's first word in the lowest lane.
struct Words {
  __m128i lo;
  __m128i hi;
};

/// Compresses the block W[0..15] into `state`. Quad `wq` holds
/// W[4q..4q+3], W[4q] in the lowest lane.
__attribute__((target("sha,sse4.1,ssse3"))) inline void compress_block(
    Halves& state, __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const Halves in = state;
  rounds4(state.abef, state.cdgh, w0, 0);
  rounds4(state.abef, state.cdgh, w1, 1);
  rounds4(state.abef, state.cdgh, w2, 2);
  rounds4(state.abef, state.cdgh, w3, 3);
  for (int g = 4; g < 16; g += 4) {
    w0 = schedule(w0, w1, w2, w3);
    rounds4(state.abef, state.cdgh, w0, g);
    w1 = schedule(w1, w2, w3, w0);
    rounds4(state.abef, state.cdgh, w1, g + 1);
    w2 = schedule(w2, w3, w0, w1);
    rounds4(state.abef, state.cdgh, w2, g + 2);
    w3 = schedule(w3, w0, w1, w2);
    rounds4(state.abef, state.cdgh, w3, g + 3);
  }
  state.abef = _mm_add_epi32(state.abef, in.abef);
  state.cdgh = _mm_add_epi32(state.cdgh, in.cdgh);
}

/// A chaining value as the round instruction holds it.
__attribute__((target("sha,sse4.1,ssse3"))) inline Halves load_state(
    const Sha256::State& state) {
  const __m128i cdab = _mm_shuffle_epi32(load128(&state[0]), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(load128(&state[4]), 0x1B);
  return {_mm_alignr_epi8(cdab, efgh, 8), _mm_blend_epi16(efgh, cdab, 0xF0)};
}

/// The state's words A..H in order: the chaining value's layout, and the
/// digest's words as the message words of a block that hashes it.
__attribute__((target("sha,sse4.1,ssse3"))) inline Words state_words(const Halves& state) {
  const __m128i feba = _mm_shuffle_epi32(state.abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(state.cdgh, 0xB1);
  return {_mm_blend_epi16(feba, dchg, 0xF0), _mm_alignr_epi8(dchg, feba, 8)};
}

__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(Sha256::State& state,
                                                                const std::uint8_t* data,
                                                                std::size_t blocks) {
  Halves halves = load_state(state);
  for (; blocks > 0; --blocks, data += 64) {
    compress_block(halves, bswap32x4(load128(data)), bswap32x4(load128(data + 16)),
                   bswap32x4(load128(data + 32)), bswap32x4(load128(data + 48)));
  }
  const Words words = state_words(halves);
  store128(&state[0], words.lo);
  store128(&state[4], words.hi);
}

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}

#if defined(__x86_64__)

/// The pad word: the 0x80 byte that follows a message, opening a word.
constexpr int kPadWord = static_cast<int>(0x80000000u);

/// The outer hash of an HMAC over the inner digest `inner`: one block of
/// the 32 digest bytes, the pad word and the bit length of the opad block
/// and the digest, 768. Only the result leaves the registers.
__attribute__((target("sha,sse4.1,ssse3"))) inline Digest256 outer_digest(
    const Sha256::State& outer, const Halves& inner) {
  const Words digest = state_words(inner);
  Halves state = load_state(outer);
  compress_block(state, digest.lo, digest.hi, _mm_cvtsi32_si128(kPadWord),
                 _mm_set_epi32(768, 0, 0, 0));
  const Words mac = state_words(state);
  Digest256 out{};
  store128(&out[0], bswap32x4(mac.lo));
  store128(&out[16], bswap32x4(mac.hi));
  return out;
}

/// HMAC(key, le64(counter)). The inner block: the counter's little-endian
/// bytes as W0 and W1, the pad word W2 and the bit length of the ipad
/// block and the counter, 576, as W15.
__attribute__((target("sha,sse4.1,ssse3"))) Digest256 hmac_counter_shani(
    const Sha256::State& inner, const Sha256::State& outer, std::uint64_t counter) {
  const __m128i w0 = _mm_or_si128(bswap32x4(_mm_cvtsi64_si128(static_cast<long long>(counter))),
                                  _mm_set_epi32(0, kPadWord, 0, 0));
  const __m128i zero = _mm_setzero_si128();
  Halves state = load_state(inner);
  compress_block(state, w0, zero, zero, _mm_set_epi32(576, 0, 0, 0));
  return outer_digest(outer, state);
}

/// HMAC(key, tag ‖ first ‖ second). The inner block: the tag word T, the
/// words F0..F3 of `first` and S0..S3 of `second`, the pad word and the
/// bit length of the ipad block and the 36 message bytes, 800:
///   [T F0 F1 F2] [F3 S0 S1 S2] [S3 pad 0 0] [0 0 0 800].
__attribute__((target("sha,sse4.1,ssse3"))) Digest256 hmac_tagged_shani(
    const Sha256::State& inner, const Sha256::State& outer,
    std::span<const std::uint8_t, 4> tag, std::span<const std::uint8_t, 16> first,
    std::span<const std::uint8_t, 16> second) {
  std::uint32_t tag_bytes = 0;
  std::memcpy(&tag_bytes, tag.data(), sizeof tag_bytes);
  // T in the highest lane, where alignr takes it from.
  const __m128i t = _mm_slli_si128(bswap32x4(_mm_cvtsi32_si128(static_cast<int>(tag_bytes))), 12);
  const __m128i f = bswap32x4(load128(first.data()));
  const __m128i s = bswap32x4(load128(second.data()));
  Halves state = load_state(inner);
  compress_block(state, _mm_alignr_epi8(f, t, 12), _mm_alignr_epi8(s, f, 12),
                 _mm_alignr_epi8(_mm_cvtsi32_si128(kPadWord), s, 12),
                 _mm_set_epi32(800, 0, 0, 0));
  return outer_digest(outer, state);
}

#endif

}  // namespace

Sha256Compress sha256_shani_kernel() {
  return cpu_has_sha_extensions() ? &compress_shani : nullptr;
}

#if defined(__x86_64__)

HmacCounter hmac_counter_shani_kernel() {
  return cpu_has_sha_extensions() ? &hmac_counter_shani : nullptr;
}

HmacTagged hmac_tagged_shani_kernel() {
  return cpu_has_sha_extensions() ? &hmac_tagged_shani : nullptr;
}

#else

HmacCounter hmac_counter_shani_kernel() { return nullptr; }
HmacTagged hmac_tagged_shani_kernel() { return nullptr; }

#endif

}  // namespace raptee::crypto::detail

#else

namespace raptee::crypto::detail {

Sha256Compress sha256_shani_kernel() { return nullptr; }
HmacCounter hmac_counter_shani_kernel() { return nullptr; }
HmacTagged hmac_tagged_shani_kernel() { return nullptr; }

}  // namespace raptee::crypto::detail

#endif
