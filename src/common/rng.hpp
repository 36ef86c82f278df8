// Deterministic random number generation.
//
// Every stochastic decision in the simulator flows through Rng so that a
// (seed, configuration) pair reproduces a run bit-for-bit, across threads:
// each simulation cell owns a private Rng forked from the master seed.
//
// The core generator is xoshiro256**, seeded via splitmix64 (the seeding
// procedure recommended by its authors). It is not cryptographically secure —
// the crypto subsystem has its own DRBG — but it is fast, has 256-bit state,
// and passes BigCrush.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace raptee {

/// splitmix64 step; used for seeding and as a standalone integer mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless strong mix of two 64-bit words (used to derive sub-seeds).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9E3779B97F4A7C15ull);
  return splitmix64(s);
}

/// xoshiro256** deterministic pseudo-random generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xDEADBEEFCAFEF00Dull) { reseed(seed); }

  /// The generator's 256-bit position: Rng(state()) continues this stream
  /// draw for draw. A cached normal deviate is not part of it (asserted).
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] State state() const {
    RAPTEE_ASSERT_MSG(!have_spare_normal_, "Rng::state() with a cached normal deviate");
    return state_;
  }
  explicit Rng(const State& state) : state_(state) {}

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent generator; `salt` distinguishes streams forked
  /// from the same parent (e.g. per-node, per-repetition). Advances this
  /// generator by one step, so successive forks with the same salt differ.
  [[nodiscard]] Rng fork(std::uint64_t salt) {
    return Rng(mix64(next(), salt));
  }

  /// Splittable label-based derivation (SplitMix-style): a child stream is
  /// a pure function of the parent's CURRENT state and `label`, and the
  /// parent is NOT advanced — so any number of tasks may derive their
  /// streams concurrently from a shared parent, in any order, and the
  /// same (parent state, label) pair always yields the same child. This is
  /// what makes the exec subsystem's parallel fan-out reproducible.
  [[nodiscard]] Rng fork(std::string_view label) const;

  /// Two-index variant of the labelled splittable fork: the child is a pure
  /// function of (parent state, label, a, b) and the parent is not advanced.
  /// This keys per-link streams — `fork("evt.link", from, to)` — without
  /// formatting the indices into the label.
  [[nodiscard]] Rng fork(std::string_view label, std::uint64_t a,
                         std::uint64_t b) const;

  /// Indexed variant of the splittable fork for hot paths (per-node streams
  /// in the engine's sharded phases); same contract, no string handling.
  [[nodiscard]] Rng split(std::uint64_t index) const;

  result_type next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  result_type operator()() { return next(); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method (unbiased).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal();

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// In-place Fisher–Yates shuffle.
  template <typename Vec>
  void shuffle(Vec& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Picks one element uniformly; the container must be non-empty.
  template <typename Vec>
  [[nodiscard]] auto& pick(Vec& v) {
    RAPTEE_ASSERT_MSG(!v.empty(), "pick from empty container");
    return v[static_cast<std::size_t>(below(v.size()))];
  }

  /// Samples k distinct indices from [0, n) uniformly (Floyd's algorithm,
  /// O(k) expected). Returns all of [0, n) when k >= n.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);
  /// Scratch-filling form with identical draws: clears and fills `out`
  /// (capacity persists across calls) — the hot-path variant behind the
  /// adversary's per-exchange poisoned answers.
  void sample_indices_into(std::size_t n, std::size_t k, std::vector<std::size_t>& out);

  /// Samples k elements without replacement from `v` (uniform subset, order
  /// randomised). Returns a copy of v shuffled when k >= v.size().
  template <typename T>
  [[nodiscard]] std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> out;
    const auto idx = sample_indices(v.size(), k);
    out.reserve(idx.size());
    for (auto i : idx) out.push_back(v[i]);
    return out;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace raptee
