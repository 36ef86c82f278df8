#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace raptee {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(42);
  const auto first = a.next();
  a.next();
  a.reseed(42);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
  Rng a(7);
  Rng child = a.fork(1);
  const auto child_first = child.next();
  // Recreate: the fork draws one value from the parent.
  Rng b(7);
  (void)b.next();
  Rng child2 = Rng(mix64(Rng(7).next(), 1));
  EXPECT_EQ(child_first, child2.next());
}

TEST(Rng, BelowIsInRange) {
  Rng r(99);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng r(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowZeroAsserts) {
  Rng r(5);
  EXPECT_THROW((void)r.below(0), AssertionError);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(2024);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBuckets)];
  for (auto c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 0.05 * kDraws / kBuckets);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BetweenBadRangeAsserts) {
  Rng r(3);
  EXPECT_THROW((void)r.between(4, 3), AssertionError);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng r(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-1.0));
    EXPECT_TRUE(r.chance(2.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(31);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(555);
  double sum = 0, sum_sq = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = r.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng r(556);
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(77);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto copy = v;
  r.shuffle(copy);
  EXPECT_NE(copy, v);  // astronomically unlikely to be identity
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, ShuffleEmptyAndSingle) {
  Rng r(78);
  std::vector<int> empty;
  r.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  r.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, PickFromEmptyAsserts) {
  Rng r(79);
  std::vector<int> empty;
  EXPECT_THROW((void)r.pick(empty), AssertionError);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng r(80);
  for (std::size_t n : {5u, 20u, 100u}) {
    for (std::size_t k : {0u, 1u, 3u, 5u}) {
      const auto idx = r.sample_indices(n, k);
      EXPECT_EQ(idx.size(), std::min(n, k));
      std::set<std::size_t> uniq(idx.begin(), idx.end());
      EXPECT_EQ(uniq.size(), idx.size());
      for (auto i : idx) EXPECT_LT(i, n);
    }
  }
}

TEST(Rng, SampleIndicesAllWhenKExceedsN) {
  Rng r(81);
  const auto idx = r.sample_indices(7, 100);
  EXPECT_EQ(idx.size(), 7u);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 7u);
}

TEST(Rng, SampleIndicesFollowFloydDrawForDraw) {
  // Floyd's algorithm with a linear membership scan, the reference: every
  // population size, below and above the one where membership switches to
  // a stack bitset, must give the same indices and leave the stream at the
  // same position.
  const auto floyd = [](Rng& rng, std::size_t n, std::size_t k) {
    std::vector<std::size_t> out;
    for (std::size_t j = n - k; j < n; ++j) {
      const auto t = static_cast<std::size_t>(rng.below(j + 1));
      out.push_back(std::find(out.begin(), out.end(), t) == out.end() ? t : j);
    }
    rng.shuffle(out);
    return out;
  };
  std::vector<std::size_t> out;
  for (const std::size_t n : {2u, 63u, 64u, 65u, 1000u, 4095u, 4096u, 4097u, 10000u}) {
    for (const std::size_t k : {1u, 2u, 40u, 63u}) {
      if (k >= n) continue;
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng drawn(seed * 7919 + n), reference(seed * 7919 + n);
        drawn.sample_indices_into(n, k, out);
        EXPECT_EQ(out, floyd(reference, n, k)) << "n " << n << ", k " << k;
        EXPECT_EQ(drawn.next(), reference.next()) << "n " << n << ", k " << k;
      }
    }
  }
}

TEST(Rng, StateContinuesTheStream) {
  Rng original(83);
  for (int i = 0; i < 10; ++i) (void)original.next();
  Rng copy(original.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(copy.next(), original.next());
  // A cached normal deviate would be lost with the state.
  (void)original.normal();
  EXPECT_THROW((void)original.state(), AssertionError);
}

TEST(Rng, SampleIsUniformSubset) {
  // Each element of [0, 10) should appear in a 5-subset with p = 0.5.
  Rng r(82);
  std::vector<int> pop(10);
  for (int i = 0; i < 10; ++i) pop[i] = i;
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    for (int x : r.sample(pop, 5)) ++counts[x];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.5, 0.03);
  }
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

TEST(Mix64, SensitiveToBothInputs) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_NE(mix64(1, 2), mix64(1, 3));
  EXPECT_EQ(mix64(5, 9), mix64(5, 9));
}

class RngBoundParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundParam, LemireUnbiasedAcrossBounds) {
  // Mean of uniform [0, b) should be ~ (b-1)/2.
  Rng r(GetParam() * 31 + 7);
  const std::uint64_t b = GetParam();
  double sum = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(r.below(b));
  const double expected = static_cast<double>(b - 1) / 2.0;
  EXPECT_NEAR(sum / kDraws, expected, std::max(0.05 * expected, 0.5));
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundParam,
                         ::testing::Values(2, 3, 7, 10, 100, 1000, 65536));

TEST(Rng, PickSingleElementNeedsNoRandomness) {
  Rng r(90);
  std::vector<int> one{7};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.pick(one), 7);
}

TEST(Rng, PickCoversAllElements) {
  Rng r(91);
  std::vector<int> v{0, 1, 2, 3};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.pick(v));
  EXPECT_EQ(seen.size(), v.size());
}

TEST(Rng, SampleIndicesZeroPopulation) {
  Rng r(92);
  EXPECT_TRUE(r.sample_indices(0, 0).empty());
  EXPECT_TRUE(r.sample_indices(0, 5).empty());
}

TEST(Rng, SampleFromEmptyVector) {
  Rng r(93);
  const std::vector<int> empty;
  EXPECT_TRUE(r.sample(empty, 0).empty());
  EXPECT_TRUE(r.sample(empty, 3).empty());
}

TEST(Rng, BelowHugeBoundExercisesRejectionPath) {
  // bound > 2^63 makes Lemire's rejection threshold (2^64 mod bound) huge,
  // so the retry loop actually runs; results must still be in range.
  Rng r(94);
  const std::uint64_t bound = (1ull << 63) + 1;
  for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
}

TEST(Rng, BelowMaxBound) {
  Rng r(95);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(r.below(~0ull), ~0ull);
  }
}

TEST(Rng, ForkDifferentSaltsDiverge) {
  Rng parent(96);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

// --- splittable (label/index) forks: the exec-subsystem contract ---

TEST(Rng, SplittableForkIsDeterministicAndOrderIndependent) {
  const Rng parent(97);  // const: fork(label)/split must not need mutation
  Rng a1 = parent.fork("push-phase");
  Rng b1 = parent.fork("bootstrap");
  // Deriving again — in the opposite order — yields the same streams.
  Rng b2 = parent.fork("bootstrap");
  Rng a2 = parent.fork("push-phase");
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a1.next(), a2.next());
    EXPECT_EQ(b1.next(), b2.next());
  }
}

TEST(Rng, SplittableForkDoesNotAdvanceTheParent) {
  Rng parent(98);
  Rng witness(98);
  (void)parent.fork("anything");
  (void)parent.split(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(parent.next(), witness.next());
}

TEST(Rng, SplittableForkDistinctLabelsDiverge) {
  const Rng parent(99);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitDistinctIndicesDiverge) {
  const Rng parent(100);
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t i = 0; i < 128; ++i) {
    Rng child = parent.split(i);
    first_draws.insert(child.next());
  }
  EXPECT_EQ(first_draws.size(), 128u);
}

TEST(Rng, SplittableForkDependsOnParentState) {
  Rng parent(101);
  Rng before = parent.fork("label");
  (void)parent.next();  // advance the parent stream
  Rng after = parent.fork("label");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (before.next() == after.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplittableForkDistinguishesParentSeeds) {
  Rng a = Rng(102).fork("x");
  Rng b = Rng(103).fork("x");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace raptee
