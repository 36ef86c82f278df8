// Brahms sampling component: min-wise uniformity, order/duplication
// insensitivity, churn validation, and the per-round feed dedup.
#include "brahms/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace raptee::brahms {
namespace {

TEST(Sampler, HoldsMinHashElement) {
  Sampler s(42);
  EXPECT_FALSE(s.holds_sample());
  EXPECT_EQ(s.sample(), kNoNode);
  for (std::uint32_t i = 0; i < 100; ++i) s.next(NodeId{i});
  EXPECT_TRUE(s.holds_sample());
  // Recompute the argmin independently.
  crypto::MinWiseHash h(42);
  NodeId expected = kNoNode;
  std::uint64_t best = ~0ull;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (h(NodeId{i}) < best) {
      best = h(NodeId{i});
      expected = NodeId{i};
    }
  }
  EXPECT_EQ(s.sample(), expected);
}

TEST(Sampler, OrderInsensitive) {
  std::vector<NodeId> stream;
  for (std::uint32_t i = 0; i < 50; ++i) stream.emplace_back(i * 3 + 1);
  Sampler forward(7), backward(7);
  for (NodeId id : stream) forward.next(id);
  std::reverse(stream.begin(), stream.end());
  for (NodeId id : stream) backward.next(id);
  EXPECT_EQ(forward.sample(), backward.sample());
}

TEST(Sampler, DuplicationInsensitive) {
  Sampler once(9), many(9);
  for (std::uint32_t i = 0; i < 20; ++i) {
    once.next(NodeId{i});
    for (int rep = 0; rep < 10; ++rep) many.next(NodeId{i});
  }
  EXPECT_EQ(once.sample(), many.sample());
}

TEST(Sampler, ReinitForgetsAndRedraws) {
  Sampler s(1);
  s.next(NodeId{5});
  EXPECT_TRUE(s.holds_sample());
  s.reinit(2);
  EXPECT_FALSE(s.holds_sample());
  s.next(NodeId{6});
  EXPECT_EQ(s.sample(), NodeId{6});
}

TEST(SamplerArray, SizeAndIndependentSeeds) {
  Rng rng(3);
  SamplerArray arr(32, rng);
  EXPECT_EQ(arr.size(), 32u);
  for (std::uint32_t i = 0; i < 200; ++i) arr.feed(NodeId{i});
  // Independent hash functions: the samplers should not all agree.
  std::set<std::uint32_t> distinct;
  for (std::size_t i = 0; i < arr.size(); ++i) distinct.insert(arr.sample(i).value);
  EXPECT_GT(distinct.size(), 5u);
}

TEST(SamplerArray, SampleListIsSortedUnique) {
  Rng rng(4);
  SamplerArray arr(16, rng);
  for (std::uint32_t i = 0; i < 50; ++i) arr.feed(NodeId{i});
  const auto list = arr.sample_list();
  EXPECT_FALSE(list.empty());
  EXPECT_LE(list.size(), 16u);
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  EXPECT_EQ(std::adjacent_find(list.begin(), list.end()), list.end());
}

TEST(SamplerArray, HistorySampleBounded) {
  Rng rng(5);
  SamplerArray arr(16, rng);
  for (std::uint32_t i = 0; i < 100; ++i) arr.feed(NodeId{i});
  std::vector<NodeId> hist;
  std::vector<std::size_t> indices;
  arr.history_sample(4, rng, hist, indices);
  EXPECT_EQ(hist.size(), 4u);
  std::set<std::uint32_t> uniq;
  for (NodeId id : hist) uniq.insert(id.value);
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(SamplerArray, HistorySampleDrawsLikeSamplingTheSampleList) {
  // The scratch-filling form makes rng.sample(sample_list(), k)'s draws:
  // the same IDs in the same order, and the stream left at the same state.
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{40}}) {
    Rng seeder(50 + k);
    SamplerArray arr(16, seeder);
    for (std::uint32_t i = 0; i < 30; ++i) arr.feed(NodeId{i * 7});
    Rng reference(k), scratch_rng(k);
    const std::vector<NodeId> expected = reference.sample(arr.sample_list(), k);
    std::vector<NodeId> hist{NodeId{999}};  // stale contents are replaced
    std::vector<std::size_t> indices;
    arr.history_sample(k, scratch_rng, hist, indices);
    EXPECT_EQ(hist, expected) << "k=" << k;
    EXPECT_EQ(scratch_rng.next(), reference.next()) << "k=" << k;
  }
}

TEST(SamplerArray, ValidateReinitializesDeadSamples) {
  Rng rng(6);
  SamplerArray arr(32, rng);
  for (std::uint32_t i = 0; i < 10; ++i) arr.feed(NodeId{i});
  // Declare ids < 5 dead.
  const auto dead_below_5 = [](NodeId id) { return id.value >= 5; };
  const std::size_t reinitialized = arr.validate(dead_below_5, rng);
  EXPECT_GT(reinitialized, 0u);
  for (NodeId id : arr.sample_list()) EXPECT_GE(id.value, 5u);
}

TEST(SamplerArray, ValidateKeepsAliveSamples) {
  Rng rng(7);
  SamplerArray arr(8, rng);
  arr.feed(NodeId{3});
  const auto all_alive = [](NodeId) { return true; };
  EXPECT_EQ(arr.validate(all_alive, rng), 0u);
  EXPECT_EQ(arr.sample_list(), std::vector<NodeId>{NodeId{3}});
}

TEST(SamplerArray, ConvergesToUniformOverAdversarialStream) {
  // The defining Brahms property: even if the adversary over-represents its
  // IDs in the stream 100:1, each sampler still converges to a uniform
  // choice over the *distinct* IDs.
  constexpr std::uint32_t kCorrect = 40;
  constexpr std::uint32_t kByzantine = 10;  // ids 1000..1009
  constexpr int kRounds = 30;
  Rng rng(8);
  std::vector<int> byz_share;
  for (int trial = 0; trial < 60; ++trial) {
    SamplerArray arr(20, rng);
    for (int round = 0; round < kRounds; ++round) {
      for (std::uint32_t i = 0; i < kCorrect; ++i) arr.feed(NodeId{i});
      for (int rep = 0; rep < 100; ++rep) {
        for (std::uint32_t b = 0; b < kByzantine; ++b) arr.feed(NodeId{1000 + b});
      }
    }
    int byz = 0;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (arr.sample(i).value >= 1000) ++byz;
    }
    byz_share.push_back(byz);
  }
  double mean = 0;
  for (int b : byz_share) mean += b;
  mean /= static_cast<double>(byz_share.size() * 20);
  // Uniform over 50 distinct ids -> byz share == 10/50 == 0.2, despite the
  // 100x multiplicity. Allow a loose statistical band.
  EXPECT_NEAR(mean, 0.2, 0.05);
}

class SamplerFeedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

/// l2 independent Samplers seeded as SamplerArray(l2, rng) seeds its own:
/// the reference the array's kernel is held against.
std::vector<Sampler> reference_samplers(std::size_t l2, Rng& rng) {
  std::vector<Sampler> samplers;
  for (std::size_t i = 0; i < l2; ++i) samplers.emplace_back(rng.next());
  return samplers;
}

/// A round's raw stream, as end_round receives it: pushes and pull answers
/// repeating IDs, the node's own ID, kNoNode, and IDs near 2^32 of the kind
/// a tampered leg delivers.
std::vector<NodeId> raw_round_stream(NodeId self, Rng& rng) {
  std::vector<NodeId> stream;
  const std::size_t length = 200 + static_cast<std::size_t>(rng.below(400));
  for (std::size_t i = 0; i < length; ++i) {
    const auto draw = static_cast<std::uint32_t>(rng.below(120));
    switch (rng.below(8)) {
      case 0: stream.push_back(self); break;
      case 1: stream.push_back(kNoNode); break;
      case 2: stream.emplace_back(NodeId::kInvalid - 1 - draw); break;
      case 3:
        if (!stream.empty()) {
          const NodeId repeat = rng.pick(stream);
          stream.push_back(repeat);
        }
        break;
      default: stream.emplace_back(draw); break;
    }
  }
  return stream;
}

TEST_P(SamplerFeedEquivalence, DedupedFeedMatchesRawStream) {
  // The raw stream goes through l2 separate Samplers, skipping self and
  // kNoNode as the feed always has; SamplerFeed into a SamplerArray must
  // leave every sampler in the same state, for the stream and for any
  // order of it.
  const NodeId self{17};
  Rng rng(GetParam());
  std::vector<NodeId> stream = raw_round_stream(self, rng);

  const std::uint64_t array_seed = rng.next();
  Rng raw_seed(array_seed), fed_seed(array_seed), shuffled_seed(array_seed);
  std::vector<Sampler> raw = reference_samplers(24, raw_seed);
  SamplerArray fed(24, fed_seed), shuffled(24, shuffled_seed);
  for (NodeId id : stream) {
    if (id != self && id.valid()) {
      for (Sampler& s : raw) s.next(id);
    }
  }

  // One feed serves both rounds, as one per worker serves every node: the
  // first is sized far too small, so its table grows mid-round.
  SamplerFeed feed;
  feed.reset(self, 4);
  for (NodeId id : stream) feed.add(id);
  std::set<std::uint32_t> distinct;
  for (NodeId id : feed.ids()) {
    EXPECT_NE(id, self);
    EXPECT_TRUE(id.valid());
    EXPECT_TRUE(distinct.insert(id.value).second) << "fed twice: " << id.value;
  }
  fed.feed_all(feed.ids());

  rng.shuffle(stream);
  feed.reset(self, stream.size());
  for (NodeId id : stream) feed.add(id);
  EXPECT_EQ(feed.ids().size(), distinct.size());
  shuffled.feed_all(feed.ids());

  std::vector<NodeId> raw_list;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(fed.sample(i), raw[i].sample()) << "sampler " << i;
    EXPECT_EQ(shuffled.sample(i), raw[i].sample()) << "sampler " << i;
    if (raw[i].holds_sample()) raw_list.push_back(raw[i].sample());
  }
  std::sort(raw_list.begin(), raw_list.end());
  raw_list.erase(std::unique(raw_list.begin(), raw_list.end()), raw_list.end());
  EXPECT_EQ(fed.sample_list(), raw_list);
}

TEST_P(SamplerFeedEquivalence, ValidateMidStreamMatchesReinitializedSamplers) {
  // validate() re-initializes some samplers between two rounds' feeds; the
  // second round then reaches empty samplers, which must take the first ID
  // they see (the empty half of the <= rule), on whichever kernel this
  // process runs.
  const NodeId self{17};
  Rng rng(GetParam());
  const std::uint64_t array_seed = rng.next();
  Rng raw_seed(array_seed), fed_seed(array_seed);
  std::vector<Sampler> raw = reference_samplers(20, raw_seed);
  SamplerArray fed(20, fed_seed);

  const auto feed_round = [&] {
    const std::vector<NodeId> stream = raw_round_stream(self, rng);
    SamplerFeed feed;
    feed.reset(self, stream.size());
    for (NodeId id : stream) {
      feed.add(id);
      if (id != self && id.valid()) {
        for (Sampler& s : raw) s.next(id);
      }
    }
    fed.feed_all(feed.ids());
  };

  feed_round();
  // Samples below 60 count as departed; the reference re-draws its seeds
  // from a stream in the same state, in sampler order.
  const auto alive = [](NodeId id) { return id.value >= 60; };
  Rng validate_rng(GetParam() + 1000), reference_rng(GetParam() + 1000);
  std::size_t expected_reinits = 0;
  for (Sampler& s : raw) {
    if (s.holds_sample() && !alive(s.sample())) {
      s.reinit(reference_rng.next());
      ++expected_reinits;
    }
  }
  EXPECT_EQ(fed.validate(alive, validate_rng), expected_reinits);
  EXPECT_GT(expected_reinits, 0u);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(fed.sample(i), raw[i].sample()) << "after validate, sampler " << i;
  }

  feed_round();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(fed.sample(i), raw[i].sample()) << "sampler " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerFeedEquivalence, ::testing::Range<std::uint64_t>(1, 21));

class SamplerSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplerSeedSweep, ArgminUniformity) {
  // Each of the 8 ids should win the sampler with roughly equal frequency
  // across independent sampler seeds.
  Rng seeder(GetParam());
  std::vector<int> wins(8, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    Sampler s(seeder.next());
    for (std::uint32_t i = 0; i < 8; ++i) s.next(NodeId{i});
    ++wins[s.sample().value];
  }
  for (int w : wins) EXPECT_NEAR(w, 500, 120);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerSeedSweep, ::testing::Values(1, 99, 12345));

}  // namespace
}  // namespace raptee::brahms
