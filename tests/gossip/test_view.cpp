#include "gossip/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace raptee::gossip {
namespace {

TEST(PartialView, InsertRespectsCapacity) {
  PartialView v(3);
  EXPECT_TRUE(v.insert(NodeId{1}));
  EXPECT_TRUE(v.insert(NodeId{2}));
  EXPECT_TRUE(v.insert(NodeId{3}));
  EXPECT_TRUE(v.full());
  EXPECT_FALSE(v.insert(NodeId{4}));
  EXPECT_EQ(v.size(), 3u);
}

TEST(PartialView, DuplicateInsertKeepsFresherAge) {
  PartialView v(4);
  v.insert(NodeId{1}, 5);
  EXPECT_FALSE(v.insert(NodeId{1}, 2));
  EXPECT_EQ(v.entries()[0].age, 2u);
  EXPECT_FALSE(v.insert(NodeId{1}, 9));
  EXPECT_EQ(v.entries()[0].age, 2u);
  EXPECT_EQ(v.size(), 1u);
}

TEST(PartialView, ContainsAndIds) {
  PartialView v(4);
  v.insert(NodeId{10});
  v.insert(NodeId{20});
  EXPECT_TRUE(v.contains(NodeId{10}));
  EXPECT_FALSE(v.contains(NodeId{30}));
  EXPECT_EQ(v.ids(), (std::vector<NodeId>{NodeId{10}, NodeId{20}}));
}

TEST(PartialView, AgeAllIncrements) {
  PartialView v(4);
  v.insert(NodeId{1}, 0);
  v.insert(NodeId{2}, 3);
  v.age_all();
  EXPECT_EQ(v.entries()[0].age, 1u);
  EXPECT_EQ(v.entries()[1].age, 4u);
}

TEST(PartialView, RemoveById) {
  PartialView v(3);
  v.insert(NodeId{1});
  v.insert(NodeId{2});
  EXPECT_TRUE(v.remove(NodeId{1}));
  EXPECT_FALSE(v.remove(NodeId{1}));
  EXPECT_EQ(v.size(), 1u);
}

TEST(PartialView, RemoveOldestH) {
  PartialView v(5);
  for (std::uint32_t i = 0; i < 5; ++i) v.insert(NodeId{i}, i);
  v.remove_oldest(2);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.contains(NodeId{4}));
  EXPECT_FALSE(v.contains(NodeId{3}));
  v.remove_oldest(100);  // clamped
  EXPECT_TRUE(v.empty());
}

TEST(PartialView, RandomAndPickCoverage) {
  Rng rng(2);
  PartialView v(8);
  for (std::uint32_t i = 0; i < 8; ++i) v.insert(NodeId{i});
  std::set<std::uint32_t> seen;
  for (int trial = 0; trial < 400; ++trial) seen.insert(v.pick_id(rng).value);
  EXPECT_EQ(seen.size(), 8u);
}

TEST(PartialView, FrameworkMergeDedupsAndExcludesSelf) {
  Rng rng(5);
  PartialView v(6);
  v.insert(NodeId{1}, 4);
  v.framework_merge({{NodeId{1}, 1}, {NodeId{5}, 0}, {NodeId{7}, 2}}, /*self=*/NodeId{7},
                    /*h=*/0, /*s=*/0, /*sent=*/{}, rng);
  EXPECT_EQ(v.size(), 2u);         // self excluded, 1 deduped
  EXPECT_EQ(v.entries()[0].age, 1u);  // fresher copy of node 1 kept
  EXPECT_TRUE(v.contains(NodeId{5}));
}

TEST(PartialView, FrameworkMergeHealDropsOldest) {
  Rng rng(6);
  PartialView v(3);
  v.insert(NodeId{1}, 9);
  v.insert(NodeId{2}, 8);
  v.insert(NodeId{3}, 1);
  // Merge two new entries into a full view: surplus 2, H=2 drops the two
  // oldest (ids 1 and 2).
  v.framework_merge({{NodeId{4}, 0}, {NodeId{5}, 0}}, NodeId{100}, /*h=*/2, /*s=*/0, {},
                    rng);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.contains(NodeId{1}));
  EXPECT_FALSE(v.contains(NodeId{2}));
  EXPECT_TRUE(v.contains(NodeId{4}));
  EXPECT_TRUE(v.contains(NodeId{5}));
}

TEST(PartialView, FrameworkMergeSwapDropsSentEntries) {
  Rng rng(7);
  PartialView v(3);
  v.insert(NodeId{1}, 0);
  v.insert(NodeId{2}, 0);
  v.insert(NodeId{3}, 0);
  // Surplus 2 with H=0, S=2: the sent entries {1,2} are removed.
  v.framework_merge({{NodeId{4}, 0}, {NodeId{5}, 0}}, NodeId{100}, /*h=*/0, /*s=*/2,
                    /*sent=*/{NodeId{1}, NodeId{2}}, rng);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.contains(NodeId{1}));
  EXPECT_FALSE(v.contains(NodeId{2}));
}

TEST(PartialView, FrameworkMergeRandomFallback) {
  Rng rng(8);
  PartialView v(2);
  v.insert(NodeId{1}, 0);
  v.insert(NodeId{2}, 0);
  // Surplus with H=0, S=0: random removal keeps size at capacity.
  v.framework_merge({{NodeId{3}, 0}, {NodeId{4}, 0}}, NodeId{100}, 0, 0, {}, rng);
  EXPECT_EQ(v.size(), 2u);
}

}  // namespace
}  // namespace raptee::gossip
