// wire::LinkTable contract: one persistent session per unordered pair with
// sequence-number continuity across exchanges, O(1) invalidation on churn
// with fresh keys on re-establishment, and idle retirement.
#include "wire/link_session.hpp"

#include <gtest/gtest.h>

#include "crypto/key.hpp"

namespace raptee::wire {
namespace {

crypto::SymmetricKey master() {
  crypto::Drbg drbg(42, "link-session-test");
  return drbg.generate_key();
}

const NodeId kA{3};
const NodeId kB{7};
const NodeId kC{9};

TEST(LinkTable, CachesOneSessionPerPairAcrossCalls) {
  LinkTable table(master());
  LinkSession& first = table.session(kA, kB, 0);
  LinkSession& again = table.session(kA, kB, 1);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(table.derivations(), 1u);
  EXPECT_EQ(table.active_sessions(), 1u);
}

TEST(LinkTable, PairIsUnordered) {
  LinkTable table(master());
  LinkSession& ab = table.session(kA, kB, 0);
  LinkSession& ba = table.session(kB, kA, 0);
  EXPECT_EQ(&ab, &ba);
  EXPECT_EQ(table.derivations(), 1u);
}

TEST(LinkTable, DistinctPairsGetDistinctSessions) {
  LinkTable table(master());
  (void)table.session(kA, kB, 0);
  (void)table.session(kA, kC, 0);
  EXPECT_EQ(table.derivations(), 2u);
  EXPECT_EQ(table.active_sessions(), 2u);
}

TEST(LinkTable, SequenceNumbersContinueAcrossExchanges) {
  LinkTable table(master());
  const std::vector<std::uint8_t> leg{1, 2, 3, 4};

  // Two "exchanges": the session persists, so the channel's sequence
  // numbers keep counting instead of resetting to zero.
  for (int exchange = 0; exchange < 2; ++exchange) {
    LinkSession& session = table.session(kA, kB, exchange);
    LinkCipher& channel = session.channel_from(kA);
    const auto frame = channel.seal(leg);
    const auto opened = channel.open(frame);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, leg);
  }
  LinkSession& session = table.session(kA, kB, 2);
  EXPECT_EQ(session.channel_from(kA).sent(), 2u);
  EXPECT_EQ(session.channel_from(kA).received(), 2u);
  EXPECT_EQ(table.derivations(), 1u) << "continuity must not re-derive";
}

TEST(LinkTable, ChannelsAreDirectional) {
  LinkTable table(master());
  LinkSession& session = table.session(kA, kB, 0);
  EXPECT_NE(&session.channel_from(kA), &session.channel_from(kB));

  // A frame sealed on the A->B channel must not open on B->A (distinct
  // direction subkeys — no keystream reuse across the duplex pair).
  const auto frame = session.channel_from(kA).seal({9, 9, 9});
  EXPECT_FALSE(session.channel_from(kB).open(frame).has_value());
}

TEST(LinkTable, InvalidateRekeysEverySessionOfTheNode) {
  LinkTable table(master());
  LinkSession& ab = table.session(kA, kB, 0);
  const auto old_frame = ab.channel_from(kA).seal({5, 5});
  (void)table.session(kA, kC, 0);
  ASSERT_EQ(table.derivations(), 2u);

  table.invalidate(kA);
  LinkSession& ab2 = table.session(kA, kB, 1);
  // Fresh key and fresh sequence state: the old frame (sealed under the
  // previous establishment) must not authenticate.
  EXPECT_EQ(ab2.channel_from(kA).sent(), 0u);
  std::vector<std::uint8_t> opened;
  EXPECT_FALSE(
      ab2.channel_from(kA).open_into(old_frame.data(), old_frame.size(), opened));
  EXPECT_EQ(table.derivations(), 3u);
  (void)table.session(kA, kC, 1);
  EXPECT_EQ(table.derivations(), 4u) << "both of A's sessions must rekey";
}

TEST(LinkTable, InvalidatePairLeavesOtherPairsCached) {
  LinkTable table(master());
  (void)table.session(kA, kB, 0);
  (void)table.session(kA, kC, 0);
  table.invalidate_pair(kA, kB);
  EXPECT_EQ(table.active_sessions(), 1u);
  (void)table.session(kA, kC, 1);
  EXPECT_EQ(table.derivations(), 2u) << "the untouched pair must stay cached";
  (void)table.session(kA, kB, 1);
  EXPECT_EQ(table.derivations(), 3u);
}

TEST(LinkTable, RetireIdleDropsOnlyStaleSessions) {
  LinkTable table(master());
  (void)table.session(kA, kB, 0);
  (void)table.session(kA, kC, 90);
  table.retire_idle(100, 64);
  EXPECT_EQ(table.active_sessions(), 1u);
  (void)table.session(kA, kC, 100);
  EXPECT_EQ(table.derivations(), 2u) << "recently used pair survives";
  (void)table.session(kA, kB, 100);
  EXPECT_EQ(table.derivations(), 3u) << "retired pair re-derives";
}

TEST(LinkTable, ReestablishedSessionsNeverReuseAKeystream) {
  LinkTable table(master());
  const std::vector<std::uint8_t> leg{1, 1, 1, 1, 1, 1, 1, 1};
  const auto frame1 = table.session(kA, kB, 0).channel_from(kA).seal(leg);
  table.invalidate_pair(kA, kB);
  const auto frame2 = table.session(kA, kB, 0).channel_from(kA).seal(leg);
  // Same plaintext, same sequence number (0), same direction — but a fresh
  // establishment-uniquified key, so the ciphertext bytes must differ.
  ASSERT_EQ(frame1.size(), frame2.size());
  EXPECT_NE(frame1, frame2);
}

}  // namespace
}  // namespace raptee::wire
