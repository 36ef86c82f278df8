#include "wire/message.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace raptee::wire {
namespace {

crypto::AuthNonce nonce_of(std::uint8_t fill) {
  crypto::AuthNonce n{};
  n.fill(fill);
  return n;
}

crypto::AuthToken token_of(std::uint8_t fill) {
  crypto::AuthToken t{};
  t.fill(fill);
  return t;
}

TEST(Message, PushRoundTrip) {
  const Message m = PushMessage{NodeId{123}};
  const Message decoded = decode(encode(m));
  EXPECT_EQ(std::get<PushMessage>(decoded), std::get<PushMessage>(m));
}

TEST(Message, PullRequestRoundTrip) {
  PullRequest req;
  req.sender = NodeId{7};
  req.challenge.r_a = nonce_of(0x42);
  const Message decoded = decode(encode(Message{req}));
  EXPECT_EQ(std::get<PullRequest>(decoded), req);
}

TEST(Message, PullReplyRoundTrip) {
  PullReply reply;
  reply.sender = NodeId{9};
  reply.auth.r_b = nonce_of(0x11);
  reply.auth.proof_b = token_of(0x22);
  reply.view = {NodeId{1}, NodeId{2}, NodeId{3}};
  const Message decoded = decode(encode(Message{reply}));
  EXPECT_EQ(std::get<PullReply>(decoded), reply);
}

TEST(Message, PullReplyEmptyView) {
  PullReply reply;
  reply.sender = NodeId{9};
  const Message decoded = decode(encode(Message{reply}));
  EXPECT_TRUE(std::get<PullReply>(decoded).view.empty());
}

TEST(Message, AuthConfirmWithoutOffer) {
  AuthConfirm c;
  c.sender = NodeId{5};
  c.confirm.proof_a = token_of(0x77);
  const Message decoded = decode(encode(Message{c}));
  const auto& out = std::get<AuthConfirm>(decoded);
  EXPECT_EQ(out, c);
  EXPECT_FALSE(out.swap_offer.has_value());
}

TEST(Message, AuthConfirmWithOffer) {
  AuthConfirm c;
  c.sender = NodeId{5};
  c.confirm.proof_a = token_of(0x77);
  c.swap_offer = std::vector<NodeId>{NodeId{10}, NodeId{20}};
  const Message decoded = decode(encode(Message{c}));
  EXPECT_EQ(std::get<AuthConfirm>(decoded), c);
}

TEST(Message, AuthConfirmEmptyOfferIsPreserved) {
  AuthConfirm c;
  c.sender = NodeId{5};
  c.swap_offer = std::vector<NodeId>{};
  const Message decoded = decode(encode(Message{c}));
  const auto& out = std::get<AuthConfirm>(decoded);
  ASSERT_TRUE(out.swap_offer.has_value());
  EXPECT_TRUE(out.swap_offer->empty());
}

TEST(Message, SwapReplyRoundTrip) {
  SwapReply s;
  s.sender = NodeId{3};
  s.swap_half = {NodeId{4}, NodeId{5}};
  const Message decoded = decode(encode(Message{s}));
  EXPECT_EQ(std::get<SwapReply>(decoded), s);
}

TEST(Message, TypeTagsAreStable) {
  EXPECT_EQ(type_of(Message{PushMessage{}}), MsgType::kPush);
  EXPECT_EQ(type_of(Message{PullRequest{}}), MsgType::kPullRequest);
  EXPECT_EQ(type_of(Message{PullReply{}}), MsgType::kPullReply);
  EXPECT_EQ(type_of(Message{AuthConfirm{}}), MsgType::kAuthConfirm);
  EXPECT_EQ(type_of(Message{SwapReply{}}), MsgType::kSwapReply);
}

TEST(Message, UnknownTypeRejected) {
  std::vector<std::uint8_t> bytes{0x7F, 0, 0, 0, 0};
  EXPECT_THROW((void)decode(bytes), WireError);
}

TEST(Message, EmptyInputRejected) {
  EXPECT_THROW((void)decode(std::vector<std::uint8_t>{}), WireError);
}

TEST(Message, TrailingGarbageRejected) {
  auto bytes = encode(Message{PushMessage{NodeId{1}}});
  bytes.push_back(0xAA);
  EXPECT_THROW((void)decode(bytes), WireError);
}

TEST(Message, TruncatedPayloadRejected) {
  auto bytes = encode(Message{PullReply{NodeId{1}, {}, {NodeId{2}, NodeId{3}}}});
  bytes.erase(bytes.end() - 3, bytes.end());
  EXPECT_THROW((void)decode(bytes), WireError);
}

TEST(Message, InvalidSwapOfferFlagRejected) {
  AuthConfirm c;
  c.sender = NodeId{1};
  auto bytes = encode(Message{c});
  // The flag byte is the last byte for an offer-less confirm.
  bytes.back() = 0x02;
  EXPECT_THROW((void)decode(bytes), WireError);
}

TEST(Message, FuzzedBytesNeverCrash) {
  // Property: arbitrary bytes either decode to a message or throw WireError —
  // never UB or unbounded allocation (a Byzantine sender controls this input).
  Rng rng(0xF0221E5);
  int decoded_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    // Bias the type tag toward valid values so deeper paths get fuzzed too.
    if (!bytes.empty() && rng.chance(0.7)) {
      bytes[0] = static_cast<std::uint8_t>(1 + rng.below(5));
    }
    try {
      (void)decode(bytes);
      ++decoded_ok;
    } catch (const WireError&) {
      // expected for malformed input
    }
  }
  // Some random inputs should decode (e.g. short pushes); most should not.
  EXPECT_GT(decoded_ok, 0);
}

TEST(Message, EncodedSizeIsCompact) {
  PullReply reply;
  reply.sender = NodeId{1};
  reply.view.assign(100, NodeId{7});
  const auto bytes = encode(Message{reply});
  // 1 tag + 4 sender + 16 rB + 32 proof + ~2 varint + 400 ids.
  EXPECT_LE(bytes.size(), 1 + 4 + 16 + 32 + 3 + 400u);
}

}  // namespace
}  // namespace raptee::wire
