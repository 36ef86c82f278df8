#include "wire/link_cipher.hpp"

#include <gtest/gtest.h>

#include <string>

namespace raptee::wire {
namespace {

crypto::SymmetricKey test_key(std::uint64_t seed = 1) {
  crypto::Drbg rng(seed);
  return rng.generate_key();
}

TEST(LinkCipher, SealOpenRoundTrip) {
  const auto key = test_key();
  LinkCipher tx(key, 0), rx(key, 0);
  const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  const auto frame = tx.seal(msg);
  const auto opened = rx.open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(LinkCipher, CiphertextHidesPlaintext) {
  const auto key = test_key();
  LinkCipher tx(key, 0);
  const std::vector<std::uint8_t> msg(64, 0x00);
  const auto frame = tx.seal(msg);
  // Body (after the 8-byte seq) must not be all zeros.
  bool nonzero = false;
  for (std::size_t i = 8; i < 8 + msg.size(); ++i) nonzero |= (frame[i] != 0);
  EXPECT_TRUE(nonzero);
}

TEST(LinkCipher, SequenceOfMessages) {
  const auto key = test_key();
  LinkCipher tx(key, 0), rx(key, 0);
  for (int i = 0; i < 20; ++i) {
    const std::vector<std::uint8_t> msg{static_cast<std::uint8_t>(i)};
    const auto opened = rx.open(tx.seal(msg));
    ASSERT_TRUE(opened.has_value()) << "message " << i;
    EXPECT_EQ(*opened, msg);
  }
  EXPECT_EQ(tx.sent(), 20u);
  EXPECT_EQ(rx.received(), 20u);
}

TEST(LinkCipher, TamperedBodyRejected) {
  const auto key = test_key();
  LinkCipher tx(key, 0), rx(key, 0);
  auto frame = tx.seal({1, 2, 3});
  frame[9] ^= 0x01;
  EXPECT_FALSE(rx.open(frame).has_value());
}

TEST(LinkCipher, TamperedTagRejected) {
  const auto key = test_key();
  LinkCipher tx(key, 0), rx(key, 0);
  auto frame = tx.seal({1, 2, 3});
  frame.back() ^= 0x80;
  EXPECT_FALSE(rx.open(frame).has_value());
}

TEST(LinkCipher, ReplayRejected) {
  const auto key = test_key();
  LinkCipher tx(key, 0), rx(key, 0);
  const auto frame = tx.seal({1});
  ASSERT_TRUE(rx.open(frame).has_value());
  EXPECT_FALSE(rx.open(frame).has_value());  // same seq again
}

TEST(LinkCipher, ReorderRejected) {
  const auto key = test_key();
  LinkCipher tx(key, 0), rx(key, 0);
  const auto f0 = tx.seal({0});
  const auto f1 = tx.seal({1});
  EXPECT_FALSE(rx.open(f1).has_value());  // skipped seq 0
  // And after the failed attempt, in-order delivery still works.
  EXPECT_TRUE(rx.open(f0).has_value());
}

TEST(LinkCipher, TruncatedFrameRejected) {
  const auto key = test_key();
  LinkCipher tx(key, 0), rx(key, 0);
  auto frame = tx.seal({1, 2, 3});
  frame.resize(10);
  EXPECT_FALSE(rx.open(frame).has_value());
  EXPECT_FALSE(rx.open({}).has_value());
}

TEST(LinkCipher, WrongKeyRejected) {
  LinkCipher tx(test_key(1), 0);
  LinkCipher rx(test_key(2), 0);
  EXPECT_FALSE(rx.open(tx.seal({1})).has_value());
}

TEST(LinkCipher, DirectionsAreIndependentKeystreams) {
  const auto key = test_key();
  LinkCipher d0(key, 0), d1(key, 1);
  const std::vector<std::uint8_t> msg(32, 0x42);
  const auto f0 = d0.seal(msg);
  const auto f1 = d1.seal(msg);
  EXPECT_NE(f0, f1);
  // Cross-direction frames do not authenticate.
  LinkCipher rx0(key, 0);
  EXPECT_FALSE(rx0.open(f1).has_value());
}

TEST(LinkCipher, SealKnownAnswer) {
  // Pins the sealed bytes (seq, AES-256-CTR body, HMAC tag): no simulated
  // result reads link ciphertext, so nothing else would notice a drift.
  LinkCipher tx(test_key(), 0);
  const std::string plain = "raptee";
  EXPECT_EQ(crypto::to_hex(tx.seal({plain.begin(), plain.end()})),
            "0000000000000000"
            "40c06992d987"
            "3033907e84cf239a05be1a268b17897f6dfe83d491acc4f56d615d7dcbed2aed");
}

TEST(LinkCipher, EmptyPayloadRoundTrips) {
  const auto key = test_key();
  LinkCipher tx(key, 0), rx(key, 0);
  const auto opened = rx.open(tx.seal({}));
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

}  // namespace
}  // namespace raptee::wire
