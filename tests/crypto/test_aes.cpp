// AES against FIPS-197 known-answer vectors and CTR mode against
// NIST SP 800-38A section F.5 vectors.
#include "crypto/aes.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"

namespace raptee::crypto {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Block block_from_hex(const std::string& hex) {
  Block b{};
  const auto v = from_hex(hex);
  std::memcpy(b.data(), v.data(), 16);
  return b;
}

TEST(Aes128, Fips197Appendix) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Aes aes(key.data(), Aes::KeySize::k128);
  Block b = block_from_hex("00112233445566778899aabbccddeeff");
  aes.encrypt_block(b);
  EXPECT_EQ(to_hex(b), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes256, Fips197Appendix) {
  const auto key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Aes aes(key.data(), Aes::KeySize::k256);
  Block b = block_from_hex("00112233445566778899aabbccddeeff");
  aes.encrypt_block(b);
  EXPECT_EQ(to_hex(b), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes128, Sp800_38aEcbVector) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes aes(key.data(), Aes::KeySize::k128);
  Block b = block_from_hex("6bc1bee22e409f96e93d7e117393172a");
  aes.encrypt_block(b);
  EXPECT_EQ(to_hex(b), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(AesCtr128, Sp800_38aF51) {
  // SP 800-38A F.5.1: CTR-AES128.Encrypt, 4 blocks.
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes aes(key.data(), Aes::KeySize::k128);
  const Block counter = block_from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  auto plaintext = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const auto ciphertext = aes_ctr_transform(aes, counter, plaintext);
  EXPECT_EQ(to_hex(ciphertext),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(AesCtr256, Sp800_38aF55) {
  const auto key =
      from_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Aes aes(key.data(), Aes::KeySize::k256);
  const Block counter = block_from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  auto plaintext = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  const auto ciphertext = aes_ctr_transform(aes, counter, plaintext);
  EXPECT_EQ(to_hex(ciphertext),
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5");
}

TEST(AesCtr, EncryptDecryptSymmetry) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Aes aes(key.data(), Aes::KeySize::k128);
  const Block counter = make_counter_block({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  const auto original = data;
  AesCtr enc(aes, counter);
  enc.process(data);
  EXPECT_NE(data, original);
  AesCtr dec(aes, counter);
  dec.process(data);
  EXPECT_EQ(data, original);
}

TEST(AesCtr, StreamingMatchesOneShot) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Aes aes(key.data(), Aes::KeySize::k128);
  const Block counter = make_counter_block({});
  std::vector<std::uint8_t> data(61, 0x5A);

  auto oneshot = aes_ctr_transform(aes, counter, data);

  auto streamed = data;
  AesCtr ctr(aes, counter);
  ctr.process(streamed.data(), 7);
  ctr.process(streamed.data() + 7, 16);
  ctr.process(streamed.data() + 23, 38);
  EXPECT_EQ(streamed, oneshot);
}

TEST(AesCtr, ResetRestartsKeystream) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes aes(key.data(), Aes::KeySize::k128);
  const Block counter = make_counter_block({9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9});
  std::vector<std::uint8_t> a(32, 0), b(32, 0);
  AesCtr ctr(aes, counter);
  ctr.process(a);
  ctr.reset(counter);
  ctr.process(b);
  EXPECT_EQ(a, b);
}

TEST(AesCtr, CounterIncrementCarries) {
  // Counter portion 0x000000FF -> 0x00000100 across the refill boundary:
  // encrypting 2 blocks with initial counter ...FF must equal block(FF)
  // followed by block(0100).
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Aes aes(key.data(), Aes::KeySize::k128);
  const Block c0 = make_counter_block({}, 0x000000FF);
  const Block c1 = make_counter_block({}, 0x00000100);

  std::vector<std::uint8_t> zeros(32, 0);
  const auto two_blocks = aes_ctr_transform(aes, c0, zeros);

  Block ks0 = c0, ks1 = c1;
  aes.encrypt_block(ks0);
  aes.encrypt_block(ks1);
  EXPECT_EQ(0, std::memcmp(two_blocks.data(), ks0.data(), 16));
  EXPECT_EQ(0, std::memcmp(two_blocks.data() + 16, ks1.data(), 16));
}

TEST(Aes, RoundCounts) {
  const auto key128 = from_hex("000102030405060708090a0b0c0d0e0f");
  const auto key256 =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  EXPECT_EQ(Aes(key128.data(), Aes::KeySize::k128).rounds(), 10);
  EXPECT_EQ(Aes(key256.data(), Aes::KeySize::k256).rounds(), 14);
}

TEST(Aes, MakeCounterBlockLayout) {
  const Block b = make_counter_block({0xA, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xB, 0xC}, 0x01020304);
  EXPECT_EQ(b[0], 0xA);
  EXPECT_EQ(b[11], 0xC);
  EXPECT_EQ(b[12], 0x01);
  EXPECT_EQ(b[15], 0x04);
}

class AesRoundTripSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesRoundTripSweep, CtrRoundTripsAnyLength) {
  const auto key =
      from_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Aes aes(key.data(), Aes::KeySize::k256);
  const Block counter = make_counter_block({7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7});
  std::vector<std::uint8_t> data(GetParam());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  const auto original = data;
  AesCtr enc(aes, counter);
  enc.process(data);
  AesCtr dec(aes, counter);
  dec.process(data);
  EXPECT_EQ(data, original);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AesRoundTripSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 100, 1024));

}  // namespace
}  // namespace raptee::crypto
