// SHA-256 against the FIPS 180-4 / NIST CAVP known-answer vectors.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace raptee::crypto {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes == one full block; padding spills into a second block.
  const std::string m(64, 'a');
  EXPECT_EQ(to_hex(sha256(m)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: length fits in the same block as the 0x80 pad byte;
  // 56 bytes: it does not — both classic edge cases.
  EXPECT_EQ(to_hex(sha256(std::string(55, 'a'))),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(to_hex(sha256(std::string(56, 'a'))),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.update(msg.substr(0, split));
    ctx.update(msg.substr(split));
    EXPECT_EQ(to_hex(ctx.finish()), to_hex(sha256(msg))) << "split at " << split;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.update("garbage");
  (void)ctx.finish();
  ctx.reset();
  ctx.update("abc");
  EXPECT_EQ(to_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, VectorOverloadMatchesString) {
  const std::string s = "hello world";
  const std::vector<std::uint8_t> v(s.begin(), s.end());
  EXPECT_EQ(sha256(v), sha256(s));
}

TEST(Sha256, DigestEqualConstantTimeCompare) {
  const Digest256 a = sha256("x");
  Digest256 b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
  b = a;
  b[0] ^= 0x80;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Sha256, HexEncodingShape) {
  const auto h = to_hex(sha256("abc"));
  EXPECT_EQ(h.size(), 64u);
  for (char c : h) EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
}

TEST(Sha256, PaddingSweepKnownAnswer) {
  // Every padding boundary of finish(): the digests of the messages of
  // 0..199 bytes (byte i = i % 256), concatenated and hashed. Python's
  // hashlib gives the same value.
  std::vector<std::uint8_t> digests;
  std::vector<std::uint8_t> message;
  for (std::size_t n = 0; n < 200; ++n) {
    message.resize(n);
    for (std::size_t i = 0; i < n; ++i) message[i] = static_cast<std::uint8_t>(i % 256);
    const Digest256 d = sha256(message);
    digests.insert(digests.end(), d.begin(), d.end());
  }
  EXPECT_EQ(to_hex(sha256(digests)),
            "ba7b0fcea7d10c06b855b43d2b4dce1e3e842fff6be0acefb0faf4f2dd05bb47");
}

class Sha256LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256LengthSweep, IncrementalByteAtATimeMatchesOneShot) {
  const std::size_t len = GetParam();
  std::string msg(len, '\0');
  for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<char>(i * 31 + 7);
  Sha256 ctx;
  for (char c : msg) ctx.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(ctx.finish()), to_hex(sha256(msg)));
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256LengthSweep,
                         ::testing::Values(0, 1, 31, 32, 33, 55, 56, 57, 63, 64, 65, 127,
                                           128, 129, 255, 1000));

}  // namespace
}  // namespace raptee::crypto
