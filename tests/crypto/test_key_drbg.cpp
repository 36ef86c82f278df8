#include "crypto/key.hpp"

#include <gtest/gtest.h>

#include <set>

namespace raptee::crypto {
namespace {

TEST(SymmetricKey, EqualityIsByContent) {
  Drbg rng(1);
  const SymmetricKey a = rng.generate_key();
  const SymmetricKey b = a;
  EXPECT_EQ(a, b);
  const SymmetricKey c = rng.generate_key();
  EXPECT_NE(a, c);
}

TEST(SymmetricKey, DeriveIsDeterministicAndLabelSeparated) {
  Drbg rng(2);
  const SymmetricKey k = rng.generate_key();
  EXPECT_EQ(k.derive("x"), k.derive("x"));
  EXPECT_NE(k.derive("x"), k.derive("y"));
  EXPECT_NE(k.derive("x"), k);
}

TEST(SymmetricKey, FingerprintMatchesKeyEquality) {
  Drbg rng(3);
  const SymmetricKey a = rng.generate_key();
  const SymmetricKey b = rng.generate_key();
  EXPECT_EQ(a.fingerprint(), SymmetricKey(a.bytes()).fingerprint());
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Drbg, KnownAnswerSeed42) {
  // Pins the DRBG byte stream: keys and nonces drawn from it reach no
  // golden digest, so a drifted stream would otherwise pass every gate.
  EXPECT_EQ(to_hex(Drbg(42).bytes(64)),
            "a2043164f58f3f5a004b0e5a2a37b05a5316aa9fef3a11eb37108becbda1394a"
            "e6a5ede67037bcc216224510b8875fefe36dfcecafa8a61b2cd2177904555c13");
}

TEST(Drbg, DeterministicForSameSeed) {
  Drbg a(42), b(42);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Drbg, PersonalizationSeparatesStreams) {
  Drbg a(42, "one"), b(42, "two");
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, OutputAdvances) {
  Drbg d(7);
  EXPECT_NE(d.bytes(32), d.bytes(32));
}

TEST(Drbg, ForkIndependence) {
  Drbg parent(9);
  Drbg child1 = parent.fork("a");
  Drbg child2 = parent.fork("a");
  // Forks at different parent states differ even with the same label.
  EXPECT_NE(child1.bytes(32), child2.bytes(32));
}

TEST(Drbg, GeneratedKeysAreDistinct) {
  Drbg d(10);
  std::set<std::uint64_t> fps;
  for (int i = 0; i < 100; ++i) fps.insert(d.generate_key().fingerprint());
  EXPECT_EQ(fps.size(), 100u);
}

TEST(Drbg, FillExactLengths) {
  Drbg d(11);
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 100u}) {
    EXPECT_EQ(d.bytes(len).size(), len);
  }
}

TEST(Drbg, NonceGeneration) {
  Drbg d(12);
  const auto n1 = d.generate_nonce();
  const auto n2 = d.generate_nonce();
  EXPECT_NE(n1, n2);
}

TEST(Drbg, ByteDistributionRoughlyUniform) {
  Drbg d(13);
  const auto data = d.bytes(65536);
  std::array<int, 256> counts{};
  for (auto b : data) ++counts[b];
  for (int c : counts) {
    // Expected 256 per value; loose 5-sigma band.
    EXPECT_GT(c, 256 - 80);
    EXPECT_LT(c, 256 + 80);
  }
}

}  // namespace
}  // namespace raptee::crypto
