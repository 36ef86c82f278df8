// HMAC-SHA-256 against RFC 4231 and HKDF-SHA-256 against RFC 5869 vectors.
#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

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

TEST(HmacSha256, Rfc4231Case1) {
  const auto key = std::vector<std::uint8_t>(20, 0x0b);
  const auto mac = hmac_sha256(key, "Hi There");
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const auto mac = hmac_sha256(std::vector<std::uint8_t>(key.begin(), key.end()),
                               "what do ya want for nothing?");
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const auto key = std::vector<std::uint8_t>(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  HmacSha256 mac(key);
  mac.update(data);
  EXPECT_EQ(to_hex(mac.finish()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  const auto key = from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  const std::vector<std::uint8_t> data(50, 0xcd);
  HmacSha256 mac(key);
  mac.update(data);
  EXPECT_EQ(to_hex(mac.finish()),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  // Key longer than the block size must be hashed first.
  const auto key = std::vector<std::uint8_t>(131, 0xaa);
  const auto mac = hmac_sha256(key, "Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, Rfc4231Case7LongKeyAndData) {
  const auto key = std::vector<std::uint8_t>(131, 0xaa);
  const auto mac = hmac_sha256(
      key,
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the HMAC "
      "algorithm.");
  EXPECT_EQ(to_hex(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256, DifferentKeysDifferentMacs) {
  const auto a = hmac_sha256(std::vector<std::uint8_t>{1, 2, 3}, "msg");
  const auto b = hmac_sha256(std::vector<std::uint8_t>{1, 2, 4}, "msg");
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(HmacSha256, IncrementalMatchesOneShot) {
  const std::vector<std::uint8_t> key{9, 9, 9};
  HmacSha256 inc(key);
  inc.update("hello ");
  inc.update("world");
  EXPECT_TRUE(digest_equal(inc.finish(), hmac_sha256(key, "hello world")));
}

std::vector<std::uint8_t> bytes_of(const std::string& s) { return {s.begin(), s.end()}; }

struct Rfc4231Case {
  std::vector<std::uint8_t> key;
  std::vector<std::uint8_t> data;
  std::string mac_hex;  ///< case 5 lists only the first 128 bits
};

std::vector<Rfc4231Case> rfc4231_cases() {
  const std::vector<std::uint8_t> long_key(131, 0xaa);
  return {
      {std::vector<std::uint8_t>(20, 0x0b), bytes_of("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {bytes_of("Jefe"), bytes_of("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<std::uint8_t>(20, 0xaa), std::vector<std::uint8_t>(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
       std::vector<std::uint8_t>(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::vector<std::uint8_t>(20, 0x0c), bytes_of("Test With Truncation"),
       "a3b6167473100ee06e0c796c2955552b"},
      {long_key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {long_key,
       bytes_of("This is a test using a larger than block-size key and a larger than "
                "block-size data. The key needs to be hashed before being used by the "
                "HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
}

TEST(HmacKey, ScheduleMatchesFreshKeyOnRfc4231Cases) {
  const std::vector<Rfc4231Case> cases = rfc4231_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Rfc4231Case& c = cases[i];
    const HmacKey schedule(c.key.data(), c.key.size());
    HmacSha256 mac(schedule);
    mac.update(c.data);
    const Digest256 from_schedule = mac.finish();
    const Digest256 fresh = hmac_sha256(c.key.data(), c.key.size(), c.data.data(), c.data.size());
    EXPECT_TRUE(digest_equal(from_schedule, fresh)) << "RFC 4231 case " << i + 1;
    EXPECT_EQ(to_hex(from_schedule).substr(0, c.mac_hex.size()), c.mac_hex)
        << "RFC 4231 case " << i + 1;
  }
}

TEST(HmacKey, ScheduleStaysEqualOverThousandReuses) {
  // A long key, so the schedule also carries the hashed-key path.
  const std::vector<std::uint8_t> key(100, 0x5a);
  const HmacKey schedule(key.data(), key.size());
  std::vector<std::uint8_t> message;
  for (int use = 0; use < 1000; ++use) {
    message.assign(static_cast<std::size_t>(use % 150), static_cast<std::uint8_t>(use));
    HmacSha256 mac(schedule);
    mac.update(message);
    ASSERT_TRUE(digest_equal(mac.finish(), hmac_sha256(key.data(), key.size(), message.data(),
                                                       message.size())))
        << "use " << use << ", " << message.size() << "-byte message";
  }
}

TEST(Hkdf, Rfc5869Case1) {
  const auto ikm = std::vector<std::uint8_t>(22, 0x0b);
  const auto salt = from_hex("000102030405060708090a0b0c");
  const std::string info_hex = "f0f1f2f3f4f5f6f7f8f9";
  std::string info;
  for (auto b : from_hex(info_hex)) info.push_back(static_cast<char>(b));
  const auto okm = hkdf_sha256(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltEmptyInfo) {
  const auto ikm = std::vector<std::uint8_t>(22, 0x0b);
  const auto okm = hkdf_sha256({}, ikm, "", 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, LengthControl) {
  const auto okm1 = hkdf_sha256({}, {1, 2, 3}, "x", 1);
  const auto okm100 = hkdf_sha256({}, {1, 2, 3}, "x", 100);
  EXPECT_EQ(okm1.size(), 1u);
  EXPECT_EQ(okm100.size(), 100u);
  // Prefix property: shorter output is a prefix of longer output.
  EXPECT_EQ(okm1[0], okm100[0]);
}

TEST(Hkdf, InfoSeparatesOutputs) {
  const auto a = hkdf_sha256({}, {1, 2, 3}, "label-a", 32);
  const auto b = hkdf_sha256({}, {1, 2, 3}, "label-b", 32);
  EXPECT_NE(a, b);
}

TEST(Hkdf, RejectsOversizedRequest) {
  EXPECT_THROW((void)hkdf_sha256({}, {1}, "", 255 * 32 + 1), std::invalid_argument);
}

}  // namespace
}  // namespace raptee::crypto
