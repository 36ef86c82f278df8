// Seeded fuzz loop over the peer-sampling service codec: requests and
// replies round-trip, every strict prefix and every one-byte extension is
// rejected, every single-bit flip either is rejected or decodes to a value
// that re-encodes to the flipped bytes, an oversized reply is rejected, and
// no input throws. The CI sanitizer job runs it instrumented.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "net/service.hpp"

namespace raptee::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::optional<Bytes> reencode_request(const Bytes& bytes) {
  const auto req = decode_sample_request(bytes.data(), bytes.size());
  if (!req) return std::nullopt;
  return encode_sample_request(*req);
}

std::optional<Bytes> reencode_reply(const Bytes& bytes) {
  const auto reply = decode_sample_reply(bytes.data(), bytes.size());
  if (!reply) return std::nullopt;
  return encode_sample_reply(*reply);
}

SampleReply seeded_reply(Rng& rng, std::size_t count) {
  SampleReply reply;
  reply.tag = rng.next();
  reply.round = rng.below(4) == 0 ? rng.next() : rng.below(1000);
  for (std::size_t i = 0; i < count; ++i) {
    reply.samples.emplace_back(static_cast<std::uint32_t>(rng.next()));
  }
  return reply;
}

/// Every strict prefix, every one-byte extension and every single-bit flip
/// of `clean`, through `reencode` (decode, then encode what decoded).
template <typename Reencode>
void mutate_all(const Bytes& clean, Reencode reencode, std::size_t& flips_decoded) {
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const Bytes prefix(clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(reencode(prefix).has_value()) << "a " << len << "-byte prefix decoded";
  }
  for (int extra = 0; extra < 256; ++extra) {
    Bytes longer = clean;
    longer.push_back(static_cast<std::uint8_t>(extra));
    EXPECT_FALSE(reencode(longer).has_value()) << "appended byte " << extra << " decoded";
  }
  for (std::size_t at = 0; at < clean.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = clean;
      flipped[at] ^= static_cast<std::uint8_t>(1u << bit);
      const std::optional<Bytes> again = reencode(flipped);
      if (!again) continue;
      ++flips_decoded;
      EXPECT_EQ(*again, flipped) << "byte " << at << ", bit " << bit;
    }
  }
}

TEST(ServiceCodecFuzz, SeededRequestsRoundTripAndRejectEveryMutation) {
  Rng rng(0x5E41CE);
  std::size_t flips_decoded = 0;
  for (int i = 0; i < 200; ++i) {
    SampleRequest req;
    req.tag = rng.next();
    req.count = static_cast<std::uint16_t>(rng.below(1u << 16));
    const Bytes clean = encode_sample_request(req);
    std::optional<SampleRequest> decoded;
    ASSERT_NO_THROW(decoded = decode_sample_request(clean.data(), clean.size()));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->tag, req.tag);
    EXPECT_EQ(decoded->count, req.count);
    EXPECT_FALSE(decode_sample_reply(clean.data(), clean.size()).has_value());
    ASSERT_NO_THROW(mutate_all(clean, reencode_request, flips_decoded));
  }
  // Flips in the tag and the count decode; the loop proves nothing if
  // none did.
  EXPECT_GT(flips_decoded, 0u);
}

TEST(ServiceCodecFuzz, SeededRepliesRoundTripAndRejectEveryMutation) {
  Rng rng(0x5E41CF);
  std::size_t flips_decoded = 0;
  for (int i = 0; i < 60; ++i) {
    const std::size_t count =
        i < 3 ? static_cast<std::size_t>(i) * kMaxSamplesPerRequest / 2
              : static_cast<std::size_t>(rng.below(kMaxSamplesPerRequest + 1));
    const SampleReply reply = seeded_reply(rng, count);
    const Bytes clean = encode_sample_reply(reply);
    std::optional<SampleReply> decoded;
    ASSERT_NO_THROW(decoded = decode_sample_reply(clean.data(), clean.size()));
    ASSERT_TRUE(decoded.has_value()) << count << " samples";
    EXPECT_EQ(decoded->tag, reply.tag);
    EXPECT_EQ(decoded->round, reply.round);
    EXPECT_EQ(decoded->samples, reply.samples);
    EXPECT_FALSE(decode_sample_request(clean.data(), clean.size()).has_value());
    ASSERT_NO_THROW(mutate_all(clean, reencode_reply, flips_decoded));
  }
  EXPECT_GT(flips_decoded, 0u);
}

TEST(ServiceCodecFuzz, ReplyOverTheSampleCapIsRejected) {
  Rng rng(0x5E41D0);
  for (const std::size_t count : {std::size_t{kMaxSamplesPerRequest} + 1,
                                  std::size_t{kMaxSamplesPerRequest} * 2, std::size_t{5000}}) {
    const Bytes bytes = encode_sample_reply(seeded_reply(rng, count));
    std::optional<SampleReply> decoded;
    ASSERT_NO_THROW(decoded = decode_sample_reply(bytes.data(), bytes.size()));
    EXPECT_FALSE(decoded.has_value()) << count << " samples";
  }
}

}  // namespace
}  // namespace raptee::net
