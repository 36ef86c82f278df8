// Zero-allocation steady state of the wire hot path: once the scratch
// buffers and message alternatives have warmed their capacity, an encrypted
// leg round-trip — encode_into → seal_into → open_into → decode_into —
// performs no heap allocation at all. Verified by counting every global
// operator new in this binary across a measured window
// (tests/support/count_allocations.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "crypto/key.hpp"
#include "support/count_allocations.hpp"
#include "wire/link_session.hpp"
#include "wire/message.hpp"

namespace raptee::wire {
namespace {

crypto::SymmetricKey master() {
  crypto::Drbg drbg(7, "zero-alloc-test");
  return drbg.generate_key();
}

/// The five legs of one exchange, with list-bearing payloads large enough
/// to dominate any small-buffer effects.
std::vector<Message> exchange_legs() {
  std::vector<NodeId> view;
  for (std::uint32_t i = 0; i < 40; ++i) view.push_back(NodeId{i});

  PullRequest request;
  request.sender = NodeId{1};
  request.challenge.r_a = {{1, 2, 3, 4}};
  PullReply reply;
  reply.sender = NodeId{2};
  reply.auth.r_b = {{5, 6}};
  reply.auth.proof_b = {{7, 8}};
  reply.view = view;
  AuthConfirm confirm;
  confirm.sender = NodeId{1};
  confirm.confirm.proof_a = {{9, 10}};
  confirm.swap_offer = view;
  SwapReply swap;
  swap.sender = NodeId{2};
  swap.swap_half = view;
  return {PushMessage{NodeId{1}}, request, reply, confirm, swap};
}

TEST(WireZeroAlloc, EncryptedLegRoundTripIsAllocationFreeInSteadyState) {
  LinkTable table(master());
  const std::vector<Message> legs = exchange_legs();

  // One decode target per leg type: in the engine the same Message object
  // round-trips through decode_into, so the held alternative (and its
  // vector capacity) always matches the incoming type.
  std::vector<Message> decoded = legs;
  std::vector<std::uint8_t> plain, frame, opened;

  const auto run_exchange = [&](std::uint64_t round) {
    LinkSession& session = table.session(NodeId{1}, NodeId{2}, round);
    for (std::size_t i = 0; i < legs.size(); ++i) {
      LinkCipher& channel = session.channel_from(NodeId{1});
      encode_into(decoded[i], plain);
      channel.seal_into(plain.data(), plain.size(), frame);
      ASSERT_TRUE(channel.open_into(frame.data(), frame.size(), opened));
      decode_into(opened.data(), opened.size(), decoded[i]);
    }
  };

  // Warm-up: grows every scratch buffer and message vector to capacity and
  // establishes the link session (the one-time derivation cost).
  run_exchange(0);
  run_exchange(1);

  const std::uint64_t before = test::g_allocations.load();
  for (std::uint64_t round = 2; round < 52; ++round) run_exchange(round);
  const std::uint64_t during = test::g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "steady-state encrypted leg round-trips must not touch the heap";

  // The payloads must still round-trip faithfully, of course.
  for (std::size_t i = 0; i < legs.size(); ++i) EXPECT_EQ(decoded[i], legs[i]);
}

TEST(WireZeroAlloc, PlaintextCodecPathIsAllocationFreeInSteadyState) {
  const std::vector<Message> legs = exchange_legs();
  std::vector<Message> decoded = legs;
  std::vector<std::uint8_t> plain;

  for (int warm = 0; warm < 2; ++warm) {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      encode_into(decoded[i], plain);
      decode_into(plain.data(), plain.size(), decoded[i]);
    }
  }

  const std::uint64_t before = test::g_allocations.load();
  for (int iteration = 0; iteration < 100; ++iteration) {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      encode_into(decoded[i], plain);
      decode_into(plain.data(), plain.size(), decoded[i]);
    }
  }
  EXPECT_EQ(test::g_allocations.load() - before, 0u);
  for (std::size_t i = 0; i < legs.size(); ++i) EXPECT_EQ(decoded[i], legs[i]);
}

TEST(WireZeroAlloc, CountersSeeOrdinaryAllocations) {
  // Sanity-check the instrument itself: a fresh vector growth must count.
  const std::uint64_t before = test::g_allocations.load();
  std::vector<std::uint8_t>* v = new std::vector<std::uint8_t>(1024);
  delete v;
  EXPECT_GT(test::g_allocations.load(), before);
}

}  // namespace
}  // namespace raptee::wire
