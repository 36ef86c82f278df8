// The tamper_rate scenario axis and the hardened exchange path: an on-path
// adversary flips bits on exchange legs; with encrypt_links every flip is
// rejected by the AEAD, without it the typed-leg validator drops what fails
// decoding — and nothing, ever, aborts the engine. Also covers the
// persistent link-session cache: derivations track active pairs (not
// exchanges), continue across rounds, and rekey on churn.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "fake_node.hpp"

namespace raptee::sim {
namespace {

using testing::FakeNode;

struct TamperFixture : public ::testing::Test {
  /// Ring of n FakeNodes, each pushing to and pulling from both neighbours.
  Engine make_ring(std::size_t n, EngineConfig config) {
    Engine engine(config);
    fakes.clear();
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<FakeNode>(NodeId{static_cast<std::uint32_t>(i)});
      const auto next = NodeId{static_cast<std::uint32_t>((i + 1) % n)};
      const auto prev = NodeId{static_cast<std::uint32_t>((i + n - 1) % n)};
      node->pull_targets_ = {next, prev};
      node->view_ = {next, prev};
      node->offer_on_reply = true;
      node->answer_swaps = true;
      fakes.push_back(node.get());
      engine.add_node(std::move(node), NodeKind::kHonest);
    }
    return engine;
  }
  std::vector<FakeNode*> fakes;
};

TEST_F(TamperFixture, EncryptedLinksRejectEveryTamperedLeg) {
  EngineConfig config;
  config.seed = 21;
  config.encrypt_links = true;
  config.tamper_rate = 0.4;
  Engine engine = make_ring(10, config);
  for (Round r = 0; r < 12; ++r) engine.step();

  const Engine::Counters& c = engine.counters();
  EXPECT_GT(c.legs_tampered, 0u);
  // Encrypt-then-MAC over the whole frame: one flipped bit anywhere can
  // never authenticate, so every tampered leg is detected and dropped.
  EXPECT_EQ(c.legs_corrupted, c.legs_tampered);
  EXPECT_EQ(c.legs_dropped, c.legs_corrupted);  // no message_loss configured
  EXPECT_EQ(c.pulls_started, c.pulls_completed + c.pulls_timed_out);
  EXPECT_GT(c.pulls_completed, 0u);
  EXPECT_GT(c.pulls_timed_out, 0u);
}

TEST_F(TamperFixture, PlaintextTamperingIsOnlyPartiallyDetected) {
  EngineConfig config;
  config.seed = 22;
  config.wire_roundtrip = true;
  config.tamper_rate = 0.4;
  Engine engine = make_ring(10, config);
  for (Round r = 0; r < 12; ++r) engine.step();

  const Engine::Counters& c = engine.counters();
  EXPECT_GT(c.legs_tampered, 0u);
  // Without encryption only structural damage is caught: flips that land
  // in a payload field (a node id, a nonce byte) decode cleanly and reach
  // the protocol as silent corruption — the paper's §III-B argument for
  // mandatory link encryption, measurable here as corrupted < tampered.
  EXPECT_LT(c.legs_corrupted, c.legs_tampered);
  EXPECT_EQ(c.pulls_started, c.pulls_completed + c.pulls_timed_out);
}

TEST_F(TamperFixture, TamperRateAloneImpliesTheByteRoundTrip) {
  EngineConfig config;
  config.seed = 23;
  config.tamper_rate = 1.0;  // neither wire_roundtrip nor encrypt_links set
  Engine engine = make_ring(6, config);
  for (Round r = 0; r < 6; ++r) engine.step();
  EXPECT_GT(engine.counters().wire_bytes, 0u);
  EXPECT_GT(engine.counters().legs_tampered, 0u);
}

TEST_F(TamperFixture, ZeroTamperRateDrawsNothingAndCountsNothing) {
  for (const bool encrypted : {false, true}) {
    EngineConfig config;
    config.seed = 24;
    config.wire_roundtrip = true;
    config.encrypt_links = encrypted;
    config.message_loss = 0.3;
    Engine engine = make_ring(8, config);
    for (Round r = 0; r < 10; ++r) engine.step();
    EXPECT_EQ(engine.counters().legs_tampered, 0u);
    EXPECT_EQ(engine.counters().legs_corrupted, 0u);
  }
}

TEST_F(TamperFixture, TamperCountersReproduceBitForBit) {
  const auto run_once = [this]() {
    EngineConfig config;
    config.seed = 25;
    config.encrypt_links = true;
    config.tamper_rate = 0.25;
    config.message_loss = 0.1;
    Engine engine = make_ring(10, config);
    for (Round r = 0; r < 10; ++r) engine.step();
    return engine.counters();
  };
  const Engine::Counters a = run_once();
  const Engine::Counters b = run_once();
  EXPECT_EQ(a.legs_tampered, b.legs_tampered);
  EXPECT_EQ(a.legs_corrupted, b.legs_corrupted);
  EXPECT_EQ(a.legs_dropped, b.legs_dropped);
  EXPECT_EQ(a.pulls_completed, b.pulls_completed);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
}

TEST_F(TamperFixture, CorruptedBytesFuzzLoopNeverAbortsAndStaysCoherent) {
  // The end-to-end fuzz gate of the hardening satellite: sweep tamper
  // pressure across both fidelity modes, with loss and churn mixed in, and
  // assert engine-level accounting stays coherent under heavy corruption.
  // Run under ASan/UBSan by the CI sanitizer job.
  for (const double rate : {0.05, 0.5, 1.0}) {
    for (const bool encrypted : {false, true}) {
      EngineConfig config;
      config.seed = 26 + static_cast<std::uint64_t>(rate * 100);
      config.wire_roundtrip = true;
      config.encrypt_links = encrypted;
      config.tamper_rate = rate;
      config.message_loss = 0.1;
      Engine engine = make_ring(12, config);
      for (Round r = 0; r < 15; ++r) {
        if (r == 5) engine.set_alive(NodeId{3}, false);
        if (r == 9) engine.set_alive(NodeId{3}, true);
        engine.step();
      }
      const Engine::Counters& c = engine.counters();
      EXPECT_EQ(c.pulls_started, c.pulls_completed + c.pulls_timed_out)
          << "rate=" << rate << " encrypted=" << encrypted;
      EXPECT_GE(c.legs_dropped, c.legs_corrupted);
      EXPECT_GT(c.legs_tampered, 0u);
      if (encrypted) {
        EXPECT_EQ(c.legs_corrupted, c.legs_tampered);
      }
    }
  }
}

TEST_F(TamperFixture, LinkSessionsPersistAcrossRoundsAndRekeyOnChurn) {
  EngineConfig config;
  config.seed = 27;
  config.encrypt_links = true;
  Engine engine = make_ring(6, config);
  for (Round r = 0; r < 8; ++r) engine.step();
  // A 6-ring has 6 distinct neighbour pairs; with caching that is 6 link
  // establishments total, not 6 pairs × 2 directions × 8 rounds.
  EXPECT_EQ(engine.link_derivations(), 6u);
  EXPECT_EQ(engine.link_active_sessions(), 6u);

  // Churn: node 2's two sessions are invalidated and re-derived once it is
  // exchanged with again.
  engine.set_alive(NodeId{2}, false);
  engine.step();
  engine.set_alive(NodeId{2}, true);
  engine.step();
  EXPECT_EQ(engine.link_derivations(), 8u);
}

TEST_F(TamperFixture, LinkSessionsDeriveOncePerPairAtEveryWidth) {
  // A lossless encrypted run puts its exchanges in concurrent waves at
  // width 4; the cached sessions must still derive once per pair and match
  // width 1 leg for leg.
  Engine::Counters width_one{};
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    EngineConfig config;
    config.seed = 28;
    config.encrypt_links = true;
    config.threads = width;
    Engine engine = make_ring(6, config);
    for (Round r = 0; r < 8; ++r) engine.step();
    // 6 neighbour pairs carry 6 nodes × 2 pulls × 8 rounds = 96 exchanges.
    EXPECT_EQ(engine.link_derivations(), 6u) << "width " << width;
    EXPECT_EQ(engine.link_active_sessions(), 6u) << "width " << width;
    const Engine::Counters& c = engine.counters();
    EXPECT_EQ(c.pulls_completed, 96u) << "width " << width;
    EXPECT_EQ(c.legs_corrupted, 0u) << "width " << width;
    if (width == 1) {
      width_one = c;
    } else {
      EXPECT_EQ(c.swaps_completed, width_one.swaps_completed);
      EXPECT_EQ(c.wire_bytes, width_one.wire_bytes);
    }
  }
}

}  // namespace
}  // namespace raptee::sim
