// KeyedAuthenticator across the two transport modes (design decision D5):
// identical trust decisions, mode-specific mechanics.
#include "brahms/auth.hpp"

#include <gtest/gtest.h>

namespace raptee::brahms {
namespace {

struct Decisions {
  bool initiator = false;
  bool responder = false;
};

Decisions run(IAuthenticator& a, IAuthenticator& b) {
  const auto challenge = a.make_challenge();
  const auto response = b.make_response(challenge);
  crypto::AuthConfirm confirm;
  Decisions d;
  d.initiator = a.verify_response(challenge, response, &confirm);
  d.responder = b.verify_confirm(challenge, response, confirm);
  return d;
}

class AuthModeTest : public ::testing::TestWithParam<AuthMode> {
 protected:
  KeyedAuthenticator make(const crypto::SymmetricKey& key, std::uint64_t seed) {
    return KeyedAuthenticator(GetParam(), key, crypto::Drbg(seed));
  }
};

TEST_P(AuthModeTest, SharedKeyAuthenticatesBothWays) {
  crypto::Drbg kg(1);
  const auto group = kg.generate_key();
  auto a = make(group, 10);
  auto b = make(group, 11);
  const auto d = run(a, b);
  EXPECT_TRUE(d.initiator);
  EXPECT_TRUE(d.responder);
}

TEST_P(AuthModeTest, DistinctKeysFailBothWays) {
  crypto::Drbg kg(2);
  auto a = make(kg.generate_key(), 10);
  auto b = make(kg.generate_key(), 11);
  const auto d = run(a, b);
  EXPECT_FALSE(d.initiator);
  EXPECT_FALSE(d.responder);
}

TEST_P(AuthModeTest, MixedPairAgreesOnFailure) {
  // trusted <-> untrusted: neither side should conclude trust.
  crypto::Drbg kg(3);
  const auto group = kg.generate_key();
  auto trusted = make(group, 10);
  auto untrusted = make(kg.generate_key(), 11);
  const auto d1 = run(trusted, untrusted);
  EXPECT_FALSE(d1.initiator);
  EXPECT_FALSE(d1.responder);
  const auto d2 = run(untrusted, trusted);
  EXPECT_FALSE(d2.initiator);
  EXPECT_FALSE(d2.responder);
}

TEST_P(AuthModeTest, FreshChallengesEveryHandshake) {
  crypto::Drbg kg(4);
  auto a = make(kg.generate_key(), 10);
  EXPECT_NE(a.make_challenge().r_a, a.make_challenge().r_a);
}

INSTANTIATE_TEST_SUITE_P(Modes, AuthModeTest,
                         ::testing::Values(AuthMode::kFull, AuthMode::kFingerprint),
                         [](const auto& info) {
                           switch (info.param) {
                             case AuthMode::kFull: return "Full";
                             case AuthMode::kFingerprint: return "Fingerprint";
                           }
                           return "?";
                         });

TEST(AuthModeEquivalence, AllModesProduceIdenticalDecisionMatrix) {
  // The D5 guarantee: over a population of keys, every mode yields the same
  // trusted/untrusted decision for every ordered pair.
  crypto::Drbg kg(5);
  const auto group = kg.generate_key();
  std::vector<crypto::SymmetricKey> keys{group, group, kg.generate_key(),
                                         kg.generate_key()};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = 0; j < keys.size(); ++j) {
      std::vector<Decisions> per_mode;
      for (AuthMode mode : {AuthMode::kFull, AuthMode::kFingerprint}) {
        KeyedAuthenticator a(mode, keys[i], crypto::Drbg(100 + i));
        KeyedAuthenticator b(mode, keys[j], crypto::Drbg(200 + j));
        per_mode.push_back(run(a, b));
      }
      for (std::size_t m = 1; m < per_mode.size(); ++m) {
        EXPECT_EQ(per_mode[m].initiator, per_mode[0].initiator)
            << "pair (" << i << "," << j << ") mode " << m;
        EXPECT_EQ(per_mode[m].responder, per_mode[0].responder)
            << "pair (" << i << "," << j << ") mode " << m;
      }
      const bool same_key = (keys[i] == keys[j]);
      EXPECT_EQ(per_mode[0].initiator, same_key);
    }
  }
}

TEST(AuthModeMechanics, FingerprintProofDependsOnChallenges) {
  crypto::Drbg kg(6);
  const auto key = kg.generate_key();
  KeyedAuthenticator b(AuthMode::kFingerprint, key, crypto::Drbg(1));
  crypto::AuthChallenge c1, c2;
  c1.r_a.fill(1);
  c2.r_a.fill(2);
  EXPECT_NE(b.make_response(c1).proof_b, b.make_response(c2).proof_b);
}

TEST(AuthModeMechanics, FullModeTamperedResponseRejected) {
  crypto::Drbg kg(7);
  const auto key = kg.generate_key();
  KeyedAuthenticator a(AuthMode::kFull, key, crypto::Drbg(1));
  KeyedAuthenticator b(AuthMode::kFull, key, crypto::Drbg(2));
  const auto challenge = a.make_challenge();
  auto response = b.make_response(challenge);
  response.proof_b[0] ^= 1;
  crypto::AuthConfirm confirm;
  EXPECT_FALSE(a.verify_response(challenge, response, &confirm));
}

}  // namespace
}  // namespace raptee::brahms
