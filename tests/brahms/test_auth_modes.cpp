// The §IV-A handshake over both transport modes (design decision D5) and
// both key holders — the node itself (KeyedAuthenticator) and an attested
// enclave (core::EnclaveAuthenticator): identical trust decisions, the
// camouflage confirm, tamper and replay rejection, and the enclave's ecall
// count per handshake.
#include "brahms/auth.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/enclave_auth.hpp"
#include "sgx/attestation.hpp"

namespace raptee::brahms {
namespace {

struct Decisions {
  bool initiator = false;
  bool responder = false;
};

Decisions run(Authenticator& a, Authenticator& b) {
  const auto challenge = a.make_challenge();
  const auto response = b.make_response(challenge);
  crypto::AuthConfirm confirm;
  Decisions d;
  d.initiator = a.verify_response(challenge, response, &confirm);
  d.responder = b.verify_confirm(challenge, response, confirm);
  return d;
}

const char* mode_name(AuthMode mode) {
  return mode == AuthMode::kFull ? "Full" : "Fingerprint";
}

/// Where an authenticator's key lives.
enum class Holder { kNode, kEnclave };

/// Builds authenticators whose keys are named by an index: two made with
/// the same index share a key. A node-held key comes from a DRBG; an
/// enclave-held one is the group key of one attestation service per index,
/// provisioned into a fresh genuine enclave.
class KeyRing {
 public:
  explicit KeyRing(AuthMode mode, const sgx::CycleModel* model = nullptr)
      : mode_(mode), model_(model) {}

  std::unique_ptr<Authenticator> keyed(std::uint64_t key, std::uint64_t seed) const {
    return std::make_unique<KeyedAuthenticator>(mode_, crypto::Drbg(key).generate_key(),
                                                crypto::Drbg(seed));
  }

  std::unique_ptr<Authenticator> enclave(std::uint64_t key, std::uint64_t seed) {
    auto& service = services_[key];
    if (!service) {
      service = std::make_unique<sgx::AttestationService>(key);
      service->allowlist(sgx::measure_code(sgx::raptee_enclave_identity()));
    }
    enclaves_.push_back(
        std::make_unique<sgx::Enclave>(sgx::raptee_enclave_identity(), seed, model_));
    EXPECT_TRUE(service->provision(*enclaves_.back()));
    return std::make_unique<core::EnclaveAuthenticator>(mode_, *enclaves_.back(),
                                                        crypto::Drbg(seed));
  }

  std::unique_ptr<Authenticator> make(Holder holder, std::uint64_t key, std::uint64_t seed) {
    return holder == Holder::kNode ? keyed(key, seed) : enclave(key, seed);
  }

  [[nodiscard]] const sgx::Enclave& last_enclave() const { return *enclaves_.back(); }

 private:
  AuthMode mode_;
  const sgx::CycleModel* model_;
  std::map<std::uint64_t, std::unique_ptr<sgx::AttestationService>> services_;
  std::vector<std::unique_ptr<sgx::Enclave>> enclaves_;
};

class HandshakeTest : public ::testing::TestWithParam<std::tuple<AuthMode, Holder>> {
 protected:
  HandshakeTest() : ring_(std::get<0>(GetParam())) {}

  std::unique_ptr<Authenticator> make(std::uint64_t key, std::uint64_t seed) {
    return ring_.make(std::get<1>(GetParam()), key, seed);
  }

  KeyRing ring_;
};

TEST_P(HandshakeTest, SharedKeyAuthenticatesBothWays) {
  auto a = make(1, 10);
  auto b = make(1, 11);
  const auto d = run(*a, *b);
  EXPECT_TRUE(d.initiator);
  EXPECT_TRUE(d.responder);
}

TEST_P(HandshakeTest, DistinctKeysFailBothWays) {
  auto a = make(2, 10);
  auto b = make(3, 11);
  const auto d = run(*a, *b);
  EXPECT_FALSE(d.initiator);
  EXPECT_FALSE(d.responder);
}

TEST_P(HandshakeTest, MixedPairAgreesOnFailure) {
  // trusted <-> untrusted: neither side should conclude trust.
  auto trusted = make(4, 10);
  auto untrusted = make(5, 11);
  const auto d1 = run(*trusted, *untrusted);
  EXPECT_FALSE(d1.initiator);
  EXPECT_FALSE(d1.responder);
  const auto d2 = run(*untrusted, *trusted);
  EXPECT_FALSE(d2.initiator);
  EXPECT_FALSE(d2.responder);
}

TEST_P(HandshakeTest, FreshChallengesEveryHandshake) {
  auto a = make(6, 10);
  EXPECT_NE(a->make_challenge().r_a, a->make_challenge().r_a);
}

TEST_P(HandshakeTest, FailedHandshakeStillSendsNonZeroConfirm) {
  // Camouflage: an initiator that does not trust the responder still sends
  // message 3, a genuine proof under its own key.
  auto a = make(7, 10);
  auto b = make(8, 11);
  const auto challenge = a->make_challenge();
  const auto response = b->make_response(challenge);
  crypto::AuthConfirm confirm{};
  EXPECT_FALSE(a->verify_response(challenge, response, &confirm));
  EXPECT_NE(confirm.proof_a, crypto::AuthToken{});
}

TEST_P(HandshakeTest, TamperedResponseRejected) {
  auto a = make(9, 10);
  auto b = make(9, 11);
  const auto challenge = a->make_challenge();
  auto response = b->make_response(challenge);
  response.proof_b[0] ^= 0x01;
  crypto::AuthConfirm confirm;
  EXPECT_FALSE(a->verify_response(challenge, response, &confirm));
}

TEST_P(HandshakeTest, TamperedConfirmRejected) {
  auto a = make(10, 10);
  auto b = make(10, 11);
  const auto challenge = a->make_challenge();
  const auto response = b->make_response(challenge);
  crypto::AuthConfirm confirm;
  ASSERT_TRUE(a->verify_response(challenge, response, &confirm));
  confirm.proof_a[5] ^= 0xFF;
  EXPECT_FALSE(b->verify_confirm(challenge, response, confirm));
}

TEST_P(HandshakeTest, CapturedResponseFailsFreshChallenge) {
  // A response captured from one handshake, replayed against a new
  // challenge from a key holder of the same group, does not verify.
  auto a = make(11, 10);
  auto b = make(11, 11);
  const auto first = a->make_challenge();
  const auto captured = b->make_response(first);
  const auto fresh = a->make_challenge();
  ASSERT_NE(fresh.r_a, first.r_a);
  crypto::AuthConfirm confirm;
  EXPECT_FALSE(a->verify_response(fresh, captured, &confirm));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndHolders, HandshakeTest,
    ::testing::Combine(::testing::Values(AuthMode::kFull, AuthMode::kFingerprint),
                       ::testing::Values(Holder::kNode, Holder::kEnclave)),
    [](const auto& info) {
      return std::string(mode_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == Holder::kNode ? "Node" : "Enclave");
    });

class EnclaveHandshakeTest : public ::testing::TestWithParam<AuthMode> {};

TEST_P(EnclaveHandshakeTest, TwoPullRequestEcallsPerSidePerHandshake) {
  const sgx::CycleModel model = sgx::CycleModel::paper_table1();
  KeyRing ring(GetParam(), &model);
  auto a = ring.enclave(1, 10);
  const sgx::Enclave& enclave_a = ring.last_enclave();
  auto b = ring.enclave(1, 11);
  const sgx::Enclave& enclave_b = ring.last_enclave();
  for (std::uint64_t handshakes = 1; handshakes <= 3; ++handshakes) {
    const auto d = run(*a, *b);
    EXPECT_TRUE(d.initiator);
    EXPECT_TRUE(d.responder);
    EXPECT_EQ(enclave_a.ledger().calls(sgx::FunctionClass::kPullRequest), 2 * handshakes);
    EXPECT_EQ(enclave_b.ledger().calls(sgx::FunctionClass::kPullRequest), 2 * handshakes);
  }
}

TEST_P(EnclaveHandshakeTest, EnclaveAndKeyedNodeRejectEachOther) {
  KeyRing ring(GetParam());
  auto enclave = ring.enclave(1, 10);
  auto keyed = ring.keyed(2, 11);
  const auto d1 = run(*enclave, *keyed);
  EXPECT_FALSE(d1.initiator);
  EXPECT_FALSE(d1.responder);
  const auto d2 = run(*keyed, *enclave);
  EXPECT_FALSE(d2.initiator);
  EXPECT_FALSE(d2.responder);
}

INSTANTIATE_TEST_SUITE_P(Modes, EnclaveHandshakeTest,
                         ::testing::Values(AuthMode::kFull, AuthMode::kFingerprint),
                         [](const auto& info) { return mode_name(info.param); });

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

}  // namespace
}  // namespace raptee::brahms
