// The paper's §IV-A mutual-authentication protocol: positive path, all the
// mismatch paths, replay resistance, and the Fingerprint transport's bytes.
#include "crypto/mutual_auth.hpp"

#include <gtest/gtest.h>

#include "brahms/auth.hpp"

namespace raptee::crypto {
namespace {

struct HandshakeResult {
  bool initiator_trusts = false;
  bool responder_trusts = false;
};

HandshakeResult run_handshake(const SymmetricKey& ka, const SymmetricKey& kb,
                              std::uint64_t seed) {
  Drbg rng_a(seed, "a"), rng_b(seed, "b");
  AuthInitiator a(ka, rng_a);
  AuthResponder b(kb, rng_b);

  const AuthChallenge m1 = a.challenge();
  const AuthResponse m2 = b.respond(m1);
  AuthConfirm m3;
  HandshakeResult result;
  result.initiator_trusts = a.consume_response(m2, m3);
  b.consume_confirm(m3);
  result.responder_trusts = b.peer_trusted();
  return result;
}

TEST(MutualAuth, SameKeyAuthenticatesBothDirections) {
  Drbg kg(1);
  const SymmetricKey group = kg.generate_key();
  const auto r = run_handshake(group, group, 7);
  EXPECT_TRUE(r.initiator_trusts);
  EXPECT_TRUE(r.responder_trusts);
}

TEST(MutualAuth, DifferentKeysFailBothDirections) {
  Drbg kg(2);
  const auto r = run_handshake(kg.generate_key(), kg.generate_key(), 7);
  EXPECT_FALSE(r.initiator_trusts);
  EXPECT_FALSE(r.responder_trusts);
}

TEST(MutualAuth, FailedAuthStillProducesWellFormedConfirm) {
  // Camouflage: an untrusted initiator still sends message 3 so traffic is
  // indistinguishable.
  Drbg kg(3);
  Drbg rng_a(5, "a"), rng_b(5, "b");
  AuthInitiator a(kg.generate_key(), rng_a);
  AuthResponder b(kg.generate_key(), rng_b);
  const auto m2 = b.respond(a.challenge());
  AuthConfirm m3{};
  EXPECT_FALSE(a.consume_response(m2, m3));
  // Token must not be all zeros (it is a genuine ciphertext under A's key).
  bool nonzero = false;
  for (auto byte : m3.proof_a) nonzero |= (byte != 0);
  EXPECT_TRUE(nonzero);
}

TEST(MutualAuth, TamperedProofRejected) {
  Drbg kg(4);
  const SymmetricKey group = kg.generate_key();
  Drbg rng_a(6, "a"), rng_b(6, "b");
  AuthInitiator a(group, rng_a);
  AuthResponder b(group, rng_b);
  auto m2 = b.respond(a.challenge());
  m2.proof_b[0] ^= 0x01;
  AuthConfirm m3;
  EXPECT_FALSE(a.consume_response(m2, m3));
}

TEST(MutualAuth, TamperedConfirmRejected) {
  Drbg kg(5);
  const SymmetricKey group = kg.generate_key();
  Drbg rng_a(8, "a"), rng_b(8, "b");
  AuthInitiator a(group, rng_a);
  AuthResponder b(group, rng_b);
  const auto m2 = b.respond(a.challenge());
  AuthConfirm m3;
  EXPECT_TRUE(a.consume_response(m2, m3));
  m3.proof_a[5] ^= 0xFF;
  b.consume_confirm(m3);
  EXPECT_FALSE(b.peer_trusted());
}

TEST(MutualAuth, ProofNotReplayableAcrossHandshakes) {
  // A proof captured from one handshake fails under fresh challenges.
  Drbg kg(6);
  const SymmetricKey group = kg.generate_key();

  Drbg rng1(10, "x"), rng2(11, "y");
  AuthInitiator a1(group, rng1);
  AuthResponder b1(group, rng2);
  const auto captured = b1.respond(a1.challenge());

  Drbg rng3(12, "z"), rng4(13, "w");
  AuthInitiator a2(group, rng3);
  AuthConfirm m3;
  // Replay the captured (rB, proof) against a *new* challenge.
  EXPECT_FALSE(a2.consume_response(captured, m3));
}

TEST(MutualAuth, ProofBindsBothNoncesInOrder) {
  Drbg kg(7);
  const SymmetricKey k = kg.generate_key();
  AuthNonce ra{}, rb{};
  ra[0] = 1;
  rb[0] = 2;
  const AuthToken t = make_proof(k, ra, rb);
  EXPECT_TRUE(check_proof(k, ra, rb, t));
  EXPECT_FALSE(check_proof(k, rb, ra, t));  // order matters
  AuthNonce ra2 = ra;
  ra2[15] = 9;
  EXPECT_FALSE(check_proof(k, ra2, rb, t));
}

TEST(MutualAuth, ProofDiffersPerKeyAndNonces) {
  Drbg kg(8);
  const SymmetricKey k1 = kg.generate_key();
  const SymmetricKey k2 = kg.generate_key();
  AuthNonce ra{}, rb{};
  ra[3] = 7;
  rb[9] = 9;
  EXPECT_NE(make_proof(k1, ra, rb), make_proof(k2, ra, rb));
  AuthNonce rb2 = rb;
  rb2[0] = 1;
  EXPECT_NE(make_proof(k1, ra, rb), make_proof(k1, ra, rb2));
}

TEST(MutualAuth, ChallengesAreFreshPerInitiator) {
  Drbg kg(9);
  const SymmetricKey k = kg.generate_key();
  Drbg rng(20, "fresh");
  AuthInitiator a1(k, rng);
  AuthInitiator a2(k, rng);
  EXPECT_NE(a1.challenge().r_a, a2.challenge().r_a);
}

TEST(FingerprintHandshake, KnownAnswerResponse) {
  // Pins message 2 of the Fingerprint transport (brahms::KeyedAuthenticator):
  // the DRBG's r_b and the keyed-MAC proof. Trust decisions read only key
  // equality, so no simulated result would notice these bytes drift.
  brahms::KeyedAuthenticator responder(brahms::AuthMode::kFingerprint,
                                       Drbg(1).generate_key(), Drbg(2));
  AuthChallenge challenge;
  for (std::size_t i = 0; i < challenge.r_a.size(); ++i) {
    challenge.r_a[i] = static_cast<std::uint8_t>(i);
  }
  const AuthResponse response = responder.make_response(challenge);
  EXPECT_EQ(to_hex(response.r_b), "156cc23b854361c4f958ad884d58b969");
  EXPECT_EQ(to_hex(response.proof_b),
            "c5691401e1c400ec8989b745e6f8d8f264ae83d9436414f5110d0f85dd2dd18d");
}

}  // namespace
}  // namespace raptee::crypto
