// The paper's §IV-A proofs: kFull's proof binds both nonces in order and
// the key, and known answers pin both transports' bytes. The handshake
// itself, over both modes and both key holders, is tested in
// tests/brahms/test_auth_modes.cpp.
#include "crypto/mutual_auth.hpp"

#include <gtest/gtest.h>

#include "brahms/auth.hpp"

namespace raptee::crypto {
namespace {

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

TEST(ProofKey, LegsSeparateByDomainOrByNonceOrder) {
  // kFingerprint names the leg in the MAC; kFull relies on the caller
  // swapping the nonces between message 2 and message 3.
  const ProofKey key(Drbg(9).generate_key());
  AuthNonce ra{}, rb{};
  ra[0] = 1;
  rb[0] = 2;
  const auto fp = [&](AuthLeg leg) { return key.prove(AuthMode::kFingerprint, leg, ra, rb); };
  EXPECT_NE(fp(AuthLeg::kResponse), fp(AuthLeg::kConfirm));
  EXPECT_FALSE(key.check(AuthMode::kFingerprint, AuthLeg::kConfirm, ra, rb,
                         fp(AuthLeg::kResponse)));
  EXPECT_EQ(key.prove(AuthMode::kFull, AuthLeg::kResponse, ra, rb), make_proof(key.key(), ra, rb));
  EXPECT_EQ(key.prove(AuthMode::kFull, AuthLeg::kConfirm, ra, rb), make_proof(key.key(), ra, rb));
  for (AuthMode mode : {AuthMode::kFull, AuthMode::kFingerprint}) {
    for (AuthLeg leg : {AuthLeg::kResponse, AuthLeg::kConfirm}) {
      EXPECT_TRUE(key.check(mode, leg, ra, rb, key.prove(mode, leg, ra, rb)));
      EXPECT_FALSE(key.check(mode, leg, rb, ra, key.prove(mode, leg, ra, rb)));
    }
  }
}

/// The known-answer handshake: key Drbg(1).generate_key(), responder DRBG
/// Drbg(2), initiator DRBG Drbg(3), r_a = 00 01 ... 0f.
struct KnownAnswer {
  AuthResponse response;
  AuthConfirm confirm;
};

KnownAnswer known_answer(AuthMode mode) {
  const SymmetricKey key = Drbg(1).generate_key();
  brahms::KeyedAuthenticator responder(mode, key, Drbg(2));
  brahms::KeyedAuthenticator initiator(mode, key, Drbg(3));
  AuthChallenge challenge;
  for (std::size_t i = 0; i < challenge.r_a.size(); ++i) {
    challenge.r_a[i] = static_cast<std::uint8_t>(i);
  }
  KnownAnswer out;
  out.response = responder.make_response(challenge);
  EXPECT_TRUE(initiator.verify_response(challenge, out.response, &out.confirm));
  EXPECT_TRUE(responder.verify_confirm(challenge, out.response, out.confirm));
  return out;
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

TEST(FingerprintHandshake, KnownAnswerConfirm) {
  // Message 3 under the "init" MAC domain.
  EXPECT_EQ(to_hex(known_answer(AuthMode::kFingerprint).confirm.proof_a),
            "2aff20fe8e9aa604eac580a08464f939e0229c3161e8e92850da3672b96adb72");
}

TEST(FullHandshake, KnownAnswer) {
  // kFull draws the same r_b; its proofs are the AES-CTR-encrypted hashes.
  const KnownAnswer full = known_answer(AuthMode::kFull);
  EXPECT_EQ(to_hex(full.response.r_b), "156cc23b854361c4f958ad884d58b969");
  EXPECT_EQ(to_hex(full.response.proof_b),
            "99ca63b688b95a3e2639874300618e381f89f33c3a1f3b6d5ba85f44ea385027");
  EXPECT_EQ(to_hex(full.confirm.proof_a),
            "ddbe29a27bc85f8a80becf18938c3d2b1532bd3d5655932ae9b31069730e3385");
}

}  // namespace
}  // namespace raptee::crypto
