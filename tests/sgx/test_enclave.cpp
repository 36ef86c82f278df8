#include "sgx/enclave.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/assert.hpp"
#include "sgx/attestation.hpp"

namespace raptee::sgx {
namespace {

constexpr crypto::AuthMode kFull = crypto::AuthMode::kFull;
constexpr crypto::AuthLeg kResponse = crypto::AuthLeg::kResponse;

/// A provisioned enclave backed by a throwaway attestation service.
struct Provisioned {
  AttestationService service{777};
  Enclave enclave;

  explicit Provisioned(std::uint64_t seed = 1,
                       const CycleModel* model = nullptr)
      : enclave(raptee_enclave_identity(), seed, model) {
    service.allowlist(measure_code(raptee_enclave_identity()));
    RAPTEE_ASSERT(service.provision(enclave));
  }
};

/// The enclave's selections, collected into fresh vectors.
std::vector<NodeId> filtered(Enclave& enclave, const std::vector<NodeId>& ids,
                             double eviction_rate) {
  std::vector<NodeId> kept;
  enclave.filter_pulled(ids, eviction_rate, kept);
  return kept;
}

std::vector<NodeId> swap_half(Enclave& enclave, const std::vector<NodeId>& view_ids) {
  std::vector<NodeId> half;
  enclave.select_swap_half(view_ids, half);
  return half;
}

TEST(Enclave, MeasurementIsCodeBound) {
  Enclave a("code-v1", 1);
  Enclave b("code-v1", 2);
  Enclave c("code-v2", 1);
  EXPECT_EQ(a.measurement(), b.measurement());
  EXPECT_FALSE(a.measurement() == c.measurement());
  EXPECT_EQ(a.measurement(), measure_code("code-v1"));
}

TEST(Enclave, OperationsRequireProvisioning) {
  Enclave e(raptee_enclave_identity(), 1);
  EXPECT_FALSE(e.has_group_key());
  crypto::AuthNonce n{};
  EXPECT_THROW((void)e.auth_prove(kFull, kResponse, n, n), AssertionError);
  EXPECT_THROW((void)e.auth_check(kFull, kResponse, n, n, {}), AssertionError);
  EXPECT_THROW((void)e.group_fingerprint(), AssertionError);
  EXPECT_THROW((void)filtered(e, {}, 0.5), AssertionError);
  EXPECT_THROW((void)swap_half(e, {}), AssertionError);
  EXPECT_FALSE(e.seal_group_key().has_value());
}

TEST(Enclave, ProvisionedProofsVerifyAcrossEnclaves) {
  AttestationService service(9);
  service.allowlist(measure_code(raptee_enclave_identity()));
  Enclave e1(raptee_enclave_identity(), 1);
  Enclave e2(raptee_enclave_identity(), 2);
  ASSERT_TRUE(service.provision(e1));
  ASSERT_TRUE(service.provision(e2));

  crypto::AuthNonce a{}, b{};
  a.fill(1);
  b.fill(2);
  for (crypto::AuthMode mode : {kFull, crypto::AuthMode::kFingerprint}) {
    const auto proof = e1.auth_prove(mode, kResponse, a, b);
    EXPECT_TRUE(e2.auth_check(mode, kResponse, a, b, proof));
    EXPECT_FALSE(e2.auth_check(mode, kResponse, b, a, proof));
  }
  EXPECT_EQ(e1.group_fingerprint(), e2.group_fingerprint());
}

TEST(Enclave, FilterPulledRates) {
  Provisioned p;
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 100; ++i) ids.emplace_back(i);

  EXPECT_EQ(filtered(p.enclave, ids, 0.0).size(), 100u);
  EXPECT_TRUE(filtered(p.enclave, ids, 1.0).empty());
  EXPECT_EQ(filtered(p.enclave, ids, 0.4).size(), 60u);
  EXPECT_EQ(filtered(p.enclave, ids, 0.25).size(), 75u);
}

TEST(Enclave, FilterPulledKeepsSubsetOfInput) {
  Provisioned p;
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 50; ++i) ids.emplace_back(i * 2);
  const auto kept = filtered(p.enclave, ids, 0.5);
  std::set<std::uint32_t> input;
  for (NodeId id : ids) input.insert(id.value);
  for (NodeId id : kept) EXPECT_TRUE(input.count(id.value));
}

TEST(Enclave, SwapHalfIsHalfRoundedUp) {
  Provisioned p;
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 9; ++i) ids.emplace_back(i);
  EXPECT_EQ(swap_half(p.enclave, ids).size(), 5u);
  ids.emplace_back(9);
  EXPECT_EQ(swap_half(p.enclave, ids).size(), 5u);
  EXPECT_TRUE(swap_half(p.enclave, {}).empty());
}

TEST(Enclave, SwapHalfEntriesAreDistinctViewMembers) {
  Provisioned p;
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 20; ++i) ids.emplace_back(i);
  const auto half = swap_half(p.enclave, ids);
  std::set<std::uint32_t> uniq;
  for (NodeId id : half) {
    EXPECT_LT(id.value, 20u);
    uniq.insert(id.value);
  }
  EXPECT_EQ(uniq.size(), half.size());
}

TEST(Enclave, SealUnsealRoundTrip) {
  Provisioned p;
  const auto blob = p.enclave.seal_group_key();
  ASSERT_TRUE(blob.has_value());

  // "Restart": a new enclave object on the same device/seed unseals it.
  Enclave restarted(raptee_enclave_identity(), 1, nullptr);
  EXPECT_FALSE(restarted.has_group_key());
  EXPECT_TRUE(restarted.unseal_group_key(*blob));
  EXPECT_TRUE(restarted.has_group_key());
  EXPECT_EQ(restarted.group_fingerprint(), p.enclave.group_fingerprint());
}

TEST(Enclave, UnsealRejectsTamperedBlob) {
  Provisioned p;
  auto blob = *p.enclave.seal_group_key();
  blob[blob.size() / 2] ^= 0x01;
  Enclave restarted(raptee_enclave_identity(), 1, nullptr);
  EXPECT_FALSE(restarted.unseal_group_key(blob));
  EXPECT_FALSE(restarted.has_group_key());
}

TEST(Enclave, UnsealRejectsDifferentDevice) {
  Provisioned p(/*seed=*/1);
  const auto blob = *p.enclave.seal_group_key();
  Enclave other_device(raptee_enclave_identity(), 2, nullptr);
  EXPECT_FALSE(other_device.unseal_group_key(blob));
}

TEST(Enclave, UnsealRejectsDifferentMeasurement) {
  Provisioned p(/*seed=*/1);
  const auto blob = *p.enclave.seal_group_key();
  Enclave other_code("some-other-code", 1, nullptr);
  EXPECT_FALSE(other_code.unseal_group_key(blob));
}

TEST(Enclave, CycleLedgerChargesPerFunctionClass) {
  const CycleModel model = CycleModel::paper_table1();
  Provisioned p(/*seed=*/3, &model);
  crypto::AuthNonce n{};
  const auto before = p.enclave.ledger().cycles(FunctionClass::kPullRequest);
  (void)p.enclave.auth_prove(kFull, kResponse, n, n);
  EXPECT_GT(p.enclave.ledger().cycles(FunctionClass::kPullRequest), before);
  EXPECT_GE(p.enclave.ledger().calls(FunctionClass::kPullRequest), 1u);

  (void)filtered(p.enclave, {NodeId{1}}, 0.5);
  EXPECT_GT(p.enclave.ledger().cycles(FunctionClass::kTrustedComms), 0u);
  EXPECT_GT(p.enclave.ledger().total_cycles(), 0u);
}

TEST(Enclave, NullModelChargesNothing) {
  Provisioned p(/*seed=*/4, nullptr);
  crypto::AuthNonce n{};
  (void)p.enclave.auth_prove(kFull, kResponse, n, n);
  EXPECT_EQ(p.enclave.ledger().total_cycles(), 0u);
}

TEST(Enclave, ReportDataIsFresh) {
  Enclave e(raptee_enclave_identity(), 1);
  EXPECT_NE(e.make_report_data(), e.make_report_data());
}

}  // namespace
}  // namespace raptee::sgx
