#include "sgx/enclave.hpp"

#include <cmath>
#include <cstring>

#include "common/assert.hpp"
#include "crypto/hmac.hpp"
#include "wire/link_cipher.hpp"

namespace raptee::sgx {

Measurement measure_code(const std::string& code_identity) {
  return Measurement{crypto::sha256(code_identity)};
}

const std::string& raptee_enclave_identity() {
  static const std::string identity = "raptee-trusted-enclave-v1.0";
  return identity;
}

Enclave::Enclave(std::string code_identity, std::uint64_t seed, const CycleModel* model)
    : code_identity_(std::move(code_identity)),
      measurement_(measure_code(code_identity_)),
      model_(model),
      cycle_rng_(mix64(seed, 0x53475843ull)),
      protocol_rng_(mix64(seed, 0x50524F54ull)),
      drbg_(seed, "raptee-enclave") {
  device_secret_ = drbg_.generate_key();
}

void Enclave::charge(FunctionClass fc) {
  if (model_ != nullptr) ledger_.charge(fc, model_->sample_overhead(fc, cycle_rng_));
}

void Enclave::require_key(const char* op) const {
  RAPTEE_ASSERT_MSG(group_key_.has_value(),
                    "enclave operation `" << op << "` before provisioning");
}

std::array<std::uint8_t, 32> Enclave::make_report_data() {
  charge(FunctionClass::kAttestation);
  std::array<std::uint8_t, 32> rd{};
  drbg_.fill(rd.data(), rd.size());
  return rd;
}

crypto::AuthToken Enclave::auth_prove(crypto::AuthMode mode, crypto::AuthLeg leg,
                                      const crypto::AuthNonce& a,
                                      const crypto::AuthNonce& b) {
  require_key("auth_prove");
  charge(FunctionClass::kPullRequest);
  return group_key_->prove(mode, leg, a, b);
}

bool Enclave::auth_check(crypto::AuthMode mode, crypto::AuthLeg leg,
                         const crypto::AuthNonce& a, const crypto::AuthNonce& b,
                         const crypto::AuthToken& token) {
  require_key("auth_check");
  charge(FunctionClass::kPullRequest);
  return group_key_->check(mode, leg, a, b, token);
}

std::uint64_t Enclave::group_fingerprint() {
  require_key("group_fingerprint");
  return group_key_->key().fingerprint();
}

void Enclave::filter_pulled(std::span<const NodeId> ids, double eviction_rate,
                            std::vector<NodeId>& kept) {
  require_key("filter_pulled");
  charge(FunctionClass::kTrustedComms);
  kept.clear();
  kept.reserve(ids.size());  // the kept count varies with the rate; this does not
  if (eviction_rate <= 0.0) {
    kept.assign(ids.begin(), ids.end());
    return;
  }
  if (eviction_rate >= 1.0) return;
  const double keep_fraction = 1.0 - eviction_rate;
  const auto keep = static_cast<std::size_t>(
      std::lround(keep_fraction * static_cast<double>(ids.size())));
  picks_.reserve(ids.size());
  protocol_rng_.sample_indices_into(ids.size(), keep, picks_);
  for (const std::size_t i : picks_) kept.push_back(ids[i]);
}

void Enclave::select_swap_half(std::span<const NodeId> view_ids,
                               std::vector<NodeId>& half) {
  require_key("select_swap_half");
  charge(FunctionClass::kTrustedComms);
  picks_.reserve(view_ids.size());
  protocol_rng_.sample_indices_into(view_ids.size(), (view_ids.size() + 1) / 2, picks_);
  half.clear();
  for (const std::size_t i : picks_) half.push_back(view_ids[i]);
}

void Enclave::install_group_key(const crypto::SymmetricKey& key) {
  charge(FunctionClass::kAttestation);
  group_key_.emplace(key);
}

crypto::SymmetricKey Enclave::sealing_key() const {
  // MRENCLAVE-policy sealing: bound to the device root AND the measurement,
  // so only the same code on the same device can unseal.
  crypto::SymmetricKey k = device_secret_.derive("raptee-seal");
  crypto::HmacSha256 mac(k.bytes().data(), k.bytes().size());
  mac.update(measurement_.value.data(), measurement_.value.size());
  const crypto::Digest256 d = mac.finish();
  std::array<std::uint8_t, 32> bytes{};
  std::memcpy(bytes.data(), d.data(), bytes.size());
  return crypto::SymmetricKey(bytes);
}

std::optional<std::vector<std::uint8_t>> Enclave::seal_group_key() {
  if (!group_key_) return std::nullopt;
  charge(FunctionClass::kOther);
  wire::LinkCipher sealer(sealing_key(), /*direction=*/0);
  return sealer.seal(group_key_->key().to_vector());
}

bool Enclave::unseal_group_key(const std::vector<std::uint8_t>& blob) {
  charge(FunctionClass::kOther);
  wire::LinkCipher opener(sealing_key(), /*direction=*/0);
  const auto plain = opener.open(blob);
  if (!plain || plain->size() != crypto::SymmetricKey::kBytes) return false;
  std::array<std::uint8_t, crypto::SymmetricKey::kBytes> bytes{};
  std::memcpy(bytes.data(), plain->data(), bytes.size());
  group_key_.emplace(crypto::SymmetricKey(bytes));
  return true;
}

}  // namespace raptee::sgx
