#include "sgx/enclave.hpp"

#include <cmath>
#include <cstring>

#include "brahms/auth.hpp"
#include "common/assert.hpp"
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

crypto::AuthToken Enclave::auth_make_proof(const crypto::AuthNonce& a,
                                           const crypto::AuthNonce& b) {
  require_key("auth_make_proof");
  charge(FunctionClass::kPullRequest);
  return crypto::make_proof(*group_key_, a, b);
}

bool Enclave::auth_check_proof(const crypto::AuthNonce& a, const crypto::AuthNonce& b,
                               const crypto::AuthToken& token) {
  require_key("auth_check_proof");
  charge(FunctionClass::kPullRequest);
  return crypto::check_proof(*group_key_, a, b, token);
}

crypto::AuthToken Enclave::auth_mac_proof(const char* domain, const crypto::AuthNonce& a,
                                          const crypto::AuthNonce& b) {
  require_key("auth_mac_proof");
  charge(FunctionClass::kPullRequest);
  return brahms::auth_detail::mac_proof(*group_mac_key_, domain, a, b);
}

std::uint64_t Enclave::group_fingerprint() {
  require_key("group_fingerprint");
  return group_key_->fingerprint();
}

std::vector<NodeId> Enclave::filter_pulled(const std::vector<NodeId>& ids,
                                           double eviction_rate) {
  require_key("filter_pulled");
  charge(FunctionClass::kTrustedComms);
  if (eviction_rate <= 0.0) return ids;
  if (eviction_rate >= 1.0) return {};
  const double keep_fraction = 1.0 - eviction_rate;
  const auto keep = static_cast<std::size_t>(
      std::lround(keep_fraction * static_cast<double>(ids.size())));
  return protocol_rng_.sample(ids, keep);
}

std::vector<NodeId> Enclave::select_swap_half(const std::vector<NodeId>& view_ids) {
  require_key("select_swap_half");
  charge(FunctionClass::kTrustedComms);
  const std::size_t half = (view_ids.size() + 1) / 2;
  return protocol_rng_.sample(view_ids, half);
}

void Enclave::install_group_key(const crypto::SymmetricKey& key) {
  charge(FunctionClass::kAttestation);
  set_group_key(key);
}

void Enclave::set_group_key(const crypto::SymmetricKey& key) {
  group_key_ = key;
  group_mac_key_.emplace(key.bytes().data(), key.bytes().size());
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
  return sealer.seal(group_key_->to_vector());
}

bool Enclave::unseal_group_key(const std::vector<std::uint8_t>& blob) {
  charge(FunctionClass::kOther);
  wire::LinkCipher opener(sealing_key(), /*direction=*/0);
  const auto plain = opener.open(blob);
  if (!plain || plain->size() != crypto::SymmetricKey::kBytes) return false;
  std::array<std::uint8_t, crypto::SymmetricKey::kBytes> bytes{};
  std::memcpy(bytes.data(), plain->data(), bytes.size());
  set_group_key(crypto::SymmetricKey(bytes));
  return true;
}

}  // namespace raptee::sgx
