#include "probes.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "brahms/auth.hpp"
#include "brahms/sampler.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key.hpp"
#include "crypto/sha256.hpp"
#include "evt/scheduler.hpp"
#include "wire/link_cipher.hpp"
#include "wire/message.hpp"

namespace perfbench {

namespace {

using namespace raptee;

/// Median cost of one call of `fn`, in nanoseconds: the call count per
/// batch doubles until a batch takes at least 5 ms, then five batches run.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  constexpr auto kMinBatch = std::chrono::milliseconds(5);
  constexpr std::size_t kBatches = 5;
  std::size_t calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (Clock::now() - t0 >= kMinBatch || calls >= (std::size_t{1} << 26)) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                       static_cast<double>(calls));
  }
  return median_of(std::move(per_call));
}

/// Times `fn` under a "probe.<name>" span.
template <typename Fn>
double probe(Trace& trace, std::uint64_t parent, const std::string& name, Fn&& fn) {
  const auto t0 = Clock::now();
  const double ns = ns_per_call(fn);
  trace.add("probe." + name, parent, t0, Clock::now());
  return ns;
}

constexpr std::size_t kBulkBytes = 64 * 1024;
constexpr double kBulkKib = kBulkBytes / 1024.0;

}  // namespace

ProbeResults run_probes(const ProbeInputs& in, Trace& trace, std::uint64_t parent,
                        Checker& checker) {
  ProbeResults out;
  crypto::Drbg drbg(in.seed, "perfbench-probe");
  const crypto::SymmetricKey key = drbg.generate_key();
  std::vector<std::uint8_t> bulk = drbg.bytes(kBulkBytes);

  // --- crypto ---
  // Fingerprint auth MACs a 4-byte domain and two 16-byte nonces under a
  // key it sets up afresh on every proof: 36 bytes, key schedule included.
  std::vector<std::uint8_t> proof_input = drbg.bytes(36);
  out.hmac_sha256_ns = probe(trace, parent, "crypto.hmac_sha256", [&] {
    const crypto::Digest256 d = crypto::hmac_sha256(
        key.bytes().data(), key.bytes().size(), proof_input.data(), proof_input.size());
    proof_input[0] ^= d[0];
  });
  out.sha256_ns_per_kib = probe(trace, parent, "crypto.sha256", [&] {
                            const crypto::Digest256 d = crypto::sha256(bulk);
                            bulk[0] ^= d[0];
                          }) /
                          kBulkKib;
  const crypto::Aes aes = crypto::Aes::aes256(key.bytes());
  crypto::AesCtr ctr(aes, crypto::make_counter_block(drbg.generate_nonce()));
  out.aes256_ctr_ns_per_kib =
      probe(trace, parent, "crypto.aes256_ctr", [&] { ctr.process(bulk); }) / kBulkKib;
  std::uint8_t fill[16];
  out.drbg_fill16_ns =
      probe(trace, parent, "crypto.drbg_fill16", [&] { drbg.fill(fill, sizeof fill); });

  // --- wire: the PullReply leg, l1 ids, through encode_into + decode_into ---
  Rng rng(in.seed);
  wire::PullReply reply;
  reply.sender = NodeId{1};
  drbg.fill(reply.auth.r_b.data(), reply.auth.r_b.size());
  drbg.fill(reply.auth.proof_b.data(), reply.auth.proof_b.size());
  for (std::size_t i = 0; i < in.l1; ++i) {
    reply.view.emplace_back(static_cast<std::uint32_t>(rng.below(1u << 20)));
  }
  const wire::Message leg = reply;
  std::vector<std::uint8_t> encoded;
  wire::Message decoded;
  out.codec_us_per_leg = probe(trace, parent, "wire.codec", [&] {
                           wire::encode_into(leg, encoded);
                           wire::decode_into(encoded.data(), encoded.size(), decoded);
                         }) /
                         1000.0;
  checker.run_check(decoded == leg, "probe: decoded PullReply differs from the encoded one");

  // --- wire: seal + open that leg on one link channel ---
  const std::vector<std::uint8_t> plain = encoded;
  wire::LinkCipher channel(key, 0);
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> opened;
  bool all_opened = true;
  out.seal_open_us_per_leg = probe(trace, parent, "wire.seal_open", [&] {
                               channel.seal_into(plain.data(), plain.size(), frame);
                               all_opened &= channel.open_into(frame.data(), frame.size(), opened);
                             }) /
                             1000.0;
  checker.run_check(all_opened && opened == plain,
                    "probe: a sealed leg did not open to its plaintext");

  // --- evt: schedule then drain one round's worth of events ---
  const std::size_t depth = std::max<std::size_t>(in.queue_depth, 1);
  evt::Scheduler sched;
  bool in_order = true;
  const double batch_ns = probe(trace, parent, "evt.schedule_pop", [&] {
    const std::uint64_t base = sched.now_us();
    for (std::size_t i = 0; i < depth; ++i) {
      sched.schedule(base + rng.below(2'500'000), 0, i);
    }
    std::uint64_t last = base;
    while (!sched.empty()) {
      const evt::Event e = sched.pop();
      in_order &= e.at_us >= last;
      last = e.at_us;
    }
  });
  out.schedule_pop_ns = batch_ns / static_cast<double>(depth);
  checker.run_check(in_order, "probe: scheduler popped events out of time order");

  // --- brahms: one fingerprint handshake, challenge through confirm ---
  brahms::KeyedAuthenticator initiator(brahms::AuthMode::kFingerprint, key,
                                       crypto::Drbg(in.seed + 1));
  brahms::KeyedAuthenticator responder(brahms::AuthMode::kFingerprint, key,
                                       crypto::Drbg(in.seed + 2));
  bool trusted = true;
  out.auth_handshake_us = probe(trace, parent, "brahms.auth_handshake", [&] {
                            const crypto::AuthChallenge challenge = initiator.make_challenge();
                            const crypto::AuthResponse response =
                                responder.make_response(challenge);
                            crypto::AuthConfirm confirm;
                            trusted &= initiator.verify_response(challenge, response, &confirm);
                            trusted &= responder.verify_confirm(challenge, response, confirm);
                          }) /
                          1000.0;
  checker.run_check(trusted, "probe: a same-key handshake was not trusted");

  // --- brahms: l2 samplers fed a stream of ids ---
  constexpr std::size_t kStream = 1024;
  std::vector<NodeId> stream;
  for (std::size_t i = 0; i < kStream; ++i) {
    stream.emplace_back(static_cast<std::uint32_t>(rng.below(1u << 20)));
  }
  brahms::SamplerArray samplers(in.l2, rng);
  out.sampler_feed_ns_per_id =
      probe(trace, parent, "brahms.sampler_feed", [&] { samplers.feed_all(stream); }) /
      static_cast<double>(kStream);
  checker.run_check(!samplers.sample_list().empty(), "probe: samplers hold no sample");
  return out;
}

}  // namespace perfbench
