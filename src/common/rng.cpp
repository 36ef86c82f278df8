#include "common/rng.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace raptee {

Rng Rng::fork(std::string_view label) const {
  // SplitMix-style chain over the label bytes, then folded with the full
  // 256-bit state so distinct parents (or the same parent at different
  // points of its stream) derive unrelated children.
  std::uint64_t h = 0x53706C6974526E67ull;  // "SplitRng"
  for (const char c : label) h = mix64(h, static_cast<unsigned char>(c));
  return split(h);
}

Rng Rng::fork(std::string_view label, std::uint64_t a, std::uint64_t b) const {
  std::uint64_t h = 0x53706C6974526E67ull;  // "SplitRng"
  for (const char c : label) h = mix64(h, static_cast<unsigned char>(c));
  return split(mix64(mix64(h, a), b));
}

Rng Rng::split(std::uint64_t index) const {
  std::uint64_t s = mix64(state_[0], state_[1]);
  s = mix64(s, state_[2]);
  s = mix64(s, state_[3]);
  return Rng(mix64(s, index));
}

std::uint64_t Rng::below(std::uint64_t bound) {
  RAPTEE_ASSERT_MSG(bound > 0, "Rng::below requires a positive bound");
  // Lemire 2019: multiply-shift with rejection of the biased low range.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) {
  RAPTEE_ASSERT_MSG(lo <= hi, "Rng::between requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return u * factor;
}

void Rng::sample_indices_into(std::size_t n, std::size_t k,
                              std::vector<std::size_t>& out) {
  out.clear();
  if (k >= n) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    shuffle(out);
    return;
  }
  out.reserve(k);
  // Floyd's algorithm: iterate j over the top-k window. Membership is a bit
  // per candidate index on the stack while [0, n) is small, else a linear
  // scan (the k of gossip fan-outs is small); the draws are the same.
  constexpr std::size_t kBitsetIndices = 4096;
  if (n <= kBitsetIndices) {
    std::array<std::uint64_t, kBitsetIndices / 64> seen;
    std::fill_n(seen.begin(), (n + 63) / 64, 0);
    for (std::size_t j = n - k; j < n; ++j) {
      const auto t = static_cast<std::size_t>(below(j + 1));
      const std::size_t pick = (seen[t / 64] >> (t % 64)) & 1 ? j : t;
      seen[pick / 64] |= std::uint64_t{1} << (pick % 64);
      out.push_back(pick);
    }
  } else {
    for (std::size_t j = n - k; j < n; ++j) {
      std::size_t t = static_cast<std::size_t>(below(j + 1));
      bool present = false;
      for (auto e : out) {
        if (e == t) { present = true; break; }
      }
      out.push_back(present ? j : t);
    }
  }
  shuffle(out);
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  sample_indices_into(n, k, out);
  return out;
}

std::string to_string(NodeKind k) {
  switch (k) {
    case NodeKind::kHonest: return "honest";
    case NodeKind::kTrusted: return "trusted";
    case NodeKind::kByzantine: return "byzantine";
    case NodeKind::kPoisonedTrusted: return "poisoned-trusted";
  }
  return "unknown";
}

}  // namespace raptee
