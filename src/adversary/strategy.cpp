#include "adversary/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "adversary/byzantine.hpp"
#include "common/assert.hpp"

namespace raptee::adversary {

// ---------------------------------------------------------------- defaults

void IStrategy::plan_pulls(Coordinator& coord, std::vector<NodeId>& out) {
  // Camouflaged pulls, uniform over the correct population — blending in
  // while harvesting the pull-answer observations that feed §VI-A.
  out.clear();
  const std::vector<NodeId>& victims = coord.victims();
  if (victims.empty()) return;
  const std::size_t fanout = coord.config().pull_fanout;
  out.reserve(fanout);
  for (std::size_t i = 0; i < fanout; ++i) {
    out.push_back(victims[static_cast<std::size_t>(coord.rng().below(victims.size()))]);
  }
}

void IStrategy::answer_view(Round /*r*/, const Coordinator& coord, Rng& rng,
                            std::vector<std::size_t>& scratch, std::size_t k,
                            std::vector<NodeId>& out) const {
  coord.faulty_view(rng, scratch, k, out);
}

bool IStrategy::attach_bogus_swap(Round /*r*/, const Coordinator& coord) const {
  return coord.config().attach_bogus_swap_offer;
}

namespace {

/// A dormant attacker's pull answer: k correct IDs drawn uniformly with
/// replacement, indistinguishable from an honest answer (a poisoned one
/// when there is no correct node to name).
void camouflage_view(const Coordinator& coord, Rng& rng, std::vector<std::size_t>& scratch,
                     std::size_t k, std::vector<NodeId>& out) {
  const std::vector<NodeId>& victims = coord.victims();
  if (victims.empty()) {
    coord.faulty_view(rng, scratch, k, out);
    return;
  }
  out.clear();
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(victims[static_cast<std::size_t>(rng.below(victims.size()))]);
  }
}

// ---------------------------------------------------------------- balanced

/// The Brahms-optimal balanced attack (paper §III-B). Push budget laid out
/// round-robin over a shuffled victim list, so per-victim push counts
/// differ by at most one — the spread the Brahms paper proves optimal for
/// the adversary. Draw-for-draw identical to the pre-strategy Coordinator.
class BalancedStrategy : public IStrategy {
 public:
  explicit BalancedStrategy(AttackSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] std::string_view name() const override { return "balanced"; }

  void plan_pushes(Round /*r*/, Coordinator& coord,
                   std::vector<NodeId>& schedule) override {
    const std::vector<NodeId>& pool =
        coord.targeted().empty() ? coord.victims() : coord.targeted();
    schedule.clear();
    if (pool.empty() || coord.config().push_budget_per_member == 0) return;
    const std::size_t total =
        coord.members().size() * coord.config().push_budget_per_member;
    std::vector<NodeId>& shuffled = coord.pool_scratch();
    shuffled.assign(pool.begin(), pool.end());
    coord.rng().shuffle(shuffled);
    schedule.reserve(total);
    for (std::size_t j = 0; j < total; ++j) schedule.push_back(shuffled[j % shuffled.size()]);
  }

 protected:
  AttackSpec spec_;
};

// ----------------------------------------------------------------- eclipse

/// Targeted/eclipse attacker (BASALT's evaluation adversary): the whole
/// push budget focuses on the targeted victims, throttled per victim so
/// the flood never trips Brahms' push-rate detection, and pulls harvest
/// the victims' increasingly polluted views.
class EclipseStrategy : public BalancedStrategy {
 public:
  using BalancedStrategy::BalancedStrategy;

  [[nodiscard]] std::string_view name() const override { return "eclipse"; }
  [[nodiscard]] bool wants_victims() const override { return true; }

  void plan_pushes(Round /*r*/, Coordinator& coord,
                   std::vector<NodeId>& schedule) override {
    const std::vector<NodeId>& pool =
        coord.targeted().empty() ? coord.victims() : coord.targeted();
    schedule.clear();
    const std::size_t budget = coord.config().push_budget_per_member;
    if (pool.empty() || budget == 0) return;
    const std::size_t total = coord.members().size() * budget;
    // Per-victim cap: flooding past the honest α·l1 background rate makes
    // the victim block its view update entirely (Brahms defence ii), which
    // would freeze — not capture — its view.
    const auto cap = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(spec_.push_cap_fraction * static_cast<double>(budget))));
    std::vector<NodeId>& shuffled = coord.pool_scratch();
    shuffled.assign(pool.begin(), pool.end());
    coord.rng().shuffle(shuffled);
    const std::size_t focused = std::min(total, cap * shuffled.size());
    schedule.reserve(total);
    for (std::size_t j = 0; j < focused; ++j) {
      schedule.push_back(shuffled[j % shuffled.size()]);
    }
    // The cap leaves budget on the table; spend it as balanced background
    // over the whole correct population. That is the stronger combined
    // attack: the victims' honest neighbours get polluted too, so the
    // victims' own camouflage pulls return dirtier views.
    if (focused < total && !coord.victims().empty()) {
      std::vector<NodeId>& background = coord.background_scratch();
      background.assign(coord.victims().begin(), coord.victims().end());
      coord.rng().shuffle(background);
      for (std::size_t j = 0; focused + j < total; ++j) {
        schedule.push_back(background[j % background.size()]);
      }
    }
  }

  void plan_pulls(Coordinator& coord, std::vector<NodeId>& out) override {
    // Pull the victims: every answered pull hands the adversary the
    // victim's current view and costs the victim an exchange slot.
    out.clear();
    const std::vector<NodeId>& pool =
        coord.targeted().empty() ? coord.victims() : coord.targeted();
    if (pool.empty()) return;
    const std::size_t fanout = coord.config().pull_fanout;
    out.reserve(fanout);
    for (std::size_t i = 0; i < fanout; ++i) {
      out.push_back(pool[static_cast<std::size_t>(coord.rng().below(pool.size()))]);
    }
  }
};

// ----------------------------------------------------------- delay_eclipse

/// Eclipse assisted by link delay (event-driven time only): on top of the
/// focused push budget, every honest→victim link gains spec_.delay_ms of
/// one-way latency, so the victims' honest refresh lands past the round
/// deadline and is dropped — the adversary's poison becomes the freshest
/// input the victims see. In round mode (no scheduler) the delay hook is
/// never consulted and the strategy degrades to plain eclipse.
class DelayEclipseStrategy final : public EclipseStrategy {
 public:
  using EclipseStrategy::EclipseStrategy;

  [[nodiscard]] std::string_view name() const override { return "delay_eclipse"; }

  [[nodiscard]] std::uint64_t extra_delay_us(Round /*r*/, NodeId from, NodeId to,
                                             const Coordinator& coord) const override {
    // Delay only honest→victim traffic: the adversary's own messages (and
    // everything not aimed at a victim) travel at network speed, so the
    // poison always outruns the honest refresh it displaces.
    if (coord.is_member(from)) return 0;
    const std::vector<NodeId>& pool =
        coord.targeted().empty() ? coord.victims() : coord.targeted();
    for (const NodeId victim : pool) {
      if (victim == to) return spec_.delay_ms * 1000;
    }
    return 0;
  }
};

// ------------------------------------------------------- partition_eclipse

/// Eclipse concentrated in an absolute round window, built to exploit a
/// network partition: while the victims' region is severed from honest
/// refresh the focused capture runs at full budget; before and after, the
/// strategy camouflages (no pushes, honest-looking pull answers) so
/// window-smoothed statistics see nothing until the heal reveals an
/// already-captured view. until == 0 means always-on (plain eclipse).
class PartitionEclipseStrategy final : public EclipseStrategy {
 public:
  using EclipseStrategy::EclipseStrategy;

  [[nodiscard]] std::string_view name() const override { return "partition_eclipse"; }

  [[nodiscard]] bool active(Round r) const override {
    if (spec_.window_until == 0) return true;
    return r >= spec_.window_from && r < spec_.window_until;
  }

  void plan_pushes(Round r, Coordinator& coord,
                   std::vector<NodeId>& schedule) override {
    if (!active(r)) {
      schedule.clear();
      return;
    }
    EclipseStrategy::plan_pushes(r, coord, schedule);
  }

  void answer_view(Round r, const Coordinator& coord, Rng& rng,
                   std::vector<std::size_t>& scratch, std::size_t k,
                   std::vector<NodeId>& out) const override {
    // Outside the window: advertise correct IDs, exactly like a dormant
    // oscillating attacker.
    if (active(r)) {
      coord.faulty_view(rng, scratch, k, out);
    } else {
      camouflage_view(coord, rng, scratch, k, out);
    }
  }
};

// ------------------------------------------------------------- oscillating

/// BASALT's adaptive adversary: attacks for on_rounds, then camouflages for
/// off_rounds. Dormant rounds push nothing and answer pulls with views of
/// correct IDs, so window-smoothed eviction/identification statistics decay
/// between bursts.
class OscillatingStrategy final : public BalancedStrategy {
 public:
  using BalancedStrategy::BalancedStrategy;

  [[nodiscard]] std::string_view name() const override { return "oscillating"; }

  [[nodiscard]] bool active(Round r) const override {
    const Round period = spec_.on_rounds + spec_.off_rounds;
    if (period == 0) return true;
    return (r % period) < spec_.on_rounds;
  }

  void plan_pushes(Round r, Coordinator& coord,
                   std::vector<NodeId>& schedule) override {
    if (!active(r)) {
      schedule.clear();
      return;
    }
    BalancedStrategy::plan_pushes(r, coord, schedule);
  }

  void answer_view(Round r, const Coordinator& coord, Rng& rng,
                   std::vector<std::size_t>& scratch, std::size_t k,
                   std::vector<NodeId>& out) const override {
    // Off duty: advertise correct IDs — indistinguishable from an honest
    // answer, and it repairs nothing the burst already poisoned.
    if (active(r)) {
      coord.faulty_view(rng, scratch, k, out);
    } else {
      camouflage_view(coord, rng, scratch, k, out);
    }
  }

  [[nodiscard]] bool attach_bogus_swap(Round r, const Coordinator& coord) const override {
    return active(r) && coord.config().attach_bogus_swap_offer;
  }
};

// ---------------------------------------------------------------- omission

/// Liveness attacker: contributes nothing (no pushes) and refuses to answer
/// pull requests, burning the initiator's exchange slot for the round. The
/// engine counts every refusal in Counters::legs_suppressed.
class OmissionStrategy final : public IStrategy {
 public:
  explicit OmissionStrategy(const AttackSpec& /*spec*/) {}

  [[nodiscard]] std::string_view name() const override { return "omission"; }

  void plan_pushes(Round /*r*/, Coordinator& /*coord*/,
                   std::vector<NodeId>& schedule) override {
    schedule.clear();
  }

  [[nodiscard]] bool answers_pulls(Round /*r*/) const override { return false; }
};

// -------------------------------------------------------------- bogus_swap

/// Balanced attack plus a forged swap offer on every AuthConfirm — probes
/// the trusted-swap authentication defence (honest nodes must reject the
/// offer because the sender cannot prove group membership).
class BogusSwapStrategy final : public BalancedStrategy {
 public:
  using BalancedStrategy::BalancedStrategy;

  [[nodiscard]] std::string_view name() const override { return "bogus_swap"; }

  [[nodiscard]] bool attach_bogus_swap(Round /*r*/,
                                       const Coordinator& /*coord*/) const override {
    return true;
  }
};

// ----------------------------------------------------------------- catalog

template <typename Strategy>
std::unique_ptr<IStrategy> build(const AttackSpec& spec) {
  return std::make_unique<Strategy>(spec);
}

constexpr StrategyEntry kCatalog[] = {
    {"balanced", "Brahms-optimal balanced attack (paper §III-B); the default",
     [] { return AttackSpec::balanced(); }, build<BalancedStrategy>},
    {"bogus_swap", "balanced + forged swap offer on every confirm",
     [] { return AttackSpec::bogus_swap(); }, build<BogusSwapStrategy>},
    {"delay_eclipse", "eclipse + delayed honest→victim links (event-driven time)",
     [] { return AttackSpec::delay_eclipse(); }, build<DelayEclipseStrategy>},
    {"eclipse", "focused push budget + harvesting pulls on a victim subset",
     [] { return AttackSpec::eclipse(); }, build<EclipseStrategy>},
    {"omission", "answers no pulls, sends nothing (liveness attacker)",
     [] { return AttackSpec::omission(); }, build<OmissionStrategy>},
    {"oscillating", "on/off duty cycle evading window-smoothed statistics",
     [] { return AttackSpec::oscillating(); }, build<OscillatingStrategy>},
    {"partition_eclipse", "eclipse focused into a partition round window",
     [] { return AttackSpec::partition_eclipse(); }, build<PartitionEclipseStrategy>},
};
static_assert(std::is_sorted(std::begin(kCatalog), std::end(kCatalog),
                             [](const StrategyEntry& a, const StrategyEntry& b) {
                               return a.name < b.name;
                             }),
              "the strategy catalog must stay sorted by name");

std::string catalog_names() {
  std::string names;
  for (const StrategyEntry& entry : kCatalog) {
    if (!names.empty()) names += ", ";
    names += entry.name;
  }
  return names;
}

}  // namespace

std::span<const StrategyEntry> strategy_catalog() { return kCatalog; }

const StrategyEntry* find_strategy(std::string_view name) {
  for (const StrategyEntry& entry : kCatalog) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::unique_ptr<IStrategy> make_strategy(const AttackSpec& spec) {
  const StrategyEntry* entry = find_strategy(spec.strategy);
  RAPTEE_REQUIRE(entry != nullptr, "unknown attack strategy '"
                                       << spec.strategy << "' (catalog: "
                                       << catalog_names() << ")");
  return entry->make(spec);
}

}  // namespace raptee::adversary
