#include "evt/partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"

namespace raptee::evt {

void RegionTopology::validate() const {
  RAPTEE_REQUIRE(regions >= 1, "topology needs >= 1 region, got " << regions);
}

PartitionSchedule PartitionSchedule::none() { return PartitionSchedule{}; }

PartitionSchedule PartitionSchedule::named(std::string_view name,
                                           Round total_rounds) {
  if (name == "none") return none();
  PartitionSchedule schedule;
  if (name == "mid-third") {
    // Region 0 cut off for the middle third of the run, then healed.
    schedule.windows.push_back(
        {total_rounds / 3, 2 * total_rounds / 3, {0}});
    return schedule;
  }
  if (name == "late-half") {
    // Region 0 cut off for the entire second half (no heal before the end).
    schedule.windows.push_back({total_rounds / 2, total_rounds, {0}});
    return schedule;
  }
  throw std::invalid_argument("unknown partition schedule '" +
                              std::string(name) +
                              "' (expected one of: none, mid-third, late-half)");
}

const std::vector<std::string>& PartitionSchedule::names() {
  static const std::vector<std::string> kNames{"none", "mid-third", "late-half"};
  return kNames;
}

bool PartitionSchedule::active(Round r) const {
  return std::any_of(windows.begin(), windows.end(), [r](const PartitionWindow& w) {
    return r >= w.from && r < w.until;
  });
}

bool PartitionSchedule::severed(std::uint32_t region_a, std::uint32_t region_b,
                                Round r) const {
  if (region_a == region_b) return false;
  for (const PartitionWindow& w : windows) {
    if (r < w.from || r >= w.until) continue;
    const auto isolated = [&w](std::uint32_t region) {
      return std::find(w.isolated.begin(), w.isolated.end(), region) !=
             w.isolated.end();
    };
    if (isolated(region_a) != isolated(region_b)) return true;
  }
  return false;
}

void PartitionSchedule::validate(std::uint32_t regions) const {
  for (const PartitionWindow& w : windows) {
    RAPTEE_REQUIRE(w.from <= w.until, "partition window inverted: ["
                                          << w.from << ", " << w.until << ")");
    for (const std::uint32_t region : w.isolated) {
      RAPTEE_REQUIRE(region < regions, "partition isolates region "
                                           << region << " but topology has only "
                                           << regions << " regions");
    }
  }
}

std::string PartitionSchedule::describe() const {
  if (windows.empty()) return "none";
  std::string out;
  for (const PartitionWindow& w : windows) {
    if (!out.empty()) out += '+';
    out += '[';
    out += std::to_string(w.from);
    out += ',';
    out += std::to_string(w.until);
    out += ")x";
    out += std::to_string(w.isolated.size());
  }
  return out;
}

}  // namespace raptee::evt
