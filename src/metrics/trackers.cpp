#include "metrics/trackers.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "core/raptee_node.hpp"

namespace raptee::metrics {

PollutionTracker::PollutionTracker(std::function<bool(NodeId)> is_byzantine_id,
                                   std::size_t view_size, double stability_band,
                                   std::size_t smoothing_window)
    : is_byzantine_id_(std::move(is_byzantine_id)),
      floor_(view_size ? 1.0 / static_cast<double>(view_size) : 0.0),
      band_(stability_band),
      window_(std::max<std::size_t>(1, smoothing_window)) {
  RAPTEE_REQUIRE(is_byzantine_id_, "PollutionTracker needs a Byzantine oracle");
}

void PollutionTracker::on_round_end(Round round, sim::Engine& engine) {
  if (history_.size() < engine.size()) history_.resize(engine.size());

  double snapshot_sum = 0.0;
  double smoothed_sum = 0.0;
  double honest_sum = 0.0, trusted_sum = 0.0;
  std::size_t honest_count = 0, trusted_count = 0;
  std::vector<double>& smoothed = smoothed_scratch_;
  smoothed.clear();
  bool all_warm = true;

  // Ascending id over the alive correct population: the summation order is
  // part of the bit-identical metric stream.
  for (std::uint32_t i = 0; i < engine.size(); ++i) {
    const NodeId id{i};
    if (!engine.is_alive(id) || !is_correct(engine.kind(id))) continue;
    const std::span<const NodeId> view = engine.view_of(id);
    std::size_t byz = 0;
    for (NodeId entry : view) {
      if (is_byzantine_id_(entry)) ++byz;
    }
    const double share = view.empty()
                             ? 0.0
                             : static_cast<double>(byz) / static_cast<double>(view.size());
    snapshot_sum += share;
    if (is_trusted(engine.kind(id))) {
      trusted_sum += share;
      ++trusted_count;
    } else {
      honest_sum += share;
      ++honest_count;
    }

    // Rolling mean update (ring buffer).
    NodeHistory& h = history_[id.value];
    if (h.ring.size() != window_) h.ring.assign(window_, 0.0);
    if (h.filled == window_) {
      h.sum -= h.ring[h.next];
    }
    h.ring[h.next] = share;
    h.sum += share;
    h.next = (h.next + 1) % window_;
    if (h.filled < window_) ++h.filled;
    if (h.filled < window_) all_warm = false;
    smoothed.push_back(h.sum / static_cast<double>(h.filled));
    smoothed_sum += smoothed.back();
  }

  const std::size_t observed = honest_count + trusted_count;
  if (observed == 0) {
    series_.push_back(0.0);
    max_dev_.push_back(0.0);
    return;
  }
  const double count = static_cast<double>(observed);
  series_.push_back(snapshot_sum / count);
  honest_series_.push_back(honest_count ? honest_sum / static_cast<double>(honest_count)
                                        : 0.0);
  trusted_series_.push_back(
      trusted_count ? trusted_sum / static_cast<double>(trusted_count) : 0.0);

  const double smoothed_avg = smoothed_sum / count;
  double max_dev = 0.0;
  for (double s : smoothed) max_dev = std::max(max_dev, std::abs(s - smoothed_avg));
  max_dev_.push_back(max_dev);

  smoothed_avg_history_.push_back(smoothed_avg);
  if (!stability_round_ && all_warm) {
    // D4 allowance: the 10 % relative band, floored by one view slot and by
    // the estimator's own noise ceiling — the expected maximum (over n
    // nodes) of a window-averaged binomial snapshot, sqrt(2 ln n) + 0.5
    // standard errors. Below that ceiling, residual deviation is sampling
    // noise, not systematic bias.
    const double p = smoothed_avg;
    const double snapshot_sd = floor_ > 0.0 ? std::sqrt(std::max(p * (1.0 - p), 0.0) * floor_)
                                            : 0.0;  // floor_ == 1/l1
    const double noise_ceiling =
        snapshot_sd / std::sqrt(static_cast<double>(window_)) *
        (std::sqrt(2.0 * std::log(std::max(2.0, count))) + 0.5);
    const double allowance = std::max({band_ * p, floor_, noise_ceiling});
    // Plateau condition: homogeneity alone also holds while every view is
    // being polluted in lockstep; stability additionally requires the
    // population average to have stopped moving over the last window.
    bool plateaued = false;
    if (smoothed_avg_history_.size() > window_) {
      const double then = smoothed_avg_history_[smoothed_avg_history_.size() - 1 - window_];
      plateaued = std::abs(smoothed_avg - then) <= allowance;
    }
    if (max_dev <= allowance && plateaued) stability_round_ = round;
  }
}

namespace {
double tail_mean(const std::vector<double>& series, std::size_t window) {
  if (series.empty()) return 0.0;
  window = std::min(window, series.size());
  double sum = 0.0;
  for (std::size_t i = series.size() - window; i < series.size(); ++i) sum += series[i];
  return sum / static_cast<double>(window);
}
}  // namespace

double PollutionTracker::steady_state_pollution(std::size_t window) const {
  return tail_mean(series_, window);
}
double PollutionTracker::steady_state_honest(std::size_t window) const {
  return tail_mean(honest_series_, window);
}
double PollutionTracker::steady_state_trusted(std::size_t window) const {
  return tail_mean(trusted_series_, window);
}

DiscoveryTracker::DiscoveryTracker(std::vector<NodeId> correct_ids, double threshold)
    : threshold_(threshold), correct_ids_(std::move(correct_ids)) {
  RAPTEE_REQUIRE(!correct_ids_.empty(), "DiscoveryTracker needs a population");
  std::uint32_t max_id = 0;
  for (NodeId id : correct_ids_) max_id = std::max(max_id, id.value);
  rank_.assign(max_id + 1, NodeId::kInvalid);
  for (std::uint32_t i = 0; i < correct_ids_.size(); ++i) {
    rank_[correct_ids_[i].value] = i;
  }
  knowledge_.reserve(correct_ids_.size());
  for (std::size_t i = 0; i < correct_ids_.size(); ++i) {
    knowledge_.emplace_back(correct_ids_.size());
    // A node knows itself.
    knowledge_.back().set(rank_[correct_ids_[i].value]);
  }
}

void DiscoveryTracker::learn_view(NodeId observer, std::span<const NodeId> view) {
  if (observer.value >= rank_.size() || rank_[observer.value] == NodeId::kInvalid) return;
  DynamicBitset& bits = knowledge_[rank_[observer.value]];
  for (NodeId s : view) {
    if (s.value < rank_.size() && rank_[s.value] != NodeId::kInvalid) {
      bits.set(rank_[s.value]);
    }
  }
}

void DiscoveryTracker::prime(sim::Engine& engine) {
  // Outside step() the slab may be stale (or never built) — refresh before
  // reading the bootstrap views.
  engine.refresh_views();
  for (NodeId id : correct_ids_) {
    if (!engine.is_alive(id)) continue;
    learn_view(id, engine.view_of(id));
  }
}

void DiscoveryTracker::on_round_end(Round round, sim::Engine& engine) {
  for (NodeId id : correct_ids_) {
    if (!engine.is_alive(id)) continue;
    learn_view(id, engine.view_of(id));
  }
  double min_fill = 1.0;
  for (const auto& bits : knowledge_) min_fill = std::min(min_fill, bits.fill_ratio());
  min_knowledge_.push_back(min_fill);
  if (!discovery_round_ && min_fill >= threshold_) discovery_round_ = round;
}

TrustedTelemetryTracker::TrustedTelemetryTracker(std::vector<NodeId> trusted_ids)
    : trusted_ids_(std::move(trusted_ids)) {}

void TrustedTelemetryTracker::on_round_end(Round /*round*/, sim::Engine& engine) {
  if (trusted_ids_.empty()) return;
  double rate_sum = 0.0, ratio_sum = 0.0;
  std::size_t counted = 0;
  for (NodeId id : trusted_ids_) {
    if (!engine.is_alive(id)) continue;
    const auto* node = dynamic_cast<const core::RapteeNode*>(&engine.node(id));
    if (node == nullptr) continue;
    rate_sum += node->last_eviction_rate();
    ratio_sum += node->last_trusted_ratio();
    ++counted;
  }
  if (counted == 0) return;
  eviction_rates_.push_back(rate_sum / static_cast<double>(counted));
  trusted_ratios_.push_back(ratio_sum / static_cast<double>(counted));
}

double TrustedTelemetryTracker::mean_eviction_rate() const {
  if (eviction_rates_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : eviction_rates_) sum += v;
  return sum / static_cast<double>(eviction_rates_.size());
}

double TrustedTelemetryTracker::mean_trusted_ratio() const {
  if (trusted_ratios_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : trusted_ratios_) sum += v;
  return sum / static_cast<double>(trusted_ratios_.size());
}

VictimTracker::VictimTracker(std::function<bool(NodeId)> is_byzantine_id,
                             std::vector<NodeId> victims, double isolation_threshold)
    : is_byzantine_id_(std::move(is_byzantine_id)),
      victims_(std::move(victims)),
      isolation_threshold_(isolation_threshold) {
  RAPTEE_REQUIRE(is_byzantine_id_, "VictimTracker needs a Byzantine oracle");
  RAPTEE_REQUIRE(!victims_.empty(), "VictimTracker needs at least one victim");
  RAPTEE_REQUIRE(isolation_threshold_ > 0.0 && isolation_threshold_ <= 1.0,
                 "isolation threshold out of (0,1]: " << isolation_threshold_);
}

void VictimTracker::on_round_end(Round round, sim::Engine& engine) {
  double sum = 0.0;
  std::size_t alive = 0;
  bool all_isolated = true;
  for (NodeId id : victims_) {
    if (!engine.is_alive(id)) continue;
    ++alive;
    const std::span<const NodeId> view = engine.view_of(id);
    std::size_t byz = 0;
    for (NodeId entry : view) {
      if (is_byzantine_id_(entry)) ++byz;
    }
    const double share = view.empty()
                             ? 0.0
                             : static_cast<double>(byz) / static_cast<double>(view.size());
    sum += share;
    if (share < isolation_threshold_) all_isolated = false;
  }
  if (alive == 0) return;  // no observable victim; the snapshot reports 0
  series_.push_back(sum / static_cast<double>(alive));
  if (!isolation_round_ && all_isolated) isolation_round_ = round;
}

double VictimTracker::steady_state_pollution(std::size_t window) const {
  return tail_mean(series_, window);
}

}  // namespace raptee::metrics
