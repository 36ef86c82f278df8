// Shared pieces of the perfbench workload runner: the in-memory span log,
// the output checker, and process-level readings (CPU time, resident
// memory).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Span log kept in memory and written out once at exit. Each span has a
/// name, start and end (microseconds since the log was created) and the id
/// of the span that caused it (0 = root). A disabled log records nothing
/// and returns id 0 everywhere, so untraced runs pay one branch per call.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Records a finished span; returns its id.
  std::uint64_t add(std::string_view name, std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end);
  /// Opens a span that ends at close().
  std::uint64_t open(std::string_view name, std::uint64_t parent);
  void close(std::uint64_t id);

  /// JSON array of {"id","parent","name","start_us","end_us"}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  [[nodiscard]] double offset_us(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Counts operations and failed output checks. An op (a simulator round,
/// a service request) fails when any of its checks fails; a run check
/// (e.g. the results document parses) has no op of its own but makes the
/// run incorrect when it fails.
class Checker {
 public:
  void op(bool ok, std::string_view what);
  void run_check(bool ok, std::string_view what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && run_failures_ == 0; }
  /// The first few failure descriptions, for the run's stderr report.
  [[nodiscard]] const std::vector<std::string>& failures() const { return notes_; }

 private:
  void note(std::string_view what);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t run_failures_ = 0;
  std::vector<std::string> notes_;
};

/// CPU seconds consumed by every thread of this process so far.
[[nodiscard]] double process_cpu_s();
/// Current and peak resident set size of this process, in bytes.
[[nodiscard]] double rss_bytes();
[[nodiscard]] double peak_rss_bytes();
/// Usable cores (the affinity mask, as nproc reports it).
[[nodiscard]] std::size_t usable_cores();

[[nodiscard]] double mean_of(const std::vector<double>& xs);

/// `fn` applied to each of `items`, for medians and means over repetitions.
template <typename T, typename Fn>
[[nodiscard]] std::vector<double> each(const std::vector<T>& items, Fn&& fn) {
  std::vector<double> out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(fn(item));
  return out;
}

}  // namespace perfbench
