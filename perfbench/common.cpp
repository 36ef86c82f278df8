#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <numeric>

#include "metrics/json.hpp"

namespace perfbench {

double Trace::offset_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::uint64_t Trace::add(std::string_view name, std::uint64_t parent,
                         Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, std::string(name), offset_us(start), offset_us(end)});
  return id;
}

std::uint64_t Trace::open(std::string_view name, std::uint64_t parent) {
  const auto now = Clock::now();
  return add(name, parent, now, now);
}

void Trace::close(std::uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_us = offset_us(Clock::now());
}

std::string Trace::to_json() const {
  raptee::metrics::JsonArray out;
  for (const Span& s : spans_) {
    out.item_raw(raptee::metrics::JsonObject()
                     .field("id", s.id)
                     .field("parent", s.parent)
                     .field("name", s.name)
                     .field("start_us", s.start_us)
                     .field("end_us", s.end_us)
                     .str());
  }
  return out.str();
}

void Checker::note(std::string_view what) {
  constexpr std::size_t kMaxNotes = 16;
  if (notes_.size() < kMaxNotes) notes_.emplace_back(what);
}

void Checker::op(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  note(what);
}

void Checker::run_check(bool ok, std::string_view what) {
  if (ok) return;
  ++run_failures_;
  note(what);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double rss_bytes() {
  // /proc/self/statm: size resident shared text lib data dt (in pages).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double peak_rss_bytes() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image exec() replaced, i.e. of whatever process launched us.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) * 1024.0;
}

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

}  // namespace perfbench
