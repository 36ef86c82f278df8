// Reporting helpers: aligned text tables (the bench binaries print the
// paper's rows/series) and fixed-precision number formatting. Machine-
// readable output is JSON (metrics/json.hpp, scenario/results.hpp).
#pragma once

#include <string>
#include <vector>

namespace raptee::metrics {

/// Column-aligned text table with a header row.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Renders with 2-space column padding.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
[[nodiscard]] std::string fmt(double value, int precision = 1);

}  // namespace raptee::metrics
