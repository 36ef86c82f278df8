#include "metrics/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/assert.hpp"

namespace raptee::metrics {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  RAPTEE_REQUIRE(cells.size() == headers_.size(),
                 "row width " << cells.size() << " != header width " << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream oss;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      oss << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    oss << '\n';
  };
  emit_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += std::string(widths[c] + 2, '-');
  oss << rule << '\n';
  for (const auto& row : rows_) emit_row(row);
  return oss.str();
}

std::string fmt(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

}  // namespace raptee::metrics
