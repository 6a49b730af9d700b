#include "rxl/sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace rxl::sim {

Proportion wilson_interval(std::uint64_t successes, std::uint64_t trials,
                           double z) noexcept {
  Proportion result;
  if (trials == 0) return result;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  result.estimate = p;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  result.lower = std::max(0.0, center - half);
  result.upper = std::min(1.0, center + half);
  return result;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      line += " " + cell + std::string(width[c] - cell.size(), ' ') + " |";
    }
    return line + "\n";
  };

  std::string separator = "|";
  for (std::size_t c = 0; c < headers_.size(); ++c)
    separator += std::string(width[c] + 2, '-') + "|";
  separator += "\n";

  std::string out = emit_row(headers_);
  out += separator;
  for (const auto& row : rows_) out += emit_row(row);
  return out;
}

std::string sci(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", digits, value);
  return buf;
}

std::string pct(double fraction, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", digits, fraction * 100.0);
  return buf;
}

}  // namespace rxl::sim
