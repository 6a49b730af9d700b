// Lightweight statistics helpers used by benches and examples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rxl::sim {

/// Wilson score interval for a binomial proportion — the right interval for
/// the rare-event rates the benches estimate (never collapses to [0,0] at
/// zero observed events).
struct Proportion {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};
[[nodiscard]] Proportion wilson_interval(std::uint64_t successes,
                                         std::uint64_t trials,
                                         double z = 1.96) noexcept;

/// Fixed-width ASCII table writer so every bench prints uniform,
/// paper-comparable rows.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Scientific-notation formatting helper ("2.93e-03").
[[nodiscard]] std::string sci(double value, int digits = 2);
/// Fixed-point percentage ("0.30%").
[[nodiscard]] std::string pct(double fraction, int digits = 2);

/// "[lo,hi]" from two preformatted bounds (e.g. pct/sci output). Built with
/// += appends rather than operator+ chains, which trip a GCC 12 -Wrestrict
/// false positive at -O2/-O3 under -Werror.
[[nodiscard]] inline std::string interval_str(const std::string& lo,
                                              const std::string& hi) {
  std::string out;
  out += '[';
  out += lo;
  out += ',';
  out += hi;
  out += ']';
  return out;
}

}  // namespace rxl::sim
