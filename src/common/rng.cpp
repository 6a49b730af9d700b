#include "rxl/common/rng.hpp"

#include <cmath>
#include <limits>

namespace rxl {

double Xoshiro256::uniform() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::uint64_t Xoshiro256::bounded(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Xoshiro256::binomial(std::uint64_t n, double p) noexcept {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  // For the small n*p regime this library lives in (flit error injection:
  // n = 2048 bits, p <= 1e-3), skip-ahead sampling via geometric gaps is
  // exact and O(successes) instead of O(n).
  const double expected = static_cast<double>(n) * p;
  if (expected < 32.0) {
    std::uint64_t count = 0;
    std::uint64_t position = geometric(p);
    while (position < n) {
      ++count;
      position += 1 + geometric(p);
    }
    return count;
  }
  // Dense regime: direct trials (only reached by stress configurations).
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < n; ++i) count += bernoulli(p) ? 1 : 0;
  return count;
}

std::uint64_t Xoshiro256::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  const double u = uniform();
  // Inverse transform: floor(log(1-u) / log(1-p)).
  const double g = std::floor(std::log1p(-u) / std::log1p(-p));
  if (g >= 9.2e18) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(g);
}

}  // namespace rxl
