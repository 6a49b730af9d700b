// Deterministic random number generation for simulations.
//
// Every stochastic component in the library takes an explicit seed so that
// simulation runs are exactly reproducible. We use xoshiro256** (public
// domain, Blackman & Vigna) rather than std::mt19937_64: it is faster,
// has a smaller state, and its output is identical across standard library
// implementations, which matters for cross-platform reproducibility of the
// experiment logs in EXPERIMENTS.md.
#pragma once

#include <array>
#include <cstdint>

namespace rxl {

/// xoshiro256** 1.0 generator with splitmix64 seeding.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64,
  /// as recommended by the generator's authors. Inline, like the draw: the
  /// fabric sources seed one generator per 240 B payload and draw 29 words
  /// from it.
  explicit Xoshiro256(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
    // A state of all zeros is the one fixed point of the generator; the
    // splitmix64 expansion cannot produce it for any seed, but guard anyway.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept;

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Number of successes in n independent Bernoulli(p) trials.
  /// Uses inversion for small n*p and a direct loop otherwise; exact
  /// distribution, no normal approximation (the tails matter for rare
  /// error-injection events).
  std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  /// Geometric: number of failures before the first success, i.e. the
  /// index of the next success in a Bernoulli(p) stream. Returns a huge
  /// value if p == 0.
  std::uint64_t geometric(double p) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  static constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace rxl
