#include "rxl/phy/error_model.hpp"

#include <algorithm>
#include <bit>

#include "rxl/common/bytes.hpp"

namespace rxl::phy {

std::size_t IndependentBitErrors::corrupt(std::span<std::uint8_t> flit,
                                          Xoshiro256& rng) {
  const std::size_t total_bits = flit.size() * 8;
  const std::uint64_t flips = rng.binomial(total_bits, ber_);
  if (flips == 0) return 0;
  // Draw distinct positions; collisions are vanishingly rare at realistic
  // flip counts, so rejection is cheap.
  std::size_t applied = 0;
  std::uint64_t chosen[64];
  for (std::uint64_t i = 0; i < flips; ++i) {
    std::uint64_t position;
    bool fresh;
    do {
      position = rng.bounded(total_bits);
      fresh = true;
      for (std::size_t j = 0; j < applied && j < 64; ++j) {
        if (chosen[j] == position) {
          fresh = false;
          break;
        }
      }
    } while (!fresh);
    if (applied < 64) chosen[applied] = position;
    flip_bit(flit, position);
    ++applied;
  }
  return applied;
}

std::size_t DfeBurstErrors::corrupt(std::span<std::uint8_t> flit,
                                    Xoshiro256& rng) {
  const std::size_t total_bits = flit.size() * 8;
  std::size_t flipped = 0;
  // Walk seed errors via geometric gaps (O(seed errors), not O(bits)).
  std::uint64_t position = rng.geometric(seed_ber_);
  while (position < total_bits) {
    flip_bit(flit, position);
    ++flipped;
    // DFE propagation: extend the run while the coin keeps coming up bad.
    std::uint64_t run = position + 1;
    while (run < total_bits && rng.bernoulli(propagation_)) {
      flip_bit(flit, run);
      ++flipped;
      ++run;
    }
    position = run + 1 + rng.geometric(seed_ber_);
  }
  return flipped;
}

std::size_t SymbolBurstInjector::corrupt(std::span<std::uint8_t> flit,
                                         Xoshiro256& rng) {
  if (burst_symbols_ == 0 || flit.empty()) return 0;
  const std::size_t burst = std::min(burst_symbols_, flit.size());
  const std::size_t start = rng.bounded(flit.size() - burst + 1);
  std::size_t bits = 0;
  for (std::size_t i = 0; i < burst; ++i) {
    const auto mask = static_cast<std::uint8_t>(1 + rng.bounded(255));
    flit[start + i] ^= mask;
    bits += static_cast<std::size_t>(std::popcount(mask));
  }
  return bits;
}

}  // namespace rxl::phy
