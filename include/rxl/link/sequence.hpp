// Modulo-1024 sequence-number arithmetic for the 10-bit FSN space.
//
// All comparisons are window-relative: with a retry window no larger than
// half the sequence space (<= 512), the signed distance is unambiguous.
#pragma once

#include <cstdint>

#include "rxl/common/types.hpp"

namespace rxl::link {

/// (a + delta) mod 1024.
[[nodiscard]] constexpr std::uint16_t seq_add(std::uint16_t a,
                                              std::uint16_t delta) noexcept {
  return static_cast<std::uint16_t>((a + delta) & kSeqMask);
}

/// Next sequence number.
[[nodiscard]] constexpr std::uint16_t seq_next(std::uint16_t a) noexcept {
  return seq_add(a, 1);
}

/// Signed distance from `from` to `to`, in (-512, 512]. Positive means `to`
/// is ahead of `from`.
[[nodiscard]] constexpr int seq_distance(std::uint16_t from,
                                         std::uint16_t to) noexcept {
  int d = static_cast<int>((to - from) & kSeqMask);
  if (d > static_cast<int>(kSeqModulus / 2)) d -= static_cast<int>(kSeqModulus);
  return d;
}

/// True iff `a` is strictly before `b` in window order.
[[nodiscard]] constexpr bool seq_before(std::uint16_t a,
                                        std::uint16_t b) noexcept {
  return seq_distance(a, b) > 0;
}

}  // namespace rxl::link
