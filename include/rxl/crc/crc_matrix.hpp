// GF(2) linear-map view of the CRC, for the §7.3 hardware cost model.
//
// A CRC with fixed init/xorout is an affine map over GF(2): crc(m) = L(m) ^ c
// where L is linear in the message bits. This module materialises L for a
// fixed message length as 64 row vectors (one per CRC output bit), from
// which the combinational XOR-tree cost of a parallel CRC circuit follows
// directly: output bit j needs popcount(row_j) - 1 two-input XOR gates and
// ceil(log2(popcount(row_j))) levels of logic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rxl::crc {

/// The linear part of the CRC map for messages of `message_bits` bits.
class CrcMatrix {
 public:
  /// Builds the matrix by feeding unit-impulse messages through the CRC.
  /// O(message_bits) CRC evaluations; fine for flit-sized messages.
  explicit CrcMatrix(std::size_t message_bits);

  [[nodiscard]] std::size_t message_bits() const noexcept { return bits_; }

  /// Column for input bit `i`: the 64-bit CRC delta caused by flipping
  /// message bit i. (Bit i follows the wire order: bit 0 = LSB of byte 0.)
  [[nodiscard]] std::uint64_t column(std::size_t i) const { return columns_[i]; }

  /// Fan-in of CRC output bit j: number of message bits XORed into it.
  [[nodiscard]] std::size_t fanin(unsigned output_bit) const;

  /// Evaluate L(m) ^ c for an arbitrary message (test cross-check against
  /// the real CRC engine).
  [[nodiscard]] std::uint64_t apply(
      std::span<const std::uint8_t> message) const;

  /// True iff the restriction of L to the given bit positions is injective,
  /// i.e. any two distinct values XOR-folded at those positions produce
  /// different CRCs. This is the property that makes ISN sound: the 10
  /// sequence bits must map to 1024 distinct CRC deltas.
  [[nodiscard]] bool injective_on(std::span<const std::size_t> bit_positions) const;

 private:
  std::size_t bits_;
  std::uint64_t constant_;
  std::vector<std::uint64_t> columns_;
};

}  // namespace rxl::crc
