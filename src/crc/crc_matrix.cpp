#include "rxl/crc/crc_matrix.hpp"

#include <bit>
#include <span>

#include "rxl/common/bytes.hpp"
#include "rxl/crc/crc64.hpp"

namespace rxl::crc {

CrcMatrix::CrcMatrix(std::size_t message_bits) : bits_(message_bits) {
  const std::size_t n_bytes = (message_bits + 7) / 8;
  std::vector<std::uint8_t> scratch(n_bytes, 0);
  const Crc64& engine = shared_crc64();
  constant_ = engine.compute(scratch);
  columns_.resize(message_bits);
  for (std::size_t i = 0; i < message_bits; ++i) {
    flip_bit(scratch, i);
    columns_[i] = engine.compute(scratch) ^ constant_;
    flip_bit(scratch, i);
  }
}

std::size_t CrcMatrix::fanin(unsigned output_bit) const {
  std::size_t count = 0;
  const std::uint64_t mask = 1ull << output_bit;
  for (const std::uint64_t column : columns_) count += (column & mask) ? 1 : 0;
  return count;
}

std::uint64_t CrcMatrix::apply(std::span<const std::uint8_t> message) const {
  std::uint64_t acc = constant_;
  for (std::size_t i = 0; i < bits_ && i < message.size() * 8; ++i) {
    if ((message[i / 8] >> (i % 8)) & 1u) acc ^= columns_[i];
  }
  return acc;
}

bool CrcMatrix::injective_on(std::span<const std::size_t> bit_positions) const {
  // L restricted to a subspace is injective iff the columns are linearly
  // independent; check by Gaussian elimination over GF(2).
  std::vector<std::uint64_t> basis;
  for (const std::size_t position : bit_positions) {
    std::uint64_t v = columns_[position];
    for (const std::uint64_t b : basis) {
      const std::uint64_t reduced = v ^ b;
      if (reduced < v) v = reduced;  // reduce against higher leading bits
    }
    if (v == 0) return false;
    basis.push_back(v);
    // Keep basis reduced: sort descending by leading bit (small set; simple).
    for (std::size_t i = basis.size(); i-- > 1;) {
      if (basis[i] > basis[i - 1]) std::swap(basis[i], basis[i - 1]);
    }
  }
  return true;
}

}  // namespace rxl::crc
