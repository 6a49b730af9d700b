// CRC-64 for flit integrity (paper Fig. 3: 8 B CRC per 256 B flit).
//
// Parameters are CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout all
// ones) — a standard 64-bit CRC with the detection properties the paper
// relies on: all burst errors up to 64 bits detected, undetected-error
// probability 2^-64 for longer random corruption.
//
// Four implementations are provided (bitwise reference, byte-table,
// slice-by-8, and a PCLMULQDQ folding kernel that `update` picks at run
// time when the CPU has carry-less multiply) so tests can cross-validate
// them and the microbenchmarks can report the throughput trade-off.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace rxl::crc {

/// ECMA-182 generator polynomial, normal (MSB-first) form without the x^64
/// term.
inline constexpr std::uint64_t kPoly64 = 0x42F0E1EBA9EA3693ull;
/// Reflected form of kPoly64, as the table and bitwise kernels use it.
inline constexpr std::uint64_t kPoly64Reflected = 0xC96C5795D7870F42ull;
inline constexpr std::uint64_t kInit64 = ~0ull;
inline constexpr std::uint64_t kXorOut64 = ~0ull;

/// Bit i of the result is bit 63 - i of `value`.
[[nodiscard]] constexpr std::uint64_t bit_reverse64(std::uint64_t value) noexcept {
  std::uint64_t out = 0;
  for (int bit = 0; bit < 64; ++bit) {
    out = (out << 1) | (value & 1);
    value >>= 1;
  }
  return out;
}

/// Bit-at-a-time reference implementation (used as the test oracle).
[[nodiscard]] std::uint64_t crc64_bitwise(std::span<const std::uint8_t> data);

/// Table-driven CRC-64 engine. Stateless once constructed; safe to share
/// across threads after construction.
class Crc64 {
 public:
  Crc64();

  /// One-shot CRC over `data` (init/xorout applied).
  [[nodiscard]] std::uint64_t compute(std::span<const std::uint8_t> data) const;

  /// Slice-by-8 variant; identical result, higher throughput.
  [[nodiscard]] std::uint64_t compute_sliced(
      std::span<const std::uint8_t> data) const;

  /// Streaming interface: `state = begin(); state = update(state, chunk);
  /// crc = finish(state);`. Enables the ISN on-the-fly XOR fold without
  /// copying the message.
  [[nodiscard]] static std::uint64_t begin() noexcept { return kInit64; }
  /// Dispatches on span length: spans of at least 64 B go to the PCLMULQDQ
  /// folding kernel when the CPU has it, shorter ones (and every span on
  /// CPUs without it) to `update_sliced`. All paths give identical results.
  [[nodiscard]] std::uint64_t update(std::uint64_t state,
                                     std::span<const std::uint8_t> data) const;
  /// Streaming slice-by-8 kernel (no init/xorout): the scalar reference the
  /// carry-less-multiply kernel is tested against.
  [[nodiscard]] std::uint64_t update_sliced(
      std::uint64_t state, std::span<const std::uint8_t> data) const;
  [[nodiscard]] std::uint64_t update_byte(std::uint64_t state,
                                          std::uint8_t byte) const {
    return table_[0][(state ^ byte) & 0xFF] ^ (state >> 8);
  }
  [[nodiscard]] static std::uint64_t finish(std::uint64_t state) noexcept {
    return state ^ kXorOut64;
  }

  /// Kernel `update` uses for long spans on this CPU, fixed at start-up:
  /// "pclmulqdq" or "slice-by-8".
  [[nodiscard]] static const char* kernel_name() noexcept;

 private:
  std::array<std::array<std::uint64_t, 256>, 8> table_;
};

/// Process-wide shared engine (tables built once).
[[nodiscard]] const Crc64& shared_crc64();

}  // namespace rxl::crc
