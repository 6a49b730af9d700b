#include "rxl/crc/crc64.hpp"

#include <cstddef>

#include "rxl/common/bytes.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define RXL_CRC64_CLMUL 1
#endif

namespace rxl::crc {

#if defined(RXL_CRC64_CLMUL)
namespace {

// Carry-less-multiply folding (the Intel "Fast CRC Computation Using
// PCLMULQDQ" scheme, in the reflected domain). A 16 B block loaded little-
// endian holds a 128-bit polynomial with its first wire bit in bit 0; its
// low qword H is the high-degree half. Moving the block forward by 128*b
// bits multiplies it by x^(128b) mod G, i.e.
//   H * (x^(128b+64) mod G) + L * (x^(128b) mod G).
// PCLMULQDQ of two bit-reflected 64-bit operands yields the reflected
// product shifted up by one bit, so each constant carries one factor of x
// less: x^(128b+63) mod G for H and x^(128b-1) mod G for L.

/// x^power mod G, normal form (bit i is the coefficient of x^i).
constexpr std::uint64_t x_pow_mod(unsigned power) noexcept {
  std::uint64_t r = 1;
  for (unsigned i = 0; i < power; ++i)
    r = (r << 1) ^ ((r >> 63) ? kPoly64 : 0);
  return r;
}

/// Reflected fold constants for moving a block forward by `blocks` x 16 B.
struct FoldConstants {
  std::uint64_t lo;  ///< x^(128b+63) mod G, for the low qword (H)
  std::uint64_t hi;  ///< x^(128b-1) mod G, for the high qword (L)
};

constexpr FoldConstants fold_constants(unsigned blocks) noexcept {
  return {bit_reverse64(x_pow_mod(128 * blocks + 63)),
          bit_reverse64(x_pow_mod(128 * blocks - 1))};
}

constexpr FoldConstants kFold16 = fold_constants(1);
constexpr FoldConstants kFold64 = fold_constants(4);

__attribute__((target("pclmul,sse2"))) inline __m128i fold(__m128i acc,
                                                           __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                       _mm_clmulepi64_si128(acc, k, 0x11));
}

__attribute__((target("pclmul,sse2"))) inline __m128i load16(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Streaming update over data.size() >= 64: four 128-bit accumulators fold
/// 64 B per step, collapse into one, which then folds the remaining whole
/// 16 B blocks. The last accumulator (16 B) and any tail bytes go through
/// the slice-by-8 table, which performs the final reduction mod G. A span
/// of whole 16 B blocks (the flit's 240 B payload) leaves no tail.
__attribute__((target("pclmul,sse2"))) std::uint64_t update_clmul(
    const Crc64& table, std::uint64_t state,
    std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const __m128i k64 = _mm_set_epi64x(static_cast<long long>(kFold64.hi),
                                     static_cast<long long>(kFold64.lo));
  const __m128i k16 = _mm_set_epi64x(static_cast<long long>(kFold16.hi),
                                     static_cast<long long>(kFold16.lo));
  // The reflected state XORs onto the first 8 message bytes, exactly as the
  // table kernels fold it into their first word.
  __m128i x0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi64_si128(static_cast<long long>(state)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(fold(x0, k64), load16(p));
    x1 = _mm_xor_si128(fold(x1, k64), load16(p + 16));
    x2 = _mm_xor_si128(fold(x2, k64), load16(p + 32));
    x3 = _mm_xor_si128(fold(x3, k64), load16(p + 48));
  }
  __m128i acc = _mm_xor_si128(fold(x0, k16), x1);
  acc = _mm_xor_si128(fold(acc, k16), x2);
  acc = _mm_xor_si128(fold(acc, k16), x3);
  for (; n >= 16; p += 16, n -= 16) acc = _mm_xor_si128(fold(acc, k16), load16(p));
  std::uint8_t last[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(last), acc);
  state = table.update_sliced(0, last);
  return n == 0 ? state : table.update_sliced(state, {p, n});
}

/// Read once: the CPU does not change under a running process.
bool cpu_has_clmul() noexcept {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

}  // namespace
#endif

std::uint64_t crc64_bitwise(std::span<const std::uint8_t> data) {
  std::uint64_t state = kInit64;
  for (const std::uint8_t byte : data) {
    state ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1) ? kPoly64Reflected : 0);
    }
  }
  return state ^ kXorOut64;
}

Crc64::Crc64() {
  // table_[0]: classic byte table; table_[k]: k extra zero bytes folded in,
  // for the slice-by-8 kernel.
  for (unsigned b = 0; b < 256; ++b) {
    std::uint64_t state = b;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1) ? kPoly64Reflected : 0);
    }
    table_[0][b] = state;
  }
  for (unsigned slice = 1; slice < 8; ++slice) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint64_t prev = table_[slice - 1][b];
      table_[slice][b] = table_[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
}

std::uint64_t Crc64::compute(std::span<const std::uint8_t> data) const {
  return finish(update(begin(), data));
}

std::uint64_t Crc64::update(std::uint64_t state,
                            std::span<const std::uint8_t> data) const {
#if defined(RXL_CRC64_CLMUL)
  if (data.size() >= 64 && cpu_has_clmul())
    return update_clmul(*this, state, data);
#endif
  return update_sliced(state, data);
}

const char* Crc64::kernel_name() noexcept {
#if defined(RXL_CRC64_CLMUL)
  if (cpu_has_clmul()) return "pclmulqdq";
#endif
  return "slice-by-8";
}

std::uint64_t Crc64::update_sliced(std::uint64_t state,
                                   std::span<const std::uint8_t> data) const {
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t word = load_le64(data, i) ^ state;
    state = table_[7][word & 0xFF] ^ table_[6][(word >> 8) & 0xFF] ^
            table_[5][(word >> 16) & 0xFF] ^ table_[4][(word >> 24) & 0xFF] ^
            table_[3][(word >> 32) & 0xFF] ^ table_[2][(word >> 40) & 0xFF] ^
            table_[1][(word >> 48) & 0xFF] ^ table_[0][(word >> 56) & 0xFF];
  }
  for (; i < n; ++i) state = update_byte(state, data[i]);
  return state;
}

std::uint64_t Crc64::compute_sliced(std::span<const std::uint8_t> data) const {
  return finish(update_sliced(begin(), data));
}

const Crc64& shared_crc64() {
  static const Crc64 engine;
  return engine;
}

}  // namespace rxl::crc
