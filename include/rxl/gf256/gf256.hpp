// GF(2^8) arithmetic for Reed-Solomon coding.
//
// Field: GF(2^8) with primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D),
// the polynomial used by CCSDS / most wire-protocol RS codes. The primitive
// element alpha = 0x02 generates the multiplicative group of order 255.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace rxl::gf256 {

inline constexpr unsigned kPrimitivePoly = 0x11D;
inline constexpr unsigned kFieldSize = 256;
inline constexpr unsigned kGroupOrder = 255;

namespace detail {

/// Builds exp table: exp[i] = alpha^i for i in [0, 510) so products of two
/// logs can be looked up without a mod-255 reduction.
constexpr std::array<std::uint8_t, 512> build_exp_table() {
  std::array<std::uint8_t, 512> table{};
  unsigned value = 1;
  for (unsigned i = 0; i < kGroupOrder; ++i) {
    table[i] = static_cast<std::uint8_t>(value);
    value <<= 1;
    if (value & 0x100) value ^= kPrimitivePoly;
  }
  for (unsigned i = kGroupOrder; i < 512; ++i)
    table[i] = table[i - kGroupOrder];
  return table;
}

constexpr std::array<std::uint8_t, 256> build_log_table() {
  std::array<std::uint8_t, 256> table{};
  const auto exp = build_exp_table();
  for (unsigned i = 0; i < kGroupOrder; ++i) table[exp[i]] = static_cast<std::uint8_t>(i);
  table[0] = 0;  // log(0) is undefined; callers must check for zero.
  return table;
}

inline constexpr auto kExp = build_exp_table();
inline constexpr auto kLog = build_log_table();

}  // namespace detail

/// Addition and subtraction coincide in characteristic 2.
[[nodiscard]] constexpr std::uint8_t add(std::uint8_t a, std::uint8_t b) noexcept {
  return a ^ b;
}

/// alpha^power for any non-negative power (reduced mod 255).
[[nodiscard]] constexpr std::uint8_t alpha_pow(unsigned power) noexcept {
  return detail::kExp[power % kGroupOrder];
}

/// alpha^power without the mod-255 reduction. Precondition: power < 510
/// (the exp table is doubled). Hot loops keep their exponent in range with
/// a conditional subtract and call this instead of alpha_pow, so no `%`
/// lands in the inner loop.
[[nodiscard]] constexpr std::uint8_t alpha_pow_unreduced(unsigned power) noexcept {
  return detail::kExp[power];
}

/// Discrete log base alpha. Precondition: a != 0.
[[nodiscard]] constexpr unsigned log(std::uint8_t a) noexcept {
  return detail::kLog[a];
}

[[nodiscard]] constexpr std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  return detail::kExp[detail::kLog[a] + detail::kLog[b]];
}

/// Multiplicative inverse. Precondition: a != 0.
[[nodiscard]] constexpr std::uint8_t inv(std::uint8_t a) noexcept {
  return detail::kExp[kGroupOrder - detail::kLog[a]];
}

/// a / b. Precondition: b != 0.
[[nodiscard]] constexpr std::uint8_t div(std::uint8_t a, std::uint8_t b) noexcept {
  if (a == 0) return 0;
  return detail::kExp[detail::kLog[a] + kGroupOrder - detail::kLog[b]];
}

namespace detail {

/// 4-bit split of the 256x256 product table: for any c, x
///   mul(c, x) == kMulLo[c*16 + (x & 0x0F)] ^ kMulHi[c*16 + (x >> 4)]
/// because x = lo + hi*16 and multiplication distributes over GF addition.
/// Two 4 KiB tables stay resident in L1 and the lookup has no zero-branch,
/// which is what lets the span kernels below run as straight-line
/// load/xor/store loops the compiler can unroll and vectorize.
struct MulNibTables {
  std::array<std::uint8_t, kFieldSize * 16> lo{};
  std::array<std::uint8_t, kFieldSize * 16> hi{};
};

constexpr MulNibTables build_mul_nib_tables() {
  MulNibTables t;
  for (unsigned c = 0; c < kFieldSize; ++c) {
    for (unsigned nib = 0; nib < 16; ++nib) {
      t.lo[c * 16 + nib] = mul(static_cast<std::uint8_t>(c),
                               static_cast<std::uint8_t>(nib));
      t.hi[c * 16 + nib] = mul(static_cast<std::uint8_t>(c),
                               static_cast<std::uint8_t>(nib << 4));
    }
  }
  return t;
}

inline constexpr auto kMulNib = build_mul_nib_tables();

/// The nibble-table product: mul(c, x) with row == c * 16 hoisted by the
/// caller. All batch kernels and strided RS loops funnel through this one
/// expression so a table-layout change lands in exactly one place.
[[nodiscard]] constexpr std::uint8_t mul_nib(std::size_t row,
                                             std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>(kMulNib.lo[row + (x & 0x0F)] ^
                                   kMulNib.hi[row + (x >> 4)]);
}

}  // namespace detail

// --- Isomorphism onto the AES field ----------------------------------------
// x86 GFNI multiplies in GF(2^8) reduced by 0x11B (the AES polynomial), not
// 0x11D. Both are GF(2^8), so some field isomorphism phi maps this field onto
// that one: phi(mul(a, b)) == mul_aes(phi(a), phi(b)). phi is linear over
// GF(2), i.e. an 8x8 bit matrix, which is what lets a vector kernel map
// bytes across with one gf2p8affineqb, multiply with gf2p8mulb, and map the
// results back. Everything here is constexpr-built and tested exhaustively
// (tests/test_codec_kernels.cpp).

inline constexpr unsigned kAesPoly = 0x11B;

/// Product in GF(2^8) mod 0x11B (shift-and-add; the gf2p8mulb reference).
[[nodiscard]] constexpr std::uint8_t mul_aes(std::uint8_t a,
                                             std::uint8_t b) noexcept {
  unsigned acc = 0;
  unsigned x = a;
  for (unsigned y = b; y != 0; y >>= 1) {
    if (y & 1) acc ^= x;
    x <<= 1;
    if (x & 0x100) x ^= kAesPoly;
  }
  return static_cast<std::uint8_t>(acc);
}

namespace detail {

/// The smallest root beta of x^8 + x^4 + x^3 + x^2 + 1 in the AES field;
/// phi sends alpha (0x02) to it.
constexpr std::uint8_t aes_image_of_alpha() {
  for (unsigned b = 2; b < kFieldSize; ++b) {
    const auto beta = static_cast<std::uint8_t>(b);
    const std::uint8_t b2 = mul_aes(beta, beta);
    const std::uint8_t b4 = mul_aes(b2, b2);
    const std::uint8_t b3 = mul_aes(b2, beta);
    if ((mul_aes(b4, b4) ^ b4 ^ b3 ^ b2 ^ 1) == 0) return beta;
  }
  return 0;  // unreachable: 0x11D splits over GF(2^8)
}

struct AesMap {
  std::array<std::uint8_t, kFieldSize> to{};    ///< phi
  std::array<std::uint8_t, kFieldSize> from{};  ///< phi^-1
};

constexpr AesMap build_aes_map() {
  AesMap map;
  const std::uint8_t beta = aes_image_of_alpha();
  std::uint8_t image = 1;  // beta^i == phi(alpha^i)
  for (unsigned i = 0; i < kGroupOrder; ++i) {
    map.to[kExp[i]] = image;
    map.from[image] = kExp[i];
    image = mul_aes(image, beta);
  }
  return map;
}

inline constexpr auto kAesMap = build_aes_map();

}  // namespace detail

/// phi: this field -> the AES field.
[[nodiscard]] constexpr std::uint8_t to_aes(std::uint8_t a) noexcept {
  return detail::kAesMap.to[a];
}

/// phi^-1: the AES field -> this field.
[[nodiscard]] constexpr std::uint8_t from_aes(std::uint8_t a) noexcept {
  return detail::kAesMap.from[a];
}

/// phi as the matrix operand of gf2p8affineqb: byte 7 - i holds the mask of
/// input bits whose parity is output bit i (column k is phi(2^k)).
[[nodiscard]] constexpr std::uint64_t to_aes_affine_matrix() noexcept {
  std::uint64_t matrix = 0;
  for (unsigned i = 0; i < 8; ++i) {
    std::uint64_t row = 0;
    for (unsigned k = 0; k < 8; ++k)
      row |= std::uint64_t{(to_aes(static_cast<std::uint8_t>(1u << k)) >> i) & 1u}
             << k;
    matrix |= row << (8 * (7 - i));
  }
  return matrix;
}

// --- Batch (span) kernels -------------------------------------------------
// The scalar `mul` above stays the semantic reference; every kernel below is
// tested byte-for-byte against it (tests/test_gf256.cpp). The RS hot paths
// consume xor_fold_span/dot_span (plus strided detail::mul_nib loops).

/// XOR-reduction of a span, folded 8 bytes at a time. This is syndrome S0
/// (the weight-1 dot product) of any codeword.
[[nodiscard]] std::uint8_t xor_fold_span(
    std::span<const std::uint8_t> data) noexcept;

/// sum_i mul(weights[i], data[i]) — branchless table-driven dot product.
/// Spans must be equal length.
[[nodiscard]] std::uint8_t dot_span(std::span<const std::uint8_t> weights,
                                    std::span<const std::uint8_t> data) noexcept;

}  // namespace rxl::gf256
