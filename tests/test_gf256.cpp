// Field-axiom and arithmetic tests for GF(2^8).
#include "rxl/gf256/gf256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

namespace rxl::gf256 {
namespace {

TEST(Gf256, AddIsXor) {
  EXPECT_EQ(add(0x00, 0x00), 0x00);
  EXPECT_EQ(add(0xFF, 0xFF), 0x00);
  EXPECT_EQ(add(0xA5, 0x5A), 0xFF);
}

TEST(Gf256, MulIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(mul(1, static_cast<std::uint8_t>(a)), a);
    EXPECT_EQ(mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, MulMatchesSchoolbook) {
  // Reference carry-less multiply mod 0x11D.
  auto slow_mul = [](std::uint8_t a, std::uint8_t b) {
    unsigned acc = 0;
    unsigned aa = a;
    for (int i = 0; i < 8; ++i) {
      if (b & (1 << i)) acc ^= aa << i;
    }
    for (int bit = 15; bit >= 8; --bit) {
      if (acc & (1u << bit)) acc ^= kPrimitivePoly << (bit - 8);
    }
    return static_cast<std::uint8_t>(acc);
  };
  for (unsigned a = 0; a < 256; a += 3) {
    for (unsigned b = 0; b < 256; b += 7) {
      EXPECT_EQ(mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                slow_mul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

TEST(Gf256, MulCommutativeAssociative) {
  for (unsigned a = 1; a < 256; a += 5) {
    for (unsigned b = 1; b < 256; b += 11) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      EXPECT_EQ(mul(x, y), mul(y, x));
      const std::uint8_t z = 0x37;
      EXPECT_EQ(mul(mul(x, y), z), mul(x, mul(y, z)));
    }
  }
}

TEST(Gf256, DistributiveLaw) {
  for (unsigned a = 0; a < 256; a += 17) {
    for (unsigned b = 0; b < 256; b += 13) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      const std::uint8_t z = 0x9C;
      EXPECT_EQ(mul(z, add(x, y)), add(mul(z, x), mul(z, y)));
    }
  }
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(x, inv(x)), 1) << "a=" << a;
  }
}

TEST(Gf256, DivIsMulByInverse) {
  for (unsigned a = 0; a < 256; a += 9) {
    for (unsigned b = 1; b < 256; b += 23) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      EXPECT_EQ(div(x, y), mul(x, inv(y)));
      EXPECT_EQ(mul(div(x, y), y), x);
    }
  }
}

TEST(Gf256, AlphaGeneratesFullGroup) {
  bool seen[256] = {};
  for (unsigned i = 0; i < kGroupOrder; ++i) {
    const std::uint8_t value = alpha_pow(i);
    EXPECT_NE(value, 0);
    EXPECT_FALSE(seen[value]) << "alpha^" << i << " repeats";
    seen[value] = true;
  }
  EXPECT_EQ(alpha_pow(kGroupOrder), alpha_pow(0));  // order divides 255
}

TEST(Gf256, LogIsInverseOfExp) {
  for (unsigned i = 0; i < kGroupOrder; ++i) {
    EXPECT_EQ(log(alpha_pow(i)), i);
  }
}

// --- Span kernel equivalence: every batch kernel must agree byte-for-byte
// with the scalar `mul` reference for all 256 scalars, lengths 0..300, and
// unaligned base addresses. ---

/// Deterministic pseudo-random fill (no RNG dependency in this TU).
std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> out(n);
  std::uint32_t state = seed * 2654435761u + 1;
  for (auto& byte : out) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<std::uint8_t>(state >> 24);
  }
  return out;
}

TEST(Gf256Span, XorFoldSpanMatchesByteLoop) {
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::size_t offset = len % 8;
    const auto backing = pattern_bytes(301 + 8, 8 + len);
    const std::span<const std::uint8_t> data(backing.data() + offset, len);
    std::uint8_t expected = 0;
    for (const std::uint8_t byte : data) expected ^= byte;
    ASSERT_EQ(xor_fold_span(data), expected) << "len=" << len;
  }
}

TEST(Gf256Span, DotSpanMatchesScalarMulSum) {
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::size_t offset = len % 8;
    const auto w_backing = pattern_bytes(301 + 8, 9 + len);
    const auto d_backing = pattern_bytes(301 + 8, 10 + len);
    const std::span<const std::uint8_t> w(w_backing.data() + offset, len);
    const std::span<const std::uint8_t> d(d_backing.data() + offset, len);
    std::uint8_t expected = 0;
    for (std::size_t i = 0; i < len; ++i) expected ^= mul(w[i], d[i]);
    ASSERT_EQ(dot_span(w, d), expected) << "len=" << len;
  }
}

TEST(Gf256Span, NibbleTablesReconstructFullProductTable) {
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned x = 0; x < 256; ++x) {
      const std::uint8_t via_tables = static_cast<std::uint8_t>(
          detail::kMulNib.lo[c * 16 + (x & 0x0F)] ^
          detail::kMulNib.hi[c * 16 + (x >> 4)]);
      ASSERT_EQ(via_tables, mul(static_cast<std::uint8_t>(c),
                                static_cast<std::uint8_t>(x)))
          << c << " * " << x;
    }
  }
}

TEST(Gf256, AlphaPowUnreducedMatchesAlphaPow) {
  for (unsigned power = 0; power < 2 * kGroupOrder; ++power)
    ASSERT_EQ(alpha_pow_unreduced(power), alpha_pow(power)) << power;
}

}  // namespace
}  // namespace rxl::gf256
