// Vector codec kernels vs their scalar references: the PCLMULQDQ CRC-64
// fold, the AVX-512BW + GFNI flit FEC pass, and the field isomorphism the
// latter rests on. Cases that only mean something when a vector kernel is
// active skip, naming the missing CPU feature, on CPUs without it. The
// exhaustive single-byte and burst decode sweeps against the per-lane
// reference live in test_flit_fec.cpp and run on whichever kernel is active.
#include <gtest/gtest.h>

#include <array>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "rxl/common/rng.hpp"
#include "rxl/common/types.hpp"
#include "rxl/crc/crc64.hpp"
#include "rxl/gf256/gf256.hpp"
#include "rxl/rs/flit_fec.hpp"

namespace rxl {
namespace {

/// CPU features the CRC kernel needs that this CPU lacks ("" if none).
std::string missing_clmul() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") ? "" : " PCLMULQDQ";
#else
  return " PCLMULQDQ (not an x86-64 target)";
#endif
}

/// CPU features the FEC kernel needs that this CPU lacks ("" if none).
std::string missing_gfni() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  std::string missing;
  if (!__builtin_cpu_supports("avx512f")) missing += " AVX-512F";
  if (!__builtin_cpu_supports("avx512bw")) missing += " AVX-512BW";
  if (!__builtin_cpu_supports("gfni")) missing += " GFNI";
  return missing;
#else
  return " AVX-512BW GFNI (not an x86-64 target)";
#endif
}

// --- CRC-64 ------------------------------------------------------------------

std::uint64_t bitwise_update(std::uint64_t state,
                             std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    state ^= byte;
    for (int bit = 0; bit < 8; ++bit)
      state = (state >> 1) ^ ((state & 1) ? crc::kPoly64Reflected : 0);
  }
  return state;
}

TEST(Crc64Kernels, ReflectedPolyIsBitReverseOfEcma182) {
  EXPECT_EQ(crc::kPoly64Reflected, crc::bit_reverse64(crc::kPoly64));
  EXPECT_EQ(crc::bit_reverse64(crc::kPoly64Reflected), crc::kPoly64);
  EXPECT_EQ(crc::bit_reverse64(1), 1ull << 63);
}

TEST(Crc64Kernels, KernelNameMatchesCpu) {
  EXPECT_EQ(std::string_view(crc::Crc64::kernel_name()),
            missing_clmul().empty() ? "pclmulqdq" : "slice-by-8");
}

TEST(Crc64Kernels, DispatchedMatchesSlicedAndBitwise) {
  if (const std::string missing = missing_clmul(); !missing.empty())
    GTEST_SKIP() << "CPU lacks" << missing;
  const crc::Crc64& engine = crc::shared_crc64();
  Xoshiro256 rng(1201);
  std::vector<std::uint8_t> buffer(1024 + 16);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.bounded(256));
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::span<const std::uint8_t> data(buffer.data() + offset, length);
      const std::uint64_t state = rng();
      const std::uint64_t expected = bitwise_update(state, data);
      ASSERT_EQ(engine.update_sliced(state, data), expected)
          << "offset=" << offset << " len=" << length;
      ASSERT_EQ(engine.update(state, data), expected)
          << "offset=" << offset << " len=" << length;
    }
  }
}

// --- GF(2^8) isomorphism ----------------------------------------------------

/// Software gf2p8affineqb with a zero immediate.
std::uint8_t affine_byte(std::uint64_t matrix, std::uint8_t x) {
  unsigned out = 0;
  for (unsigned i = 0; i < 8; ++i) {
    const auto row = static_cast<std::uint8_t>(matrix >> (8 * (7 - i)));
    out |= static_cast<unsigned>(__builtin_parity(row & x)) << i;
  }
  return static_cast<std::uint8_t>(out);
}

TEST(GfIsomorphism, PreservesEveryProductAndSum) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      ASSERT_EQ(gf256::to_aes(gf256::mul(x, y)),
                gf256::mul_aes(gf256::to_aes(x), gf256::to_aes(y)))
          << "a=" << a << " b=" << b;
      ASSERT_EQ(gf256::to_aes(static_cast<std::uint8_t>(x ^ y)),
                gf256::to_aes(x) ^ gf256::to_aes(y))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(GfIsomorphism, IsABijectionWithItsInverseTable) {
  std::array<bool, 256> seen{};
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::from_aes(gf256::to_aes(x)), x);
    EXPECT_FALSE(seen[gf256::to_aes(x)]) << "a=" << a;
    seen[gf256::to_aes(x)] = true;
  }
}

TEST(GfIsomorphism, AffineMatrixReproducesTheMap) {
  const std::uint64_t matrix = gf256::to_aes_affine_matrix();
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(affine_byte(matrix, x), gf256::to_aes(x)) << "a=" << a;
  }
}

// --- Flit FEC ----------------------------------------------------------------

using Flit = std::array<std::uint8_t, kFlitBytes>;

TEST(FlitFecKernels, KernelNameMatchesCpu) {
  EXPECT_EQ(std::string_view(rs::FlitFec::kernel_name()),
            missing_gfni().empty() ? "avx512bw+gfni" : "scalar");
}

TEST(FlitFecKernels, EncodeMatchesScalarOnRandomFlits) {
  if (const std::string missing = missing_gfni(); !missing.empty())
    GTEST_SKIP() << "CPU lacks" << missing;
  const rs::FlitFec fec;
  Xoshiro256 rng(1203);
  for (int trial = 0; trial < 20000; ++trial) {
    Flit fast{};
    for (auto& byte : fast) byte = static_cast<std::uint8_t>(rng.bounded(256));
    Flit scalar = fast;  // stale FEC bytes must not leak into the parity
    fec.encode(fast);
    fec.encode_scalar(scalar);
    ASSERT_EQ(fast, scalar) << "trial=" << trial;
  }
}

TEST(FlitFecKernels, DecodeMatchesScalarUnderRandomCorruption) {
  if (const std::string missing = missing_gfni(); !missing.empty())
    GTEST_SKIP() << "CPU lacks" << missing;
  const rs::FlitFec fec;
  Xoshiro256 rng(1204);
  for (int trial = 0; trial < 20000; ++trial) {
    Flit fast{};
    for (std::size_t i = 0; i < kFecProtectedBytes; ++i)
      fast[i] = static_cast<std::uint8_t>(rng.bounded(256));
    fec.encode_scalar(fast);
    const std::size_t errors = rng.bounded(7);  // 0..6 random byte hits
    for (std::size_t e = 0; e < errors; ++e)
      fast[rng.bounded(kFlitBytes)] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    Flit scalar = fast;
    const rs::FecDecodeResult got = fec.decode(fast);
    const rs::FecDecodeResult want = fec.decode_scalar(scalar);
    ASSERT_EQ(got.status, want.status) << "trial=" << trial;
    ASSERT_EQ(got.sub_block, want.sub_block) << "trial=" << trial;
    ASSERT_EQ(got.corrected_symbols, want.corrected_symbols) << "trial=" << trial;
    ASSERT_EQ(fast, scalar) << "trial=" << trial;
  }
}

TEST(CodecKernels, ReportsActiveTier) {
  // Prints the kernels this process dispatched to, so a CI log records
  // which path each runner validated.
  std::cout << "crc64 kernel: " << crc::Crc64::kernel_name() << "\n"
            << "flit_fec kernel: " << rs::FlitFec::kernel_name() << "\n";
  SUCCEED();
}

}  // namespace
}  // namespace rxl
