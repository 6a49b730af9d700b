// Flit-level 3-way interleaved FEC (paper §2.5 behaviour).
#include "rxl/rs/flit_fec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "rxl/common/rng.hpp"
#include "rxl/common/types.hpp"

namespace rxl::rs {
namespace {

std::array<std::uint8_t, kFlitBytes> random_flit(const FlitFec& fec,
                                                 Xoshiro256& rng) {
  std::array<std::uint8_t, kFlitBytes> flit{};
  for (std::size_t i = 0; i < kFecProtectedBytes; ++i)
    flit[i] = static_cast<std::uint8_t>(rng.bounded(256));
  fec.encode(flit);
  return flit;
}

TEST(FlitFec, CleanRoundTrip) {
  FlitFec fec;
  Xoshiro256 rng(1);
  auto flit = random_flit(fec, rng);
  const auto result = fec.decode(flit);
  EXPECT_EQ(result.status, DecodeStatus::kClean);
  EXPECT_TRUE(result.accepted());
  EXPECT_EQ(result.corrected_symbols, 0u);
}

TEST(FlitFec, SubBlockGeometryMatchesPaper) {
  // 250 protected bytes -> 84/83/83 data symbols (paper: 83/83/84 plus 2
  // parity each => 86/85/85-symbol codewords).
  EXPECT_EQ(FlitFec::sub_block_data_bytes(0), 84u);
  EXPECT_EQ(FlitFec::sub_block_data_bytes(1), 83u);
  EXPECT_EQ(FlitFec::sub_block_data_bytes(2), 83u);
  EXPECT_EQ(FlitFec::sub_block_data_bytes(0) +
                FlitFec::sub_block_data_bytes(1) +
                FlitFec::sub_block_data_bytes(2),
            kFecProtectedBytes);
}

/// Any single corrupted byte must be corrected, wherever it lands —
/// including inside the FEC parity field itself.
class FlitFecSingleByte : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlitFecSingleByte, Corrects) {
  FlitFec fec;
  Xoshiro256 rng(7);
  auto flit = random_flit(fec, rng);
  const auto original = flit;
  flit[GetParam()] ^= 0x3C;
  const auto result = fec.decode(flit);
  EXPECT_EQ(result.status, DecodeStatus::kCorrected);
  EXPECT_EQ(result.corrected_symbols, 1u);
  EXPECT_EQ(flit, original);
}

INSTANTIATE_TEST_SUITE_P(Positions, FlitFecSingleByte,
                         ::testing::Values(0u, 1u, 2u, 100u, 249u, 250u, 255u));

/// Bursts up to 3 symbols are always corrected (one error per lane).
class FlitFecBurst : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlitFecBurst, CorrectsUpToThreeSymbolBursts) {
  FlitFec fec;
  Xoshiro256 rng(13 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    auto flit = random_flit(fec, rng);
    const auto original = flit;
    const std::size_t burst = GetParam();
    const std::size_t start = rng.bounded(kFecProtectedBytes - burst);
    for (std::size_t i = 0; i < burst; ++i)
      flit[start + i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    const auto result = fec.decode(flit);
    EXPECT_EQ(result.status, DecodeStatus::kCorrected);
    EXPECT_EQ(result.corrected_symbols, burst);
    EXPECT_EQ(flit, original);
  }
}

INSTANTIATE_TEST_SUITE_P(BurstLengths, FlitFecBurst,
                         ::testing::Values(1u, 2u, 3u));

TEST(FlitFec, EqualPairSameLaneDetectedDeterministically) {
  // The TargetedDoubleError pattern: same magnitude at offsets p, p+3.
  FlitFec fec;
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    auto flit = random_flit(fec, rng);
    const std::size_t p = rng.bounded(kFecProtectedBytes - 3);
    flit[p] ^= 0x5A;
    flit[p + 3] ^= 0x5A;
    const auto result = fec.decode(flit);
    EXPECT_EQ(result.status, DecodeStatus::kDetectedUncorrectable);
    EXPECT_FALSE(result.accepted());
  }
}

TEST(FlitFec, FourSymbolBurstDetectionNearTwoThirds) {
  // Paper §2.5: a 4-symbol burst puts 2 errors in one lane; detection
  // probability ~ 2/3.
  FlitFec fec;
  Xoshiro256 rng(31);
  int detected = 0;
  constexpr int kTrials = 3000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto flit = random_flit(fec, rng);
    const std::size_t start = rng.bounded(kFecProtectedBytes - 4);
    for (std::size_t i = 0; i < 4; ++i)
      flit[start + i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    if (!fec.decode(flit).accepted()) ++detected;
  }
  EXPECT_NEAR(static_cast<double>(detected) / kTrials, 2.0 / 3.0, 0.04);
}

TEST(FlitFec, SixSymbolBurstDetectionNear26Of27) {
  FlitFec fec;
  Xoshiro256 rng(37);
  int detected = 0;
  constexpr int kTrials = 3000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto flit = random_flit(fec, rng);
    const std::size_t start = rng.bounded(kFecProtectedBytes - 6);
    for (std::size_t i = 0; i < 6; ++i)
      flit[start + i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    if (!fec.decode(flit).accepted()) ++detected;
  }
  EXPECT_NEAR(static_cast<double>(detected) / kTrials, 26.0 / 27.0, 0.02);
}

// --- Zero-copy pipeline parity: the strided screen-first decode and the
// in-place strided encode must match a reference gather/decode/scatter
// pipeline (the pre-optimization datapath) on every byte and verdict. ---

/// Reference FEC built from the contiguous ReedSolomon entry points via
/// explicit gather/scatter, mirroring the original FlitFec implementation.
struct ReferenceFlitFec {
  ReedSolomon code84{84};
  ReedSolomon code83{83};

  static std::size_t gather(std::span<const std::uint8_t> flit,
                            std::size_t lane, std::span<std::uint8_t> out) {
    std::size_t count = 0;
    for (std::size_t j = lane; j < kFlitBytes; j += 3) out[count++] = flit[j];
    return count;
  }

  static void scatter(std::span<std::uint8_t> flit, std::size_t lane,
                      std::span<const std::uint8_t> in) {
    std::size_t count = 0;
    for (std::size_t j = lane; j < kFlitBytes; j += 3) flit[j] = in[count++];
  }

  void encode(std::span<std::uint8_t> flit) const {
    std::uint8_t scratch[86 + 2];
    for (std::size_t lane = 0; lane < 3; ++lane) {
      const std::size_t k = FlitFec::sub_block_data_bytes(lane);
      gather(flit, lane, scratch);
      const ReedSolomon& code = (lane == 0) ? code84 : code83;
      code.encode(std::span<const std::uint8_t>(scratch, k),
                  std::span<std::uint8_t>(scratch + k, 2));
      scatter(flit, lane, std::span<const std::uint8_t>(scratch, k + 2));
    }
  }

  FecDecodeResult decode(std::span<std::uint8_t> flit) const {
    FecDecodeResult result;
    std::uint8_t scratch[86 + 2];
    for (std::size_t lane = 0; lane < 3; ++lane) {
      const std::size_t k = FlitFec::sub_block_data_bytes(lane);
      gather(flit, lane, scratch);
      const ReedSolomon& code = (lane == 0) ? code84 : code83;
      const DecodeResult sub =
          code.decode(std::span<std::uint8_t>(scratch, k + 2));
      result.sub_block[lane] = sub.status;
      result.corrected_symbols += sub.corrected_symbols;
      if (sub.status == DecodeStatus::kCorrected) {
        scatter(flit, lane, std::span<const std::uint8_t>(scratch, k + 2));
        if (result.status == DecodeStatus::kClean)
          result.status = DecodeStatus::kCorrected;
      } else if (sub.status == DecodeStatus::kDetectedUncorrectable) {
        result.status = DecodeStatus::kDetectedUncorrectable;
      }
    }
    return result;
  }
};

TEST(FlitFecParity, EncodeMatchesGatherScatterReference) {
  FlitFec fec;
  ReferenceFlitFec reference;
  Xoshiro256 rng(101);
  for (int trial = 0; trial < 100; ++trial) {
    std::array<std::uint8_t, kFlitBytes> fast{};
    for (std::size_t i = 0; i < kFecProtectedBytes; ++i)
      fast[i] = static_cast<std::uint8_t>(rng.bounded(256));
    auto ref = fast;
    fec.encode(fast);
    reference.encode(ref);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST(FlitFecParity, DecodeMatchesReferenceUnderRandomErrorPatterns) {
  // Sweep single-byte, contiguous wire bursts (1..8), and independent
  // multi-lane scatter patterns; status, per-lane status, correction count
  // and every resulting byte must be identical to the reference pipeline.
  FlitFec fec;
  ReferenceFlitFec reference;
  Xoshiro256 rng(202);
  for (int trial = 0; trial < 400; ++trial) {
    auto flit = random_flit(fec, rng);
    switch (trial % 4) {
      case 0:  // clean
        break;
      case 1:  // single byte anywhere (parity field included)
        flit[rng.bounded(kFlitBytes)] ^=
            static_cast<std::uint8_t>(1 + rng.bounded(255));
        break;
      case 2: {  // contiguous wire burst of 1..8 bytes
        const std::size_t burst = 1 + rng.bounded(8);
        const std::size_t start = rng.bounded(kFlitBytes - burst);
        for (std::size_t i = 0; i < burst; ++i)
          flit[start + i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
        break;
      }
      default:  // scattered multi-lane pattern, 2..6 independent bytes
        for (std::size_t e = 2 + rng.bounded(5); e > 0; --e)
          flit[rng.bounded(kFlitBytes)] ^=
              static_cast<std::uint8_t>(rng.bounded(256));
        break;
    }
    auto fast = flit;
    auto ref = flit;
    const FecDecodeResult fast_result = fec.decode(fast);
    const FecDecodeResult ref_result = reference.decode(ref);
    ASSERT_EQ(fast_result.status, ref_result.status) << "trial " << trial;
    ASSERT_EQ(fast_result.corrected_symbols, ref_result.corrected_symbols);
    ASSERT_EQ(fast_result.sub_block, ref_result.sub_block);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

/// Decodes `flit` with FlitFec (whichever kernel this CPU dispatches to) and
/// with the reference; verdict, lane statuses, count and bytes must agree.
void expect_decode_matches_reference(const FlitFec& fec,
                                     const ReferenceFlitFec& reference,
                                     const std::array<std::uint8_t, kFlitBytes>& flit,
                                     const std::string& where) {
  auto fast = flit;
  auto ref = flit;
  const FecDecodeResult fast_result = fec.decode(fast);
  const FecDecodeResult ref_result = reference.decode(ref);
  ASSERT_EQ(fast_result.status, ref_result.status) << where;
  ASSERT_EQ(fast_result.sub_block, ref_result.sub_block) << where;
  ASSERT_EQ(fast_result.corrected_symbols, ref_result.corrected_symbols) << where;
  ASSERT_EQ(fast, ref) << where;
}

TEST(FlitFecParity, EverySingleByteErrorMatchesReference) {
  // Exhaustive: all 256 wire positions (parity included) x 255 magnitudes.
  FlitFec fec;
  ReferenceFlitFec reference;
  Xoshiro256 rng(404);
  const auto clean = random_flit(fec, rng);
  for (std::size_t position = 0; position < kFlitBytes; ++position) {
    for (unsigned magnitude = 1; magnitude < 256; ++magnitude) {
      auto flit = clean;
      flit[position] ^= static_cast<std::uint8_t>(magnitude);
      expect_decode_matches_reference(
          fec, reference, flit,
          "pos=" + std::to_string(position) + " mag=" + std::to_string(magnitude));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FlitFecParity, EveryThreeAndFourByteBurstMatchesReference) {
  // Every start of a 3-byte burst (one hit per lane: corrected) and a
  // 4-byte burst (two hits in one lane: detected or miscorrected).
  FlitFec fec;
  ReferenceFlitFec reference;
  Xoshiro256 rng(505);
  const auto clean = random_flit(fec, rng);
  for (const std::size_t width : {3u, 4u}) {
    for (std::size_t start = 0; start + width <= kFlitBytes; ++start) {
      for (int pattern = 0; pattern < 8; ++pattern) {
        auto flit = clean;
        for (std::size_t i = 0; i < width; ++i)
          flit[start + i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
        expect_decode_matches_reference(
            fec, reference, flit,
            "width=" + std::to_string(width) + " start=" + std::to_string(start));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(FlitFecParity, ShortenedPositionDetectionMatchesReference) {
  // Double errors inside one lane either miscorrect (alias to a valid
  // position) or hit the §2.5 shortened-position detection; both pipelines
  // must agree case by case. Run enough trials to see both outcomes.
  FlitFec fec;
  ReferenceFlitFec reference;
  Xoshiro256 rng(303);
  int detected = 0;
  int miscorrected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto flit = random_flit(fec, rng);
    const std::size_t lane = rng.bounded(3);
    const std::size_t symbols = FlitFec::sub_block_data_bytes(lane) + 2;
    const std::size_t b0 = rng.bounded(symbols);
    std::size_t b1 = rng.bounded(symbols);
    while (b1 == b0) b1 = rng.bounded(symbols);
    flit[lane + 3 * b0] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    flit[lane + 3 * b1] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    auto fast = flit;
    auto ref = flit;
    const FecDecodeResult fast_result = fec.decode(fast);
    const FecDecodeResult ref_result = reference.decode(ref);
    ASSERT_EQ(fast_result.status, ref_result.status) << "trial " << trial;
    ASSERT_EQ(fast_result.sub_block, ref_result.sub_block);
    ASSERT_EQ(fast, ref);
    if (fast_result.status == DecodeStatus::kDetectedUncorrectable) ++detected;
    if (fast_result.status == DecodeStatus::kCorrected) ++miscorrected;
  }
  EXPECT_GT(detected, 0);      // shortened-position rejections exercised
  EXPECT_GT(miscorrected, 0);  // aliasing miscorrections exercised
}

TEST(FlitFec, PerLaneStatusReported) {
  FlitFec fec;
  Xoshiro256 rng(41);
  auto flit = random_flit(fec, rng);
  flit[0] ^= 0x11;  // lane 0 single error
  const auto result = fec.decode(flit);
  EXPECT_EQ(result.sub_block[0], DecodeStatus::kCorrected);
  EXPECT_EQ(result.sub_block[1], DecodeStatus::kClean);
  EXPECT_EQ(result.sub_block[2], DecodeStatus::kClean);
}

}  // namespace
}  // namespace rxl::rs
