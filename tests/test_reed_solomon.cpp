// Shortened Reed-Solomon codec: correction, detection, shortening behaviour.
#include "rxl/rs/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "rxl/common/rng.hpp"
#include "rxl/gf256/gf256.hpp"

namespace rxl::rs {
namespace {

std::vector<std::uint8_t> random_codeword(const ReedSolomon& code,
                                          Xoshiro256& rng) {
  std::vector<std::uint8_t> cw(code.data_symbols() +
                               ReedSolomon::kParitySymbols);
  for (std::size_t i = 0; i < code.data_symbols(); ++i)
    cw[i] = static_cast<std::uint8_t>(rng.bounded(256));
  code.encode(std::span<const std::uint8_t>(cw.data(), code.data_symbols()),
              std::span<std::uint8_t>(cw.data() + code.data_symbols(),
                                      ReedSolomon::kParitySymbols));
  return cw;
}

TEST(ReedSolomon, CleanCodewordHasZeroSyndromes) {
  ReedSolomon code(83);
  Xoshiro256 rng(1);
  auto cw = random_codeword(code, rng);
  std::uint8_t syn[2];
  code.syndromes(cw, syn);
  EXPECT_EQ(syn[0], 0);
  EXPECT_EQ(syn[1], 0);
  EXPECT_EQ(code.decode(cw).status, DecodeStatus::kClean);
}

TEST(ReedSolomon, RejectsInvalidGeometry) {
  EXPECT_THROW(ReedSolomon(254), std::invalid_argument);
}

TEST(ReedSolomon, AccessorsReportGeometry) {
  ReedSolomon code(84);
  EXPECT_EQ(code.data_symbols(), 84u);
  EXPECT_EQ(ReedSolomon::kParitySymbols, 2u);
}

/// Single-symbol errors must be corrected at EVERY codeword position.
class RsSinglePosition : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsSinglePosition, CorrectsAnyPosition) {
  ReedSolomon code(83);
  Xoshiro256 rng(42);
  const auto original = random_codeword(code, rng);
  const std::size_t position = GetParam();
  for (const std::uint8_t magnitude : {0x01, 0x80, 0xFF}) {
    auto corrupted = original;
    corrupted[position] ^= magnitude;
    const DecodeResult result = code.decode(corrupted);
    EXPECT_EQ(result.status, DecodeStatus::kCorrected);
    EXPECT_EQ(result.corrected_symbols, 1u);
    EXPECT_EQ(corrupted, original);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPositions, RsSinglePosition,
                         ::testing::Values(0u, 1u, 41u, 82u, 83u, 84u));

TEST(ReedSolomon, DoubleErrorSameMagnitudeAlwaysDetected) {
  // Two equal-magnitude errors force S0 = 0 with S1 != 0: detected with
  // certainty. This is the deterministic kill pattern scenario tests use.
  ReedSolomon code(83);
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    auto cw = random_codeword(code, rng);
    const auto backup = cw;
    const std::size_t i = rng.bounded(cw.size());
    std::size_t j = rng.bounded(cw.size());
    while (j == i) j = rng.bounded(cw.size());
    const auto magnitude = static_cast<std::uint8_t>(1 + rng.bounded(255));
    cw[i] ^= magnitude;
    cw[j] ^= magnitude;
    EXPECT_EQ(code.decode(cw).status, DecodeStatus::kDetectedUncorrectable);
    // A failed decode must leave the buffer untouched (minus our injection).
    auto expected = backup;
    expected[i] ^= magnitude;
    expected[j] ^= magnitude;
    EXPECT_EQ(cw, expected);
  }
}

TEST(ReedSolomon, DoubleErrorMiscorrectionRateNearOneThird) {
  // Random double errors in a k=83 shortened code alias to a valid single-
  // error syndrome with probability ~ n/255 = 85/255 = 1/3 (paper §2.5).
  ReedSolomon code(83);
  Xoshiro256 rng(99);
  int miscorrected = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto cw = random_codeword(code, rng);
    const std::size_t i = rng.bounded(cw.size());
    std::size_t j = rng.bounded(cw.size());
    while (j == i) j = rng.bounded(cw.size());
    cw[i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    cw[j] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    if (code.decode(cw).status == DecodeStatus::kCorrected) ++miscorrected;
  }
  const double rate = static_cast<double>(miscorrected) / kTrials;
  EXPECT_NEAR(rate, 85.0 / 255.0, 0.03);
}

TEST(ReedSolomon, UnshortenedCodeMiscorrectsAlmostAlways) {
  // With k = 253 (no shortening) nearly every double error aliases to some
  // valid position — the detection power comes FROM the shortening.
  ReedSolomon code(253);
  Xoshiro256 rng(5);
  int miscorrected = 0;
  constexpr int kTrials = 2000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto cw = random_codeword(code, rng);
    const std::size_t i = rng.bounded(cw.size());
    std::size_t j = rng.bounded(cw.size());
    while (j == i) j = rng.bounded(cw.size());
    cw[i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    cw[j] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    if (code.decode(cw).status == DecodeStatus::kCorrected) ++miscorrected;
  }
  EXPECT_GT(static_cast<double>(miscorrected) / kTrials, 0.9);
}

// --- Fast-path parity: the table-driven syndrome and closed-form encode
// paths must agree byte-for-byte with the generic log/exp reference paths
// for the paper's geometries (k in {83, 84}), under random single, burst
// and scattered multi-symbol error patterns. ---

struct RsGeometry {
  std::size_t k;
  std::size_t r;  ///< always ReedSolomon::kParitySymbols
};

class RsFastPathParity : public ::testing::TestWithParam<RsGeometry> {};

TEST_P(RsFastPathParity, EncodeMatchesReference) {
  const auto [k, r] = GetParam();
  ReedSolomon code(k);
  Xoshiro256 rng(1000 + k * 10 + r);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> data(k);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<std::uint8_t> parity_fast(r);
    std::vector<std::uint8_t> parity_ref(r);
    code.encode(data, parity_fast);
    code.encode_reference(data, parity_ref);
    ASSERT_EQ(parity_fast, parity_ref) << "k=" << k << " r=" << r;
  }
}

TEST_P(RsFastPathParity, SyndromesMatchReferenceUnderErrorPatterns) {
  const auto [k, r] = GetParam();
  ReedSolomon code(k);
  Xoshiro256 rng(2000 + k * 10 + r);
  const std::size_t n = code.data_symbols() + ReedSolomon::kParitySymbols;
  for (int trial = 0; trial < 60; ++trial) {
    auto cw = random_codeword(code, rng);
    // Error patterns: clean, single, contiguous burst, scattered multi.
    switch (trial % 4) {
      case 0:
        break;
      case 1:
        cw[rng.bounded(n)] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
        break;
      case 2: {
        const std::size_t burst = 2 + rng.bounded(5);
        const std::size_t start = rng.bounded(n - burst);
        for (std::size_t i = 0; i < burst; ++i)
          cw[start + i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
        break;
      }
      default:
        for (int e = 0; e < 6; ++e)
          cw[rng.bounded(n)] ^= static_cast<std::uint8_t>(rng.bounded(256));
        break;
    }
    std::vector<std::uint8_t> fast(r);
    std::vector<std::uint8_t> reference(r);
    code.syndromes(cw, fast);
    code.syndromes_reference(cw, reference);
    ASSERT_EQ(fast, reference) << "k=" << k << " r=" << r << " trial=" << trial;
  }
}

TEST_P(RsFastPathParity, StridedPathsMatchContiguous) {
  const auto [k, r] = GetParam();
  ReedSolomon code(k);
  Xoshiro256 rng(3000 + k * 10 + r);
  const std::size_t n = code.data_symbols() + ReedSolomon::kParitySymbols;
  constexpr std::size_t kStride = 3;
  for (int trial = 0; trial < 20; ++trial) {
    // Build a strided image with poisoned gaps; the strided entry points
    // must neither read nor write the in-between bytes.
    std::vector<std::uint8_t> image(n * kStride, 0xEE);
    std::vector<std::uint8_t> contiguous(n);
    for (std::size_t b = 0; b < k; ++b) {
      const auto byte = static_cast<std::uint8_t>(rng.bounded(256));
      image[b * kStride] = byte;
      contiguous[b] = byte;
    }
    code.encode_strided(image.data(), kStride);
    code.encode(std::span<const std::uint8_t>(contiguous.data(), k),
                std::span<std::uint8_t>(contiguous.data() + k, r));
    for (std::size_t b = 0; b < n; ++b)
      ASSERT_EQ(image[b * kStride], contiguous[b]) << "symbol " << b;
    for (std::size_t i = 0; i < image.size(); ++i) {
      if (i % kStride != 0) {
        ASSERT_EQ(image[i], 0xEE) << "gap byte " << i;
      }
    }

    // Corrupt a couple of symbols identically in both layouts.
    for (int e = 0; e < 2; ++e) {
      const std::size_t b = rng.bounded(n);
      const auto magnitude = static_cast<std::uint8_t>(1 + rng.bounded(255));
      image[b * kStride] ^= magnitude;
      contiguous[b] ^= magnitude;
    }
    std::vector<std::uint8_t> syn_strided(r);
    std::vector<std::uint8_t> syn_contiguous(r);
    code.syndromes_strided(image.data(), kStride, syn_strided);
    code.syndromes(contiguous, syn_contiguous);
    ASSERT_EQ(syn_strided, syn_contiguous);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGeometries, RsFastPathParity,
    ::testing::Values(RsGeometry{83, 2}, RsGeometry{84, 2}),
    [](const ::testing::TestParamInfo<RsGeometry>& info) {
      std::string name;
      name += 'k';
      name += std::to_string(info.param.k);
      name += 'r';
      name += std::to_string(info.param.r);
      return name;
    });

TEST(ReedSolomon, ClassifySingleAgreesWithDecodeVerdicts) {
  // For every achievable (s0, s1) generated by random double errors, the
  // classify_single verdict must equal what decode() does to the codeword —
  // including the shortened-position detections of §2.5.
  for (const std::size_t k : {std::size_t{83}, std::size_t{84}}) {
    ReedSolomon code(k);
    Xoshiro256 rng(4000 + k);
    const std::size_t n = code.data_symbols() + ReedSolomon::kParitySymbols;
    for (int trial = 0; trial < 400; ++trial) {
      auto cw = random_codeword(code, rng);
      const std::size_t i = rng.bounded(n);
      std::size_t j = rng.bounded(n);
      while (j == i) j = rng.bounded(n);
      cw[i] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
      cw[j] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
      std::uint8_t syn[2];
      code.syndromes(cw, syn);
      ASSERT_TRUE(syn[0] != 0 || syn[1] != 0);  // double error never aliases to clean
      const auto verdict = code.classify_single(syn[0], syn[1]);
      auto decoded = cw;
      const DecodeResult result = code.decode(decoded);
      ASSERT_EQ(verdict.status, result.status);
      if (verdict.status == DecodeStatus::kCorrected) {
        auto expected = cw;
        expected[verdict.buffer_index] ^= verdict.magnitude;
        ASSERT_EQ(decoded, expected);
      } else {
        ASSERT_EQ(decoded, cw);  // failed decode leaves the buffer untouched
      }
    }
  }
}

TEST(ReedSolomon, ClassifySingleFlagsShortenedPositions) {
  // Synthesized syndromes pointing at a virtual (zero-padded) degree must be
  // rejected; in-range degrees must correct. Sweeps every degree of the
  // unshortened 255-symbol space for both paper geometries.
  for (const std::size_t k : {std::size_t{83}, std::size_t{84}}) {
    ReedSolomon code(k);
    const std::size_t n = code.data_symbols() + ReedSolomon::kParitySymbols;
    const std::uint8_t magnitude = 0x5D;
    for (unsigned degree = 0; degree < gf256::kGroupOrder; ++degree) {
      const std::uint8_t s0 = magnitude;
      const std::uint8_t s1 = gf256::mul(magnitude, gf256::alpha_pow(degree));
      const auto verdict = code.classify_single(s0, s1);
      if (degree < n) {
        ASSERT_EQ(verdict.status, DecodeStatus::kCorrected) << degree;
        ASSERT_EQ(verdict.buffer_index, n - 1 - degree);
        ASSERT_EQ(verdict.magnitude, magnitude);
      } else {
        ASSERT_EQ(verdict.status, DecodeStatus::kDetectedUncorrectable)
            << degree;
      }
    }
    // Zero-syndrome-component patterns (S0 == 0 xor S1 == 0) are detected.
    EXPECT_EQ(code.classify_single(0, 0x31).status,
              DecodeStatus::kDetectedUncorrectable);
    EXPECT_EQ(code.classify_single(0x31, 0).status,
              DecodeStatus::kDetectedUncorrectable);
  }
}

TEST(ReedSolomon, ParityPlacementIsSystematic) {
  // Data bytes must appear verbatim in the codeword (systematic encoding).
  ReedSolomon code(10);
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<std::uint8_t> parity(2);
  code.encode(data, parity);
  std::vector<std::uint8_t> cw = data;
  cw.insert(cw.end(), parity.begin(), parity.end());
  EXPECT_EQ(code.decode(cw).status, DecodeStatus::kClean);
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(cw[i], data[i]);
}

}  // namespace
}  // namespace rxl::rs
