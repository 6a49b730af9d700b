// CRC-64 engines: cross-validation and detection-property tests.
#include "rxl/crc/crc64.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rxl/common/bytes.hpp"
#include "rxl/common/rng.hpp"

namespace rxl::crc {
namespace {

std::vector<std::uint8_t> ascii(const char* text) {
  std::vector<std::uint8_t> out;
  while (*text) out.push_back(static_cast<std::uint8_t>(*text++));
  return out;
}

TEST(Crc64, KnownCheckValue) {
  // CRC-64/XZ check value for "123456789".
  EXPECT_EQ(crc64_bitwise(ascii("123456789")), 0x995DC9BBDF1939FAull);
}

TEST(Crc64, EmptyMessage) {
  // init ^ xorout with no data: CRC of the empty string is 0 for XZ params.
  EXPECT_EQ(crc64_bitwise({}), 0u);
  EXPECT_EQ(shared_crc64().compute({}), 0u);
}

TEST(Crc64, TableMatchesBitwise) {
  Xoshiro256 rng(1);
  const Crc64& engine = shared_crc64();
  for (std::size_t length : {1u, 2u, 7u, 8u, 9u, 63u, 242u, 1000u}) {
    std::vector<std::uint8_t> data(length);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.bounded(256));
    EXPECT_EQ(engine.compute(data), crc64_bitwise(data)) << "len=" << length;
  }
}

TEST(Crc64, SlicedMatchesBitwise) {
  Xoshiro256 rng(2);
  const Crc64& engine = shared_crc64();
  for (std::size_t length : {1u, 8u, 15u, 16u, 242u, 4096u}) {
    std::vector<std::uint8_t> data(length);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.bounded(256));
    EXPECT_EQ(engine.compute_sliced(data), crc64_bitwise(data))
        << "len=" << length;
  }
}

TEST(Crc64, AllEnginesAgreeOverRandomLengths0To256) {
  // `compute` dispatches to the slice-by-8 kernel for spans >= 8 bytes; this
  // pins its equivalence with the bitwise oracle (and the other two engines)
  // across every length straddling that dispatch boundary.
  Xoshiro256 rng(7);
  const Crc64& engine = shared_crc64();
  for (std::size_t length = 0; length <= 256; ++length) {
    std::vector<std::uint8_t> data(length);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.bounded(256));
    const std::uint64_t reference = crc64_bitwise(data);
    EXPECT_EQ(engine.compute(data), reference) << "len=" << length;
    EXPECT_EQ(engine.compute_sliced(data), reference) << "len=" << length;
    EXPECT_EQ(Crc64::finish(engine.update(Crc64::begin(), data)), reference)
        << "len=" << length;
  }
}

TEST(Crc64, StreamingMatchesOneShot) {
  Xoshiro256 rng(3);
  const Crc64& engine = shared_crc64();
  std::vector<std::uint8_t> data(300);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.bounded(256));
  std::uint64_t state = Crc64::begin();
  state = engine.update(state, std::span(data).subspan(0, 100));
  state = engine.update(state, std::span(data).subspan(100, 150));
  state = engine.update(state, std::span(data).subspan(250));
  EXPECT_EQ(Crc64::finish(state), engine.compute(data));
}

/// Detects every burst error up to 64 bits (parameterised over burst width).
class Crc64Burst : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Crc64Burst, DetectsAllBurstsOfThisWidth) {
  const std::size_t width = GetParam();
  const Crc64& engine = shared_crc64();
  Xoshiro256 rng(4 + width);
  std::vector<std::uint8_t> data(242);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.bounded(256));
  const std::uint64_t reference = engine.compute(data);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = data;
    const std::size_t start = rng.bounded(data.size() * 8 - width);
    // Random burst pattern with both endpoints flipped (true width-w burst).
    flip_bit(corrupted, start);
    if (width > 1) flip_bit(corrupted, start + width - 1);
    for (std::size_t i = 1; i + 1 < width; ++i) {
      if (rng.bernoulli(0.5)) flip_bit(corrupted, start + i);
    }
    EXPECT_NE(engine.compute(corrupted), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, Crc64Burst,
                         ::testing::Values(1u, 2u, 8u, 33u, 63u, 64u));

TEST(Crc64, DetectsUpToFourRandomBitErrors) {
  const Crc64& engine = shared_crc64();
  Xoshiro256 rng(5);
  std::vector<std::uint8_t> data(242);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.bounded(256));
  const std::uint64_t reference = engine.compute(data);
  for (int errors = 1; errors <= 4; ++errors) {
    for (int trial = 0; trial < 500; ++trial) {
      auto corrupted = data;
      for (int e = 0; e < errors; ++e)
        flip_bit(corrupted, rng.bounded(corrupted.size() * 8));
      if (corrupted == data) continue;
      EXPECT_NE(engine.compute(corrupted), reference);
    }
  }
}

TEST(Crc64, LinearityOverGf2) {
  // crc(a ^ b) ^ crc(0) == crc(a) ^ crc(b): the affine-map property ISN
  // depends on.
  const Crc64& engine = shared_crc64();
  Xoshiro256 rng(6);
  std::vector<std::uint8_t> a(64), b(64), both(64), zero(64, 0);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = static_cast<std::uint8_t>(rng.bounded(256));
    b[i] = static_cast<std::uint8_t>(rng.bounded(256));
    both[i] = a[i] ^ b[i];
  }
  EXPECT_EQ(engine.compute(both) ^ engine.compute(zero),
            engine.compute(a) ^ engine.compute(b));
}

}  // namespace
}  // namespace rxl::crc
