#include "rxl/common/bytes.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace rxl {
namespace {

TEST(Bytes, FlipBitTogglesAndRestores) {
  std::array<std::uint8_t, 4> buf{};
  flip_bit(buf, 0);
  EXPECT_EQ(buf[0], 0x01);
  flip_bit(buf, 7);
  EXPECT_EQ(buf[0], 0x81);
  flip_bit(buf, 8);
  EXPECT_EQ(buf[1], 0x01);
  flip_bit(buf, 0);
  flip_bit(buf, 7);
  flip_bit(buf, 8);
  EXPECT_EQ(buf, (std::array<std::uint8_t, 4>{}));
}

TEST(Bytes, Le16RoundTrip) {
  std::array<std::uint8_t, 4> buf{};
  store_le16(buf, 1, 0xBEEF);
  EXPECT_EQ(buf[1], 0xEF);
  EXPECT_EQ(buf[2], 0xBE);
  EXPECT_EQ(load_le16(buf, 1), 0xBEEF);
}

TEST(Bytes, Le64RoundTrip) {
  std::array<std::uint8_t, 16> buf{};
  store_le64(buf, 3, 0x0123456789ABCDEFull);
  EXPECT_EQ(load_le64(buf, 3), 0x0123456789ABCDEFull);
  EXPECT_EQ(buf[3], 0xEF);
  EXPECT_EQ(buf[10], 0x01);
}

TEST(Bytes, LeRoundTripAtEveryOffset) {
  // Each load/store is one unaligned move: at every offset of a 16 B buffer
  // the bytes must be the little-endian image of the value, and the bytes
  // around it must stay untouched.
  const std::uint64_t value = 0x8877665544332211ull;
  for (const std::size_t width : {2u, 8u}) {
    for (std::size_t offset = 0; offset + width <= 16; ++offset) {
      SCOPED_TRACE(testing::Message() << "width " << width << " at " << offset);
      std::array<std::uint8_t, 16> buf{};
      buf.fill(0xCC);
      std::uint64_t loaded = 0;
      if (width == 2) {
        store_le16(buf, offset, static_cast<std::uint16_t>(value));
        loaded = load_le16(buf, offset);
      } else {
        store_le64(buf, offset, value);
        loaded = load_le64(buf, offset);
      }
      EXPECT_EQ(loaded, value & (~0ull >> (64 - 8 * width)));
      for (std::size_t i = 0; i < buf.size(); ++i) {
        std::uint8_t expected = 0xCC;
        if (i >= offset && i < offset + width)
          expected = static_cast<std::uint8_t>(value >> (8 * (i - offset)));
        EXPECT_EQ(buf[i], expected) << "byte " << i;
      }
    }
  }
}

TEST(Bytes, HexdumpShape) {
  std::vector<std::uint8_t> buf(20, 0x41);  // 'A'
  const std::string dump = hexdump(buf, 16);
  EXPECT_NE(dump.find("41 41"), std::string::npos);
  EXPECT_NE(dump.find("|AAAAAAAAAAAAAAAA|"), std::string::npos);
  // Two lines for 20 bytes at 16/line.
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
}

TEST(Bytes, HexdumpEmpty) {
  EXPECT_TRUE(hexdump({}).empty());
}

}  // namespace
}  // namespace rxl
