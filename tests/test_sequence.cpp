// Modulo-1024 sequence arithmetic: exhaustive wraparound properties.
#include "rxl/link/sequence.hpp"

#include <gtest/gtest.h>

namespace rxl::link {
namespace {

TEST(Sequence, AddWraps) {
  EXPECT_EQ(seq_add(1020, 10), 6);
  EXPECT_EQ(seq_add(0, 1024), 0);
  EXPECT_EQ(seq_next(1023), 0);
  EXPECT_EQ(seq_next(0), 1);
}

TEST(Sequence, DistanceBasics) {
  EXPECT_EQ(seq_distance(0, 0), 0);
  EXPECT_EQ(seq_distance(0, 1), 1);
  EXPECT_EQ(seq_distance(1, 0), -1);
  EXPECT_EQ(seq_distance(1020, 4), 8);   // across the wrap
  EXPECT_EQ(seq_distance(4, 1020), -8);
  EXPECT_EQ(seq_distance(0, 512), 512);  // the half-way point is "ahead"
}

TEST(Sequence, DistanceAntisymmetricWithinWindow) {
  for (std::uint16_t a = 0; a < kSeqModulus; a += 7) {
    for (int delta = -400; delta <= 400; delta += 13) {
      const std::uint16_t b =
          seq_add(a, static_cast<std::uint16_t>((delta + 1024) % 1024));
      EXPECT_EQ(seq_distance(a, b), delta >= -512 ? delta : delta + 1024)
          << "a=" << a << " delta=" << delta;
    }
  }
}

TEST(Sequence, BeforeIsStrictOrder) {
  EXPECT_TRUE(seq_before(0, 1));
  EXPECT_FALSE(seq_before(1, 0));
  EXPECT_FALSE(seq_before(5, 5));
  EXPECT_TRUE(seq_before(1023, 0));
}

TEST(Sequence, RoundTripAddDistance) {
  for (std::uint16_t a = 0; a < kSeqModulus; a += 5) {
    for (std::uint16_t d = 0; d < 512; d += 9) {
      EXPECT_EQ(seq_distance(a, seq_add(a, d)), static_cast<int>(d));
    }
  }
}

}  // namespace
}  // namespace rxl::link
