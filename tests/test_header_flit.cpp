#include <gtest/gtest.h>

#include <tuple>

#include "rxl/flit/flit.hpp"
#include "rxl/flit/header.hpp"

namespace rxl::flit {
namespace {

using HeaderCase = std::tuple<std::uint16_t, ReplayCmd, FlitType>;

class HeaderRoundTrip : public ::testing::TestWithParam<HeaderCase> {};

TEST_P(HeaderRoundTrip, PackUnpack) {
  const auto [fsn, cmd, type] = GetParam();
  FlitHeader header{fsn, cmd, type};
  std::uint8_t buf[2] = {};
  pack_header(header, buf);
  const FlitHeader decoded = unpack_header(buf);
  EXPECT_EQ(decoded.fsn, fsn & kSeqMask);
  EXPECT_EQ(decoded.replay_cmd, cmd);
  EXPECT_EQ(decoded.type, type);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeaderRoundTrip,
    ::testing::Combine(
        ::testing::Values<std::uint16_t>(0, 1, 255, 256, 511, 1023),
        ::testing::Values(ReplayCmd::kSeqNum, ReplayCmd::kAck,
                          ReplayCmd::kNackGoBackN, ReplayCmd::kNackSingle),
        ::testing::Values(FlitType::kIdle, FlitType::kData,
                          FlitType::kControl)));

TEST(Header, FsnTruncatedToTenBits) {
  FlitHeader header{0x7FF, ReplayCmd::kSeqNum, FlitType::kData};
  std::uint8_t buf[2] = {};
  pack_header(header, buf);
  EXPECT_EQ(unpack_header(buf).fsn, 0x3FF);
}

TEST(Header, WireLayoutMatchesFig3) {
  // FSN[7:0] in byte 0; byte 1 = Type[3:0] << 4 | ReplayCmd << 2 | FSN[9:8].
  FlitHeader header{0x2AB, ReplayCmd::kNackGoBackN, FlitType::kControl};
  std::uint8_t buf[2] = {};
  pack_header(header, buf);
  EXPECT_EQ(buf[0], 0xAB);
  EXPECT_EQ(buf[1], (2u << 4) | (2u << 2) | 0x2);
}

TEST(Flit, ZeroInitialised) {
  Flit flit;
  for (const std::uint8_t byte : flit.bytes()) EXPECT_EQ(byte, 0);
}

TEST(Flit, FieldGeometry) {
  EXPECT_EQ(kPayloadOffset, 2u);
  EXPECT_EQ(kCrcOffset, 242u);
  EXPECT_EQ(kFecOffset, 250u);
  Flit flit;
  EXPECT_EQ(flit.payload().size(), kPayloadBytes);
  EXPECT_EQ(flit.crc_protected_region().size(), kCrcOffset);
  EXPECT_EQ(flit.fec_field().size(), kFecBytes);
}

TEST(Flit, HeaderAccessorRoundTrip) {
  Flit flit;
  FlitHeader header{777, ReplayCmd::kAck, FlitType::kData};
  flit.set_header(header);
  EXPECT_EQ(flit.header(), header);
}

TEST(Flit, CrcFieldRoundTrip) {
  Flit flit;
  flit.set_crc_field(0x1122334455667788ull);
  EXPECT_EQ(flit.crc_field(), 0x1122334455667788ull);
  EXPECT_EQ(flit.bytes()[kCrcOffset], 0x88);  // little-endian
}

TEST(Flit, EqualityIsBytewise) {
  Flit a, b;
  EXPECT_EQ(a, b);
  b.payload()[5] = 1;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace rxl::flit
