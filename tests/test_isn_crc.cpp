// ISN: the paper's core mechanism (§5). These tests are the specification
// of what "implicit sequence number" means.
#include "rxl/crc/isn_crc.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rxl/common/rng.hpp"

namespace rxl::crc {
namespace {

std::vector<std::uint8_t> random_message(std::uint64_t seed,
                                         std::size_t size = 242) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> message(size);
  for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.bounded(256));
  return message;
}

TEST(IsnCrc, MatchingSequencePasses) {
  IsnCrc isn;
  const auto message = random_message(1);
  for (std::uint16_t seq : {0, 1, 511, 1023}) {
    const std::uint64_t crc = isn.encode(message, seq);
    EXPECT_TRUE(isn.check(message, crc, seq));
  }
}

TEST(IsnCrc, EverySequenceMismatchFails) {
  // Exhaustive over the full 10-bit space: a flit encoded with seq S must
  // fail the check against every ESeqNum != S. This is the "drop detection
  // through CRC alone" guarantee of Fig. 6c.
  IsnCrc isn;
  const auto message = random_message(2);
  const std::uint16_t seq = 321;
  const std::uint64_t crc = isn.encode(message, seq);
  for (std::uint16_t expected = 0; expected < kSeqModulus; ++expected) {
    EXPECT_EQ(isn.check(message, crc, expected), expected == seq)
        << "expected_seq=" << expected;
  }
}

TEST(IsnCrc, AllSequencePairsDistinctCrcs) {
  // Injectivity: 1024 sequence numbers -> 1024 distinct CRCs for the same
  // payload.
  IsnCrc isn;
  const auto message = random_message(3);
  std::vector<std::uint64_t> crcs;
  crcs.reserve(kSeqModulus);
  for (std::uint16_t seq = 0; seq < kSeqModulus; ++seq)
    crcs.push_back(isn.encode(message, seq));
  std::sort(crcs.begin(), crcs.end());
  EXPECT_EQ(std::adjacent_find(crcs.begin(), crcs.end()), crcs.end());
}

TEST(IsnCrc, SeqMaskedToTenBits) {
  IsnCrc isn;
  const auto message = random_message(4);
  EXPECT_EQ(isn.encode(message, 5), isn.encode(message, 5 + kSeqModulus));
}

TEST(IsnCrc, PayloadCorruptionFailsEvenWithCorrectSeq) {
  IsnCrc isn;
  auto message = random_message(5);
  const std::uint16_t seq = 77;
  const std::uint64_t crc = isn.encode(message, seq);
  Xoshiro256 rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = message;
    corrupted[rng.bounded(corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.bounded(255));
    EXPECT_FALSE(isn.check(corrupted, crc, seq));
  }
}

TEST(IsnCrc, DropDetectionSequenceWalk) {
  // Fig. 6c trace: sender emits seq 0,1,2; flit 1 is dropped; the receiver
  // (ESeq counter) accepts 0, then REJECTS flit 2 because its CRC was
  // encoded with seq 2 but checked with ESeq 1.
  IsnCrc isn;
  const auto p0 = random_message(10);
  const auto p1 = random_message(11);
  const auto p2 = random_message(12);
  const std::uint64_t c0 = isn.encode(p0, 0);
  const std::uint64_t c2 = isn.encode(p2, 2);
  (void)p1;  // dropped in transit

  std::uint16_t eseq = 0;
  EXPECT_TRUE(isn.check(p0, c0, eseq));
  eseq = 1;
  EXPECT_FALSE(isn.check(p2, c2, eseq));  // drop detected immediately
  // After go-back-N replay the stream re-aligns:
  const std::uint64_t c1 = isn.encode(p1, 1);
  EXPECT_TRUE(isn.check(p1, c1, 1));
  EXPECT_TRUE(isn.check(p2, c2, 2));
}

TEST(IsnCrc, ZeroSeqEqualsPlainCrc) {
  IsnCrc isn;
  const auto message = random_message(7);
  EXPECT_EQ(isn.encode(message, 0), isn.encode_plain(message));
}

TEST(IsnCrc, FoldEquivalentToXoringMessage) {
  // encode(m, s) must equal plain CRC of m with s XORed into the payload's
  // low 10 bits — the §7.3 hardware formulation.
  IsnCrc isn;
  auto message = random_message(8);
  const std::uint16_t seq = 0x2A5 & kSeqMask;
  auto folded = message;
  folded[kHeaderBytes] ^= static_cast<std::uint8_t>(seq & 0xFF);
  folded[kHeaderBytes + 1] ^= static_cast<std::uint8_t>(seq >> 8);
  EXPECT_EQ(isn.encode(message, seq), isn.encode_plain(folded));
}

TEST(IsnCrc, MatchesBitwiseOracleOnFoldedMessage) {
  // Independent oracle for the state-XOR fold: encode(m, s) must equal the
  // bit-at-a-time CRC of m with s XORed into bytes fold_offset and
  // fold_offset + 1 (only those that exist), for every sequence number.
  // The lengths put the fold at the message end, straddle the 64 B switch
  // to the carry-less-multiply kernel, and include the flit's 242 B.
  for (const std::size_t offset : {0u, 2u, 10u}) {
    const IsnCrc isn(shared_crc64(), offset);
    std::vector<std::size_t> sizes = {offset + 2, 63, 64, 65, 242};
#ifdef NDEBUG
    // One byte short of encode()'s precondition, which only debug builds
    // assert: the fold clamps to the byte that exists.
    sizes.push_back(offset + 1);
#endif
    for (const std::size_t size : sizes) {
      SCOPED_TRACE(testing::Message() << "fold " << offset << " len " << size);
      const auto message = random_message(100 + offset * 1000 + size, size);
      for (std::uint16_t seq = 0; seq < kSeqModulus; ++seq) {
        auto folded = message;
        folded[offset] ^= static_cast<std::uint8_t>(seq & 0xFF);
        if (offset + 1 < size)
          folded[offset + 1] ^= static_cast<std::uint8_t>(seq >> 8);
        ASSERT_EQ(isn.encode(message, seq), crc64_bitwise(folded)) << seq;
      }
    }
  }
}

TEST(IsnCrc, CustomFoldOffset) {
  const auto message = random_message(13, 64);
  IsnCrc isn(shared_crc64(), /*fold_offset=*/10);
  const std::uint64_t crc = isn.encode(message, 3);
  EXPECT_TRUE(isn.check(message, crc, 3));
  EXPECT_FALSE(isn.check(message, crc, 4));
}

}  // namespace
}  // namespace rxl::crc
