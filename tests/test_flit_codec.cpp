// FlitCodec: the protocol-defining encode/check pipelines (paper Fig. 6/7).
#include "rxl/transport/flit_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "rxl/common/rng.hpp"

namespace rxl::transport {
namespace {

std::vector<std::uint8_t> random_payload(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> payload(kPayloadBytes);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.bounded(256));
  return payload;
}

TEST(FlitCodec, CxlCarriesExplicitSeqInHeader) {
  FlitCodec codec(Protocol::kCxl);
  const flit::Flit encoded =
      codec.encode_data(random_payload(1), 345, std::nullopt);
  const flit::FlitHeader header = encoded.header();
  EXPECT_EQ(header.replay_cmd, flit::ReplayCmd::kSeqNum);
  EXPECT_EQ(header.fsn, 345);
  EXPECT_EQ(header.type, flit::FlitType::kData);
}

TEST(FlitCodec, RxlZeroFillsFsnWhenNotPiggybacking) {
  // §6.2: the FSN field is zero in non-piggybacking RXL flits — the
  // sequence number travels only inside the CRC.
  FlitCodec codec(Protocol::kRxl);
  const flit::Flit encoded =
      codec.encode_data(random_payload(2), 345, std::nullopt);
  EXPECT_EQ(encoded.header().fsn, 0);
  EXPECT_EQ(encoded.header().replay_cmd, flit::ReplayCmd::kSeqNum);
}

TEST(FlitCodec, PiggybackReplacesFsnWithAcknum) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    FlitCodec codec(protocol);
    const flit::Flit encoded = codec.encode_data(random_payload(3), 345, 700);
    EXPECT_EQ(encoded.header().replay_cmd, flit::ReplayCmd::kAck);
    EXPECT_EQ(encoded.header().fsn, 700);
  }
}

TEST(FlitCodec, EncodedFlitPassesOwnFecAndCrc) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    FlitCodec codec(protocol);
    flit::Flit encoded = codec.encode_data(random_payload(4), 10, std::nullopt);
    EXPECT_TRUE(codec.fec().decode(encoded.bytes()).accepted());
    EXPECT_TRUE(codec.check_data(encoded, 10).crc_ok);
  }
}

TEST(FlitCodec, CxlCheckIgnoresExpectedSeq) {
  // Baseline CXL's CRC has no sequence component: the check passes with any
  // expected_seq; sequence enforcement is the caller's job via explicit_seq.
  FlitCodec codec(Protocol::kCxl);
  const flit::Flit encoded =
      codec.encode_data(random_payload(5), 11, std::nullopt);
  const RxCheck at_match = codec.check_data(encoded, 11);
  const RxCheck at_mismatch = codec.check_data(encoded, 999);
  EXPECT_TRUE(at_match.crc_ok);
  EXPECT_TRUE(at_mismatch.crc_ok);
  ASSERT_TRUE(at_mismatch.explicit_seq.has_value());
  EXPECT_EQ(*at_mismatch.explicit_seq, 11);
}

TEST(FlitCodec, CxlAckCarryingFlitHasNoSequenceInformation) {
  // The §4.1 hole, at codec level: explicit_seq is absent exactly when the
  // flit piggybacks an AckNum.
  FlitCodec codec(Protocol::kCxl);
  const flit::Flit encoded = codec.encode_data(random_payload(6), 12, 500);
  const RxCheck check = codec.check_data(encoded, 9999);
  EXPECT_TRUE(check.crc_ok);
  EXPECT_FALSE(check.explicit_seq.has_value());
}

TEST(FlitCodec, RxlCheckEnforcesSequence) {
  FlitCodec codec(Protocol::kRxl);
  const flit::Flit encoded =
      codec.encode_data(random_payload(7), 13, std::nullopt);
  EXPECT_TRUE(codec.check_data(encoded, 13).crc_ok);
  EXPECT_FALSE(codec.check_data(encoded, 12).crc_ok);
  EXPECT_FALSE(codec.check_data(encoded, 14).crc_ok);
}

TEST(FlitCodec, RxlAckCarryingFlitStillSequenceChecked) {
  // RXL's fix: piggybacking costs nothing — the ISN check still works.
  FlitCodec codec(Protocol::kRxl);
  const flit::Flit encoded = codec.encode_data(random_payload(8), 14, 500);
  EXPECT_TRUE(codec.check_data(encoded, 14).crc_ok);
  EXPECT_FALSE(codec.check_data(encoded, 15).crc_ok);
}

TEST(FlitCodec, ControlFlitsRoundTrip) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    FlitCodec codec(protocol);
    const flit::Flit nack =
        codec.encode_control(flit::ReplayCmd::kNackGoBackN, 77);
    EXPECT_TRUE(codec.check_control(nack));
    EXPECT_EQ(nack.header().type, flit::FlitType::kControl);
    EXPECT_EQ(nack.header().fsn, 77);
    flit::Flit corrupted = nack;
    corrupted.payload()[0] ^= 1;
    EXPECT_FALSE(codec.check_control(corrupted));
  }
}

TEST(FlitCodec, RegenerateLinkCrcMasksModification) {
  // The CXL-switch behaviour that lets internal corruption escape (§6.3).
  FlitCodec codec(Protocol::kCxl);
  flit::Flit encoded = codec.encode_data(random_payload(9), 15, std::nullopt);
  encoded.payload()[100] ^= 0xFF;
  EXPECT_FALSE(codec.check_data(encoded, 15).crc_ok);
  codec.regenerate_link_crc(encoded);
  EXPECT_TRUE(codec.check_data(encoded, 15).crc_ok);  // corruption re-signed
}

TEST(FlitCodec, RxlSequenceSurvivesHeaderAckRewrite) {
  // Two RXL encodings of the same payload+seq with different acknums have
  // different CRCs (header is covered), but both check against the same
  // expected_seq — sequence and acknum are orthogonal.
  FlitCodec codec(Protocol::kRxl);
  const auto payload = random_payload(10);
  const flit::Flit with_ack = codec.encode_data(payload, 16, 100);
  const flit::Flit without_ack = codec.encode_data(payload, 16, std::nullopt);
  EXPECT_NE(with_ack.crc_field(), without_ack.crc_field());
  EXPECT_TRUE(codec.check_data(with_ack, 16).crc_ok);
  EXPECT_TRUE(codec.check_data(without_ack, 16).crc_ok);
}

class FlitCodecSeqSweep : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(FlitCodecSeqSweep, RxlRejectsExactlyTheWrongSequences) {
  FlitCodec codec(Protocol::kRxl);
  const std::uint16_t seq = GetParam();
  const flit::Flit encoded =
      codec.encode_data(random_payload(20 + seq), seq, std::nullopt);
  for (const int delta : {-2, -1, 0, 1, 2, 511, 512}) {
    const std::uint16_t expected =
        static_cast<std::uint16_t>((seq + delta + kSeqModulus) & kSeqMask);
    EXPECT_EQ(codec.check_data(encoded, expected).crc_ok, expected == seq)
        << "seq=" << seq << " delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(Seqs, FlitCodecSeqSweep,
                         ::testing::Values<std::uint16_t>(0, 1, 2, 511, 512,
                                                          1022, 1023));

// --------------------------------------------------------------------------
// Seal states: an unsealed flit's metadata verdict against the real check
// of its sealed image, exhaustively over the 10-bit sequence space. One
// test case per flit kind keeps each grid small enough for Debug builds.
// --------------------------------------------------------------------------

class UnsealedDataVerdict
    : public ::testing::TestWithParam<std::tuple<Protocol, bool>> {};

TEST_P(UnsealedDataVerdict, MatchesSealedCheckForEveryPair) {
  const auto [protocol, piggyback] = GetParam();
  const FlitCodec codec(protocol);
  const std::vector<std::uint8_t> payload = random_payload(30);
  std::size_t mismatches = 0;
  std::size_t passes = 0;
  for (std::uint16_t seq = 0; seq < kSeqModulus; ++seq) {
    const std::optional<std::uint16_t> acknum =
        piggyback ? std::optional<std::uint16_t>((seq * 7 + 3) & kSeqMask)
                  : std::nullopt;
    // What an endpoint sends: the header around its payload, unsealed,
    // with the fold recorded beside it.
    flit::Flit unsealed;
    std::copy(payload.begin(), payload.end(), unsealed.payload().begin());
    codec.write_data_header(unsealed, seq, acknum);
    const std::uint16_t fold = codec.data_crc_fold(seq);
    flit::Flit sealed = unsealed;
    flit::seal(sealed, fold);
    ASSERT_EQ(sealed, codec.encode_data(payload, seq, acknum));
    for (std::uint16_t expected = 0; expected < kSeqModulus; ++expected) {
      const RxCheck metadata =
          codec.check_data_unsealed(unsealed, fold, expected);
      const RxCheck real = codec.check_data(sealed, expected);
      if (metadata != real) ++mismatches;
      if (real.crc_ok) ++passes;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // RXL passes exactly the aligned pairs; CXL's plain CRC passes all.
  EXPECT_EQ(passes, protocol == Protocol::kRxl
                        ? std::size_t{kSeqModulus}
                        : std::size_t{kSeqModulus} * kSeqModulus);
}

INSTANTIATE_TEST_SUITE_P(
    FlitCodecSealing, UnsealedDataVerdict,
    ::testing::Combine(::testing::Values(Protocol::kCxl, Protocol::kRxl),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(protocol_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "WithAckNum" : "WithoutAckNum");
    });

class UnsealedControlVerdict
    : public ::testing::TestWithParam<std::tuple<Protocol, flit::ReplayCmd>> {
};

TEST_P(UnsealedControlVerdict, MatchesSealedCheckForEveryPair) {
  // A control flit's check takes no ESeqNum, so its grid pairs every FSN
  // the sender can carry with every fold it could have recorded: only fold
  // 0, what senders record, may pass.
  const auto [protocol, command] = GetParam();
  const FlitCodec codec(protocol);
  const std::array<std::uint16_t, 3> words{0xBEEF, 0x0001, 0x8000};
  std::size_t mismatches = 0;
  std::size_t passes = 0;
  for (std::uint16_t fsn = 0; fsn < kSeqModulus; ++fsn) {
    const flit::Flit unsealed =
        FlitCodec::control_flit(command, fsn, ControlCreditStamp{words, 5});
    for (std::uint16_t fold = 0; fold < kSeqModulus; ++fold) {
      flit::Flit sealed = unsealed;
      flit::seal(sealed, fold);
      const bool real = codec.check_control(sealed);
      if (codec.check_control_unsealed(unsealed, fold) != real) ++mismatches;
      if (real) ++passes;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(passes, std::size_t{kSeqModulus});
}

INSTANTIATE_TEST_SUITE_P(
    FlitCodecSealing, UnsealedControlVerdict,
    ::testing::Combine(::testing::Values(Protocol::kCxl, Protocol::kRxl),
                       ::testing::Values(flit::ReplayCmd::kSeqNum,
                                         flit::ReplayCmd::kAck,
                                         flit::ReplayCmd::kNackGoBackN,
                                         flit::ReplayCmd::kNackSingle)),
    [](const auto& info) {
      return std::string(protocol_name(std::get<0>(info.param))) + "Command" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

TEST(FlitCodecSealing, SealedSingleWordControlMatchesTheStampedImage) {
  // encode_control is control_flit with one credit word and no ECN marks,
  // sealed with fold 0.
  const FlitCodec codec(Protocol::kRxl);
  const std::uint16_t word = 0xBEEF;
  flit::Flit stamped = FlitCodec::control_flit(
      flit::ReplayCmd::kAck, 17, ControlCreditStamp{std::span(&word, 1), 0});
  flit::seal(stamped, 0);
  EXPECT_EQ(stamped, codec.encode_control(flit::ReplayCmd::kAck, 17, word));
}

}  // namespace
}  // namespace rxl::transport
