// Transparent switch behaviour: FEC correct/drop, CRC handling per
// protocol, internal corruption semantics (the §6.3/§6.4 distinction), and
// routing by the envelope's destination tag. The SwitchDevice cases drive a
// PortSwitch in its one-port, in-line form (each hop of a linear fabric's
// hub chain); the PortSwitch cases route across several ports.
#include "rxl/switchdev/port_switch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "rxl/crc/isn_crc.hpp"
#include "rxl/phy/error_model.hpp"
#include "event_queue_probe.hpp"

namespace rxl::switchdev {
namespace {

using transport::FlitCodec;
using transport::Protocol;

/// A one-port switch (every flit routes to port 0) feeding a clean channel.
struct Harness {
  sim::EventQueue queue;
  std::optional<PortSwitch> sw;
  std::optional<sim::LinkChannel> out;
  std::vector<sim::FlitEnvelope> received;

  explicit Harness(PortSwitch::Config config, std::uint64_t seed = 1) {
    config.ports = 1;
    sw.emplace(queue, config, seed);
    out.emplace(queue, std::make_unique<phy::NoErrors>(), seed + 1);
    out->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { received.push_back(envelope); });
    sw->set_output(0, &*out);
  }
};

sim::FlitEnvelope data_envelope(const FlitCodec& codec, std::uint16_t seq) {
  std::vector<std::uint8_t> payload(kPayloadBytes, 0x42);
  sim::FlitEnvelope envelope;
  envelope.flit = codec.encode_data(payload, seq, std::nullopt);
  envelope.seal = sim::SealState::kCodeword;
  envelope.truth_index = seq;
  envelope.has_truth = true;
  return envelope;
}

TEST(SwitchDevice, ForwardsPristineFlit) {
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 0));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_EQ(harness.received[0].seal, sim::SealState::kCodeword);
  EXPECT_EQ(harness.sw->stats().flits_forwarded, 1u);
  EXPECT_EQ(harness.sw->stats().dropped_fec, 0u);
}

TEST(SwitchDevice, ForwardLatencyApplied) {
  PortSwitch::Config config;
  config.forward_latency = 12'345;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 0));
  harness.queue.run();
  // forward latency + output slot + output latency (2000 + 2000 defaults).
  EXPECT_EQ(harness.queue.now(), 12'345u + 2000u + 2000u);
}

TEST(SwitchDevice, CorrectsSingleSymbolAndRestoresPristine) {
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  auto envelope = data_envelope(codec, 1);
  envelope.flit.bytes()[50] ^= 0xFF;
  envelope.seal = sim::SealState::kTouched;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  // Re-encoded at egress.
  EXPECT_EQ(harness.received[0].seal, sim::SealState::kCodeword);
  EXPECT_EQ(harness.sw->stats().fec_corrected, 1u);
}

// A hub leaves an FEC-corrected image touched, so egress regeneration
// re-encodes it. After a true correction that must write back exactly the
// original encoding, under both protocols: the codeword fast path then
// changes no outcome.
std::vector<flit::Flit> originals(const FlitCodec& codec) {
  std::vector<std::uint8_t> payload(kPayloadBytes);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return {codec.encode_data(payload, 9, std::nullopt),
          codec.encode_data(payload, 9, std::uint16_t{4}),
          codec.encode_control(flit::ReplayCmd::kAck, 4)};
}

// Wire offsets of the single-symbol errors: header, payload, the last
// payload byte, CRC and FEC.
constexpr std::size_t kErrorOffsets[] = {0, 50, 241, 245, 253};

TEST(SwitchDevice, CorrectedFlitForwardedAsOriginalEncoding) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    PortSwitch::Config config;
    config.protocol = protocol;
    Harness harness(config);
    const FlitCodec codec(protocol);
    std::size_t sent = 0;
    for (const flit::Flit& original : originals(codec)) {
      for (const std::size_t offset : kErrorOffsets) {
        SCOPED_TRACE(testing::Message() << "error at byte " << offset);
        sim::FlitEnvelope envelope;
        envelope.flit = original;
        envelope.flit.bytes()[offset] ^= 0xA5;
        envelope.seal = sim::SealState::kTouched;
        harness.sw->on_flit(std::move(envelope));
        harness.queue.run();
        sent += 1;
        ASSERT_EQ(harness.received.size(), sent);
        EXPECT_TRUE(harness.received.back().flit == original);
        EXPECT_EQ(harness.received.back().seal, sim::SealState::kCodeword);
      }
    }
    EXPECT_EQ(harness.sw->stats().fec_corrected, sent);
    EXPECT_EQ(harness.sw->stats().dropped_crc, 0u);
  }
}

TEST(PortSwitch, CorrectedFlitForwardedAsOriginalEncoding) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    sim::EventQueue queue;
    PortSwitch::Config config;
    config.protocol = protocol;
    config.ports = 2;
    PortSwitch sw(queue, config, 1);
    sim::LinkChannel out(queue, std::make_unique<phy::NoErrors>(), 2);
    std::vector<sim::FlitEnvelope> received;
    out.set_receiver([&received](sim::FlitEnvelope&& envelope) {
      received.push_back(envelope);
    });
    sw.set_output(1, &out);
    const FlitCodec codec(protocol);
    std::size_t sent = 0;
    for (const flit::Flit& original : originals(codec)) {
      for (const std::size_t offset : kErrorOffsets) {
        SCOPED_TRACE(testing::Message() << "error at byte " << offset);
        sim::FlitEnvelope envelope;
        envelope.flit = original;
        envelope.flit.bytes()[offset] ^= 0xA5;
        envelope.seal = sim::SealState::kTouched;
        envelope.dest_port = 1;
        sw.on_flit(std::move(envelope));
        queue.run();
        sent += 1;
        ASSERT_EQ(received.size(), sent);
        EXPECT_TRUE(received.back().flit == original);
        EXPECT_EQ(received.back().seal, sim::SealState::kCodeword);
      }
    }
    EXPECT_EQ(sw.stats().fec_corrected, sent);
    EXPECT_EQ(sw.stats().dropped_crc, 0u);
  }
}

TEST(SwitchDevice, DropsUncorrectableSilently) {
  // The silent flit drop at the heart of the paper: no NACK, no forward.
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  auto envelope = data_envelope(codec, 2);
  envelope.flit.bytes()[10] ^= 0x5A;
  envelope.flit.bytes()[13] ^= 0x5A;  // same-lane equal pair: surely fatal
  envelope.seal = sim::SealState::kTouched;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  EXPECT_TRUE(harness.received.empty());
  EXPECT_EQ(harness.sw->stats().dropped_fec, 1u);
  EXPECT_EQ(harness.sw->stats().flits_forwarded, 0u);
}

TEST(SwitchDevice, CxlRegeneratesCrcOverInternalCorruption) {
  // CXL: internal corruption is re-signed by the switch's link-layer CRC —
  // the endpoint will accept corrupt data (Fail_data).
  PortSwitch::Config config;
  config.protocol = Protocol::kCxl;
  config.internal_error_rate = 1.0;  // corrupt every transit
  Harness harness(config, 99);
  FlitCodec codec(Protocol::kCxl);
  harness.sw->on_flit(data_envelope(codec, 3));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_EQ(harness.sw->stats().internal_corruptions, 1u);
  const flit::Flit& out = harness.received[0].flit;
  // Link CRC is VALID over the corrupted content...
  crc::IsnCrc isn;
  EXPECT_EQ(isn.encode_plain(out.crc_protected_region()), out.crc_field());
  // ...yet the content differs from what the endpoint sent.
  const flit::Flit original = codec.encode_data(
      std::vector<std::uint8_t>(kPayloadBytes, 0x42), 3, std::nullopt);
  EXPECT_FALSE(out == original);
}

TEST(SwitchDevice, RxlPreservesEcrcOverInternalCorruption) {
  // RXL: the switch cannot re-sign; the stale ECRC travels on and the
  // endpoint's ISN check will reject the flit.
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  config.internal_error_rate = 1.0;
  Harness harness(config, 99);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 4));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  const flit::Flit& out = harness.received[0].flit;
  const transport::RxCheck check = codec.check_data(out, /*expected_seq=*/4);
  EXPECT_FALSE(check.crc_ok);
  // But the FEC was refreshed, so the next hop will not drop it.
  rs::FlitFec fec;
  flit::Flit copy = out;
  EXPECT_TRUE(fec.decode(copy.bytes()).accepted());
}

TEST(SwitchDevice, CxlDropsOnLinkCrcMismatch) {
  // A miscorrected-FEC image (valid codeword, wrong bytes) reaches the CXL
  // switch's CRC check and is dropped there.
  PortSwitch::Config config;
  config.protocol = Protocol::kCxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kCxl);
  auto envelope = data_envelope(codec, 5);
  // Corrupt payload then re-encode FEC only: FEC passes, CRC stale.
  envelope.flit.payload()[0] ^= 0x01;
  codec.apply_fec(envelope.flit);
  envelope.seal = sim::SealState::kTouched;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  EXPECT_TRUE(harness.received.empty());
  EXPECT_EQ(harness.sw->stats().dropped_crc, 1u);
}

/// A stream payload: every byte 0xC0 + index.
void salted_payload(std::uint64_t index,
                    std::span<std::uint8_t, kPayloadBytes> out) {
  std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(0xC0 + index));
}

/// Data flit `seq` as an endpoint sends it: the header written, the
/// payload region zero and held by reference to `stream`, unsealed.
sim::FlitEnvelope by_reference_envelope(const FlitCodec& codec,
                                        std::uint16_t seq,
                                        sim::PayloadFn& stream) {
  sim::FlitEnvelope envelope;
  codec.write_data_header(envelope.flit, seq, std::nullopt);
  envelope.seal = sim::SealState::kUnsealed;
  envelope.crc_fold = codec.data_crc_fold(seq);
  envelope.truth_index = 3;
  envelope.has_truth = true;
  envelope.payload_of = &stream;
  return envelope;
}

TEST(SwitchDevice, ByReferenceFlitCrossesAsItsHeader) {
  // Eight bytes-held flits (payload 0x42) fill and drain the forwarding
  // ring and the egress channel's ring. A flit whose payload is held by
  // reference then parks in recycled slots of both: only its header is
  // copied, so it arrives still unsealed and by reference, over the 0x42
  // its slots last held.
  PortSwitch::Config config;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  for (std::uint16_t seq = 0; seq < 8; ++seq)
    harness.sw->on_flit(data_envelope(codec, seq));
  harness.queue.run();
  sim::PayloadFn stream = salted_payload;
  const sim::FlitEnvelope sent = by_reference_envelope(codec, 8, stream);
  harness.sw->on_flit(sim::FlitEnvelope(sent));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 9u);
  const sim::FlitEnvelope& out = harness.received.back();
  EXPECT_EQ(out.flit.header(), sent.flit.header());
  EXPECT_EQ(out.payload_of, &stream);
  EXPECT_EQ(out.seal, sim::SealState::kUnsealed);
  EXPECT_EQ(out.crc_fold, sent.crc_fold);
  EXPECT_TRUE(std::all_of(out.flit.payload().begin(), out.flit.payload().end(),
                          [](std::uint8_t byte) { return byte == 0x42; }));
}

TEST(SwitchDevice, ByReferenceFlitInARecycledSlotIsSealedBeforeItsFlip) {
  // Eight bytes-held flits fill and drain the forwarding ring, so the next
  // flit parks in a slot whose payload last held theirs. A flit whose
  // payload is held by reference crosses a hub that flips every flit: it
  // arrives as the reference's payload, sealed and then flipped in one bit,
  // and the regenerated FEC accepts it.
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  config.internal_error_rate = 1.0;
  Harness harness(config, 99);
  FlitCodec codec(Protocol::kRxl);
  for (std::uint16_t seq = 0; seq < 8; ++seq)
    harness.sw->on_flit(data_envelope(codec, seq));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 8u);

  sim::PayloadFn stream = salted_payload;
  constexpr std::uint16_t kSeq = 8;
  const sim::FlitEnvelope reference = by_reference_envelope(codec, kSeq, stream);
  harness.sw->on_flit(sim::FlitEnvelope(reference));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 9u);
  EXPECT_EQ(harness.sw->stats().internal_corruptions, 9u);

  const sim::FlitEnvelope& out = harness.received.back();
  EXPECT_EQ(out.payload_of, nullptr);
  EXPECT_EQ(out.seal, sim::SealState::kCodeword);
  flit::Flit sealed = reference.flit;
  stream(reference.truth_index, sealed.payload());
  flit::seal(sealed, reference.crc_fold);
  int flipped_bits = 0;
  for (std::size_t i = 0; i < kHeaderBytes + kPayloadBytes; ++i)
    flipped_bits += std::popcount(
        static_cast<unsigned>(out.flit.bytes()[i] ^ sealed.bytes()[i]));
  EXPECT_EQ(flipped_bits, 1);
  // RXL forwards the sender's ECRC, which the flip now fails.
  EXPECT_EQ(out.flit.crc_field(), sealed.crc_field());
  EXPECT_FALSE(codec.check_data(out.flit, kSeq).crc_ok);
  flit::Flit copy = out.flit;
  EXPECT_EQ(codec.fec().decode(copy.bytes()).status, rs::DecodeStatus::kClean);
}

TEST(SwitchDevice, ControlFlitInARecycledSlotIsSealedBeforeItsFlip) {
  // A control flit arrives as its 24 B prefix in a slot whose tail holds an
  // earlier flit's bytes (0x5A), at a hub that flips every flit, and parks
  // in a forwarding slot eight bytes-held flits used before it. The hub
  // zero-fills the tail and seals before it flips, so the flit leaves as
  // the codec's codeword flipped in one bit, its FEC regenerated.
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  config.internal_error_rate = 1.0;
  Harness harness(config, 99);
  FlitCodec codec(Protocol::kRxl);
  for (std::uint16_t seq = 0; seq < 8; ++seq)
    harness.sw->on_flit(data_envelope(codec, seq));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 8u);

  const std::array<std::uint16_t, 4> words{0x0102, 0x0304, 0x0506, 0x0708};
  const transport::ControlCreditStamp stamp{words, 0x0B};
  flit::ControlPrefix prefix;
  FlitCodec::write_control(prefix, flit::ReplayCmd::kNackGoBackN, 300, stamp);
  sim::FlitEnvelope arriving;
  std::fill(arriving.flit.bytes().begin(), arriving.flit.bytes().end(),
            std::uint8_t{0x5A});
  std::copy(prefix.bytes.begin(), prefix.bytes.end(),
            arriving.flit.bytes().begin());
  arriving.seal = sim::SealState::kUnsealed;
  arriving.control_prefix = true;
  harness.sw->on_flit(std::move(arriving));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 9u);
  EXPECT_EQ(harness.sw->stats().internal_corruptions, 9u);

  const sim::FlitEnvelope& out = harness.received.back();
  EXPECT_FALSE(out.control_prefix);
  EXPECT_EQ(out.seal, sim::SealState::kCodeword);
  flit::Flit sealed =
      FlitCodec::control_flit(flit::ReplayCmd::kNackGoBackN, 300, stamp);
  flit::seal(sealed, 0);
  int flipped_bits = 0;
  for (std::size_t i = 0; i < kHeaderBytes + kPayloadBytes; ++i)
    flipped_bits += std::popcount(
        static_cast<unsigned>(out.flit.bytes()[i] ^ sealed.bytes()[i]));
  EXPECT_EQ(flipped_bits, 1);
  // RXL forwards the sender's CRC, which the flip now fails.
  EXPECT_EQ(out.flit.crc_field(), sealed.crc_field());
  EXPECT_FALSE(codec.check_control(out.flit));
  flit::Flit copy = out.flit;
  EXPECT_EQ(codec.fec().decode(copy.bytes()).status, rs::DecodeStatus::kClean);
}

TEST(SwitchDevice, NoOutputConfiguredIsSafe) {
  PortSwitch::Config config;
  config.ports = 1;
  sim::EventQueue queue;
  PortSwitch sw(queue, config, 1);
  FlitCodec codec(Protocol::kRxl);
  sw.on_flit(data_envelope(codec, 0));
  queue.run();
  // Processed, nowhere to go: counted as a no-route drop.
  EXPECT_EQ(sw.stats().flits_in, 1u);
  EXPECT_EQ(sw.stats().dropped_no_route, 1u);
  EXPECT_EQ(sw.stats().flits_forwarded, 0u);
}

TEST(SwitchDevice, ForwardingFlitsWaitInOneLane) {
  // Every flit enters the pipeline at once and leaves a forward latency
  // later, so the 64 keys wait in that latency's lane, none in the heap.
  PortSwitch::Config config;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  for (std::uint16_t seq = 0; seq < 64; ++seq)
    harness.sw->on_flit(data_envelope(codec, seq));
  EXPECT_EQ(harness.queue.pending(), 64u);
  EXPECT_EQ(sim::EventQueueProbe::lane_keys(harness.queue,
                                            config.forward_latency),
            64u);
  EXPECT_EQ(sim::EventQueueProbe::heap_entries(harness.queue), 0u);
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 64u);
  for (std::size_t i = 0; i < harness.received.size(); ++i)
    EXPECT_EQ(harness.received[i].truth_index, i);
}

TEST(PortSwitch, ForwardingFlitsWaitInOneLane) {
  // The pipeline's 64 keys wait in the forward latency's lane. When they
  // fire, both egress wires are busy, and their flits' rising keys share
  // the lane of the wires' slot + latency.
  sim::EventQueue queue;
  PortSwitch::Config config;
  config.ports = 2;
  PortSwitch sw(queue, config, 1);
  std::vector<std::uint64_t> received[2];
  sim::LinkChannel out0(queue, std::make_unique<phy::NoErrors>(), 2);
  sim::LinkChannel out1(queue, std::make_unique<phy::NoErrors>(), 3);
  out0.set_receiver([&received](sim::FlitEnvelope&& envelope) {
    received[0].push_back(envelope.truth_index);
  });
  out1.set_receiver([&received](sim::FlitEnvelope&& envelope) {
    received[1].push_back(envelope.truth_index);
  });
  sw.set_output(0, &out0);
  sw.set_output(1, &out1);
  FlitCodec codec(Protocol::kRxl);
  for (std::uint16_t seq = 0; seq < 64; ++seq) {
    sim::FlitEnvelope envelope = data_envelope(codec, seq);
    envelope.dest_port = seq % 2;
    sw.on_flit(std::move(envelope));
  }
  EXPECT_EQ(queue.pending(), 64u);
  EXPECT_EQ(sim::EventQueueProbe::lane_keys(queue, config.forward_latency),
            64u);
  EXPECT_EQ(queue.run(64), 64u);
  EXPECT_EQ(sim::EventQueueProbe::lane_keys(queue, 2 * kFlitSlotPs), 64u);
  EXPECT_EQ(sim::EventQueueProbe::heap_entries(queue), 0u);
  queue.run();
  ASSERT_EQ(received[0].size(), 32u);
  ASSERT_EQ(received[1].size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(received[0][i], 2 * i);
    EXPECT_EQ(received[1][i], 2 * i + 1);
  }
}

}  // namespace
}  // namespace rxl::switchdev
