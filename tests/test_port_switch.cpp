// Transparent switch behaviour: FEC correct/drop, CRC handling per
// protocol, internal corruption semantics (the §6.3/§6.4 distinction), and
// routing by the envelope's destination tag. The SwitchDevice cases drive a
// PortSwitch in its one-port, in-line form (each hop of a linear fabric's
// hub chain); the PortSwitch cases route across several ports.
#include "rxl/switchdev/port_switch.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "rxl/crc/isn_crc.hpp"
#include "rxl/phy/error_model.hpp"

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
  envelope.pristine = true;
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
  EXPECT_TRUE(harness.received[0].pristine);
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
  envelope.pristine = false;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_TRUE(harness.received[0].pristine);  // re-encoded at egress
  EXPECT_EQ(harness.sw->stats().fec_corrected, 1u);
}

// A hub leaves an FEC-corrected image non-pristine, so egress regeneration
// re-encodes it. After a true correction that must write back exactly the
// original encoding, under both protocols: the pristine fast path then
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
        envelope.pristine = false;
        harness.sw->on_flit(std::move(envelope));
        harness.queue.run();
        sent += 1;
        ASSERT_EQ(harness.received.size(), sent);
        EXPECT_TRUE(harness.received.back().flit == original);
        EXPECT_TRUE(harness.received.back().pristine);
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
        envelope.pristine = false;
        envelope.dest_port = 1;
        sw.on_flit(std::move(envelope));
        queue.run();
        sent += 1;
        ASSERT_EQ(received.size(), sent);
        EXPECT_TRUE(received.back().flit == original);
        EXPECT_TRUE(received.back().pristine);
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
  envelope.pristine = false;
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
  envelope.pristine = false;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  EXPECT_TRUE(harness.received.empty());
  EXPECT_EQ(harness.sw->stats().dropped_crc, 1u);
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

TEST(SwitchDevice, ForwardingFlitsHoldOneHeapEntry) {
  PortSwitch::Config config;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  for (std::uint16_t seq = 0; seq < 64; ++seq)
    harness.sw->on_flit(data_envelope(codec, seq));
  EXPECT_EQ(harness.queue.pending(), 1u);
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 64u);
  for (std::size_t i = 0; i < harness.received.size(); ++i)
    EXPECT_EQ(harness.received[i].truth_index, i);
}

TEST(PortSwitch, ForwardingFlitsHoldOneHeapEntry) {
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
  EXPECT_EQ(queue.pending(), 1u);
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
