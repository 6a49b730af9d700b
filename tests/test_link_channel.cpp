#include "rxl/sim/link_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <vector>

#include "rxl/transport/flit_codec.hpp"
#include "event_queue_probe.hpp"
#include "hit_without_flip.hpp"

namespace rxl::sim {
namespace {

FlitEnvelope make_envelope(std::uint8_t tag) {
  FlitEnvelope envelope;
  envelope.flit.payload()[0] = tag;
  envelope.seal = SealState::kCodeword;
  return envelope;
}

/// Stream payload for position `index`: every byte 0xC0 + index.
void salted_payload(std::uint64_t index,
                    std::span<std::uint8_t, kPayloadBytes> out) {
  std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(0xC0 + index));
}

TEST(LinkChannel, DeliversAfterSlotPlusLatency) {
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1,
                      /*slot=*/2000, /*latency=*/8000);
  TimePs delivered_at = 0;
  channel.set_receiver([&](FlitEnvelope&&) { delivered_at = queue.now(); });
  const TimePs slot_end = channel.send(make_envelope(1));
  EXPECT_EQ(slot_end, 2000u);
  queue.run();
  EXPECT_EQ(delivered_at, 10000u);  // slot + latency
}

TEST(LinkChannel, SerialisesBackToBack) {
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1, 2000, 1000);
  std::vector<TimePs> deliveries;
  channel.set_receiver([&](FlitEnvelope&&) { deliveries.push_back(queue.now()); });
  channel.send(make_envelope(1));
  channel.send(make_envelope(2));
  channel.send(make_envelope(3));
  EXPECT_EQ(channel.next_free(), 6000u);
  queue.run();
  EXPECT_EQ(deliveries, (std::vector<TimePs>{3000, 5000, 7000}));
}

TEST(LinkChannel, PreservesPayloadWithoutErrors) {
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1);
  std::uint8_t seen = 0;
  SealState seal = SealState::kTouched;
  channel.set_receiver([&](FlitEnvelope&& envelope) {
    seen = envelope.flit.payload()[0];
    seal = envelope.seal;
  });
  channel.send(make_envelope(0xAB));
  queue.run();
  EXPECT_EQ(seen, 0xAB);
  EXPECT_EQ(seal, SealState::kCodeword);
}

TEST(LinkChannel, MarksCorruptedEnvelopes) {
  EventQueue queue;
  // BER 1.0 would flip everything; use a deterministic always-burst model.
  LinkChannel channel(queue,
                      std::make_unique<phy::SymbolBurstInjector>(2), 7);
  SealState seal = SealState::kCodeword;
  channel.set_receiver([&](FlitEnvelope&& envelope) { seal = envelope.seal; });
  channel.send(make_envelope(1));
  queue.run();
  EXPECT_EQ(seal, SealState::kTouched);
  EXPECT_EQ(channel.stats().flits_corrupted, 1u);
  EXPECT_GT(channel.stats().bits_flipped, 0u);
}

TEST(LinkChannel, StatsCountCarriedFlitsAndBusyTime) {
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1, 2000, 0);
  channel.set_receiver([](FlitEnvelope&&) {});
  for (int i = 0; i < 10; ++i) channel.send(make_envelope(1));
  queue.run();
  EXPECT_EQ(channel.stats().flits_carried, 10u);
  EXPECT_EQ(channel.stats().busy_time, 20000u);
  EXPECT_EQ(channel.stats().flits_corrupted, 0u);
}

TEST(LinkChannel, IdleGapThenSend) {
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1, 2000, 1000);
  std::vector<TimePs> deliveries;
  channel.set_receiver([&](FlitEnvelope&&) { deliveries.push_back(queue.now()); });
  channel.send(make_envelope(1));
  queue.run();  // first delivery at t = 3000; wire has been idle since 2000
  queue.schedule(0, [&] { channel.send(make_envelope(2)); });
  queue.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 3000u);
  // Second send starts immediately at t = 3000 (no queueing behind an idle
  // wire): delivered at 3000 + slot + latency = 6000.
  EXPECT_EQ(deliveries[1], 6000u);
}

TEST(LinkChannel, FlitsInFlightWaitInOneLane) {
  // Deliveries leave in FIFO order and every key rises, so each flit's key
  // waits in the lane of the channel's slot + latency, none in the heap,
  // and one leaves per delivery.
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1, 2000, 8000);
  std::vector<std::uint8_t> tags;
  channel.set_receiver([&](FlitEnvelope&& envelope) {
    tags.push_back(envelope.flit.payload()[0]);
  });
  for (int i = 0; i < 64; ++i)
    channel.send(make_envelope(static_cast<std::uint8_t>(i)));
  EXPECT_EQ(queue.pending(), 64u);
  EXPECT_EQ(EventQueueProbe::lane_keys(queue, 10'000), 64u);
  EXPECT_EQ(EventQueueProbe::heap_entries(queue), 0u);
  queue.run(10);
  EXPECT_EQ(queue.pending(), 54u);
  EXPECT_EQ(EventQueueProbe::lane_keys(queue, 10'000), 54u);
  queue.run();
  ASSERT_EQ(tags.size(), 64u);
  for (std::size_t i = 0; i < tags.size(); ++i) EXPECT_EQ(tags[i], i);
  EXPECT_EQ(queue.now(), 64u * 2000u + 8000u);
  EXPECT_EQ(queue.rekeyed_in_place(), 0u);
  EXPECT_EQ(queue.peak_pending(), 64u);
}

TEST(LinkChannel, ReceiverGetsTheCorruptedSlotAndMaySendElsewhere) {
  // The error model corrupts the in-flight slot, and the receiver is handed
  // that slot; forwarding it onto another channel copies it there.
  EventQueue queue;
  LinkChannel first(queue, std::make_unique<phy::SymbolBurstInjector>(2), 7);
  LinkChannel second(queue, std::make_unique<phy::NoErrors>(), 1);
  first.set_receiver([&](FlitEnvelope&& envelope) { second.send(envelope); });
  FlitEnvelope received;
  second.set_receiver([&](FlitEnvelope&& envelope) { received = envelope; });
  const FlitEnvelope sent = make_envelope(0x5A);
  first.send(sent);
  queue.run();
  EXPECT_EQ(received.seal, SealState::kTouched);
  EXPECT_NE(received.flit, sent.flit);
  EXPECT_EQ(first.stats().flits_corrupted, 1u);
}

TEST(LinkChannel, ByReferenceFlitCopiesOnlyItsHeader) {
  // A flit whose payload is held by reference hops as its 2 B header: the
  // recycled in-flight slot keeps the payload an earlier flit left there.
  // An error hit writes the reference's payload and seals the slot before
  // it flips, so those stale bytes never reach a check.
  const transport::FlitCodec codec(transport::Protocol::kRxl);
  PayloadFn stream = salted_payload;
  constexpr std::uint16_t kSeq = 5;
  flit::Flit image;  // as an endpoint sends it: header only, payload zero
  codec.write_data_header(image, kSeq, std::nullopt);
  const FlitTags tags{{/*truth_index=*/7, &stream}, true, 0,
                      codec.data_crc_fold(kSeq), SealState::kUnsealed};
  std::array<std::uint8_t, kPayloadBytes> expected{};
  stream(7, expected);

  const auto run = [&](std::unique_ptr<phy::ErrorModel> errors) {
    EventQueue queue;
    LinkChannel channel(queue, std::move(errors), 1);
    std::optional<FlitEnvelope> seen;
    channel.set_receiver([&](FlitEnvelope&& envelope) { seen = envelope; });
    // Eight bytes-held flits fill the ring's eight slots and drain, so the
    // next flit lands in a slot whose payload reads 0x5A.
    FlitEnvelope held;
    std::fill(held.flit.payload().begin(), held.flit.payload().end(),
              std::uint8_t{0x5A});
    for (int i = 0; i < 8; ++i) channel.send(held);
    queue.run();
    channel.send(image, tags);
    queue.run();
    return *seen;
  };

  const FlitEnvelope clean = run(std::make_unique<phy::NoErrors>());
  EXPECT_EQ(clean.flit.header(), image.header());
  EXPECT_EQ(clean.payload_of, &stream);
  EXPECT_EQ(clean.truth_index, 7u);
  EXPECT_EQ(clean.seal, SealState::kUnsealed);
  EXPECT_TRUE(std::all_of(clean.flit.payload().begin(),
                          clean.flit.payload().end(),
                          [](std::uint8_t byte) { return byte == 0x5A; }));

  FlitEnvelope hit = run(
      std::make_unique<phy::HitWithoutFlip>(std::make_unique<phy::NoErrors>()));
  EXPECT_EQ(hit.flit.header(), image.header());
  EXPECT_EQ(hit.payload_of, nullptr);
  EXPECT_EQ(hit.seal, SealState::kTouched);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         hit.flit.payload().begin()));
  const rs::FecDecodeResult fec = codec.fec().decode(hit.flit.bytes());
  EXPECT_EQ(fec.status, rs::DecodeStatus::kClean);
  EXPECT_TRUE(codec.check_data(hit.flit, kSeq).crc_ok);
}

TEST(LinkChannel, ControlFlitCopiesOnlyItsPrefix) {
  // A control flit hops as its 24 B prefix (header, eight credit words, ECN
  // byte): the recycled in-flight slot keeps the bytes an earlier flit left
  // behind it. An error hit zero-fills that tail and seals the slot before
  // it flips, so the flip lands on exactly the codeword the codec builds.
  using transport::FlitCodec;
  const std::array<std::uint16_t, 8> words{0x1111, 0x2222, 0x3333, 0x4444,
                                           0x5555, 0x6666, 0x7777, 0x8888};
  const transport::ControlCreditStamp stamp{words, 0xA5};
  flit::ControlPrefix prefix;
  FlitCodec::write_control(prefix, flit::ReplayCmd::kAck, 17, stamp);
  const FlitTags tags{{}, false, 0, 0, SealState::kUnsealed,
                      /*control_prefix=*/true};
  flit::Flit codeword = FlitCodec::control_flit(flit::ReplayCmd::kAck, 17,
                                                stamp);
  flit::seal(codeword, 0);

  const auto run = [&](std::unique_ptr<phy::ErrorModel> errors,
                       const flit::ControlPrefix& sent) {
    EventQueue queue;
    LinkChannel channel(queue, std::move(errors), 1);
    std::optional<FlitEnvelope> seen;
    channel.set_receiver([&](FlitEnvelope&& envelope) { seen = envelope; });
    // Eight bytes-held flits of 0x5A fill the ring's eight slots and drain,
    // so the control flit lands in a slot that reads 0x5A throughout.
    FlitEnvelope held;
    std::fill(held.flit.bytes().begin(), held.flit.bytes().end(),
              std::uint8_t{0x5A});
    for (int i = 0; i < 8; ++i) channel.send(held);
    queue.run();
    channel.send(sent, tags);
    queue.run();
    return *seen;
  };

  const FlitEnvelope clean = run(std::make_unique<phy::NoErrors>(), prefix);
  EXPECT_TRUE(clean.control_prefix);
  EXPECT_EQ(clean.seal, SealState::kUnsealed);
  EXPECT_TRUE(std::equal(prefix.bytes.begin(), prefix.bytes.end(),
                         clean.flit.bytes().begin()));
  const auto tail = clean.flit.bytes().subspan(flit::kControlPrefixBytes);
  EXPECT_TRUE(std::all_of(tail.begin(), tail.end(),
                          [](std::uint8_t byte) { return byte == 0x5A; }));
  // Every byte a receiver reads came across.
  EXPECT_EQ(clean.flit.header(), codeword.header());
  for (std::size_t vc = 0; vc < words.size(); ++vc)
    EXPECT_EQ(transport::control_vc_credit_word(clean.flit, vc), words[vc]);
  EXPECT_EQ(transport::control_ecn_marks(clean.flit), 0xA5);

  const FlitEnvelope hit = run(
      std::make_unique<phy::HitWithoutFlip>(std::make_unique<phy::NoErrors>()),
      prefix);
  EXPECT_FALSE(hit.control_prefix);
  EXPECT_EQ(hit.seal, SealState::kTouched);
  EXPECT_EQ(hit.flit, codeword);
  const transport::FlitCodec codec(transport::Protocol::kRxl);
  EXPECT_TRUE(codec.check_control(hit.flit));

  // A single-VC ACK hit the same way is encode_control's codeword.
  const std::uint16_t word = 0xBEEF;
  flit::ControlPrefix single;
  FlitCodec::write_control(single, flit::ReplayCmd::kNackGoBackN, 5,
                           {std::span(&word, 1), 0});
  const FlitEnvelope single_hit = run(
      std::make_unique<phy::HitWithoutFlip>(std::make_unique<phy::NoErrors>()),
      single);
  EXPECT_EQ(single_hit.flit,
            codec.encode_control(flit::ReplayCmd::kNackGoBackN, 5, word));
}

TEST(LinkChannelDeathTest, SendFromItsOwnReceiverAborts) {
  // The receiver holds the channel's in-flight slot, which a send on the
  // same channel could move. Checked in release builds too.
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1);
  channel.set_receiver([&](FlitEnvelope&& envelope) { channel.send(envelope); });
  channel.send(make_envelope(1));
  EXPECT_DEATH(queue.run(), "parked into while handling its head");
}

TEST(LinkChannelDeathTest, NestedRunThatReachesTheChannelAborts) {
  // Every flit's key is posted when it is sent, so a receiver that runs
  // the queue would be handed the next flit while it still holds this
  // one's slot. Checked in release builds too.
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1);
  channel.set_receiver([&](FlitEnvelope&&) { queue.run(); });
  channel.send(make_envelope(1));
  channel.send(make_envelope(2));
  EXPECT_DEATH(queue.run(), "fired while handling its head");
}

}  // namespace
}  // namespace rxl::sim
