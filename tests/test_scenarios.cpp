// Deterministic reproductions of the paper's failure traces:
//   Fig. 4  — CXL forwards an ack-carrying flit past a silent drop.
//   Fig. 5a — the replay then duplicates an already-executed request.
//   Fig. 5b — same-CQID data delivered out of order.
// Each CXL trace has an RXL counterpart showing ISN closing the hole.
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "rxl/flit/message_pack.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/switchdev/port_switch.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/txn/scoreboard.hpp"

namespace rxl::transport {
namespace {

/// The trace's payload for stream position `index`: one message, same CQID,
/// tag = stream index (requests for the Fig. 5a trace, data for Fig. 5b).
void pack_trace_payload(flit::MessageKind kind, std::uint64_t index,
                        Endpoint::PayloadOut out) {
  const flit::PackedMessage message{kind, /*cqid=*/0,
                                    static_cast<std::uint16_t>(index)};
  flit::pack_messages(std::span<const flit::PackedMessage>(&message, 1), out);
}

/// host -> [kill-flit-1 channel] -> switch -> channel -> device, plus a
/// clean direct return path for NACKs/ACKs.
struct ScenarioHarness {
  sim::EventQueue queue;
  std::optional<Endpoint> host;
  std::optional<Endpoint> device;
  std::optional<sim::LinkChannel> host_to_switch;
  std::optional<sim::LinkChannel> switch_to_device;
  std::optional<sim::LinkChannel> device_to_host;
  std::optional<switchdev::PortSwitch> sw;
  txn::StreamScoreboard stream;
  txn::TxnScoreboard txn_board;
  std::vector<std::uint64_t> delivery_order;  ///< truth indices as delivered

  ScenarioHarness(Protocol protocol, flit::MessageKind kind,
                  std::uint64_t flits = 4)
      : stream([kind](std::uint64_t index, Endpoint::PayloadOut out) {
          pack_trace_payload(kind, index, out);
        }) {
    ProtocolConfig config;
    config.protocol = protocol;
    config.coalesce_factor = 100;  // no spontaneous acks during the trace
    config.ack_timeout = 0;
    config.retry_timeout = 0;
    config.nack_retransmit_timeout = 0;  // NACK-driven recovery only
    host.emplace(queue, config, "host");
    device.emplace(queue, config, "device");

    host_to_switch.emplace(queue,
                           std::make_unique<phy::TargetedDoubleError>(1), 1,
                           /*slot=*/2000, /*latency=*/2000);
    switch_to_device.emplace(queue, std::make_unique<phy::NoErrors>(), 2,
                             2000, 2000);
    device_to_host.emplace(queue, std::make_unique<phy::NoErrors>(), 3, 2000,
                           2000);

    switchdev::PortSwitch::Config sw_config;
    sw_config.protocol = protocol;
    sw_config.forward_latency = 2000;
    sw_config.ports = 1;
    sw.emplace(queue, sw_config, 4);

    host->set_output(&*host_to_switch);
    host_to_switch->set_receiver([this](sim::FlitEnvelope&& envelope) {
      sw->on_flit(std::move(envelope));
    });
    sw->set_output(0, &*switch_to_device);
    switch_to_device->set_receiver([this](sim::FlitEnvelope&& envelope) {
      device->on_flit(std::move(envelope));
    });
    device->set_output(&*device_to_host);
    device_to_host->set_receiver([this](sim::FlitEnvelope&& envelope) {
      host->on_flit(std::move(envelope));
    });

    host->set_source(
        [this, flits](std::uint64_t index) {
          if (index >= flits) return false;
          stream.register_sent(index);
          return true;
        },
        {.payload_of = stream.payload_fn()});
    device->set_deliver([this](const sim::FlitEnvelope& envelope) {
      stream.on_deliver(envelope);
      std::array<std::uint8_t, kPayloadBytes> scratch;
      txn_board.on_deliver_payload(sim::payload_bytes(envelope, scratch));
      if (envelope.has_truth) delivery_order.push_back(envelope.truth_index);
    });

    // The paper's Fig. 4 precondition: when the host encodes its third data
    // flit (stream index 2), an ACK for the device's upstream flit #100 is
    // pending and will be piggybacked. Flits go out at t = 0, 2, 4, 6 ns;
    // arm between the second and third.
    queue.schedule(3000, [this] { host->debug_arm_ack(100); });
  }

  void run() {
    host->kick();
    device->kick();
    queue.run_until(1'000'000);  // 1 us: far beyond the trace
  }
};

TEST(ScenarioFig4, CxlForwardsPastDropThenDuplicatesOnReplay) {
  ScenarioHarness harness(Protocol::kCxl, flit::MessageKind::kRequest);
  harness.run();

  // Exact delivery order of the paper's Fig. 4 / Fig. 5a trace:
  // A (0), C (2, unchecked past the dropped B), then the replay B, C, D.
  EXPECT_EQ(harness.delivery_order,
            (std::vector<std::uint64_t>{0, 2, 1, 2, 3}));

  const auto stats = harness.stream.finalize();
  EXPECT_EQ(stats.order_violations, 1u);  // C consumed before B
  EXPECT_EQ(stats.duplicates, 1u);        // C consumed twice
  EXPECT_EQ(stats.late_deliveries, 1u);   // B consumed out of position
  EXPECT_EQ(stats.missing, 0u);           // everything eventually arrives
  EXPECT_EQ(stats.in_order, 2u);          // A and D arrive in position

  // Switch really dropped the flit silently (no CRC involvement).
  EXPECT_EQ(harness.sw->stats().dropped_fec, 1u);
  // The device never saw B's absence at flit C: one unchecked delivery.
  EXPECT_EQ(harness.device->extra_stats().unchecked_deliveries, 1u);
}

TEST(ScenarioFig4, RxlDetectsDropAtTheVeryNextFlit) {
  ScenarioHarness harness(Protocol::kRxl, flit::MessageKind::kRequest);
  harness.run();

  // ISN: flit C fails the ECRC against ESeqNum and is never forwarded out
  // of order; the replay delivers the stream exactly once, in order.
  EXPECT_EQ(harness.delivery_order,
            (std::vector<std::uint64_t>{0, 1, 2, 3}));

  const auto stats = harness.stream.finalize();
  EXPECT_EQ(stats.order_violations, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(stats.in_order, 4u);
  EXPECT_EQ(harness.sw->stats().dropped_fec, 1u);  // same physical event!
  EXPECT_EQ(harness.device->extra_stats().unchecked_deliveries, 0u);
  EXPECT_GT(harness.device->stats().nacks_sent, 0u);
}

TEST(ScenarioFig5a, CxlExecutesRequestTwice) {
  ScenarioHarness harness(Protocol::kCxl, flit::MessageKind::kRequest);
  harness.run();
  const auto& txn = harness.txn_board.stats();
  // Five request executions for four issued requests: C ran twice (and B
  // arrived after C, also flagged). The transmitter would now see data for
  // requests A, C, B, C — the paper's "redundant data" outcome.
  EXPECT_EQ(txn.requests_executed, 5u);
  EXPECT_EQ(txn.duplicate_executions, 2u);
}

TEST(ScenarioFig5a, RxlExecutesEachRequestOnce) {
  ScenarioHarness harness(Protocol::kRxl, flit::MessageKind::kRequest);
  harness.run();
  const auto& txn = harness.txn_board.stats();
  EXPECT_EQ(txn.requests_executed, 4u);
  EXPECT_EQ(txn.duplicate_executions, 0u);
}

TEST(ScenarioFig5b, CxlDeliversSameCqidDataOutOfOrder) {
  ScenarioHarness harness(Protocol::kCxl, flit::MessageKind::kData);
  harness.run();
  EXPECT_GT(harness.txn_board.stats().out_of_order_data, 0u);
}

TEST(ScenarioFig5b, RxlKeepsSameCqidDataInOrder) {
  ScenarioHarness harness(Protocol::kRxl, flit::MessageKind::kData);
  harness.run();
  EXPECT_EQ(harness.txn_board.stats().out_of_order_data, 0u);
}

TEST(ScenarioFig4, PiggybackedAckActuallyRodeOnFlitC) {
  // Sanity check on the trace construction itself: the host did piggyback
  // exactly one ACK, on a data flit.
  ScenarioHarness harness(Protocol::kCxl, flit::MessageKind::kRequest);
  harness.run();
  EXPECT_EQ(harness.host->stats().acks_piggybacked, 1u);
}

}  // namespace
}  // namespace rxl::transport
