// Credit-based flow control: ledger semantics, wire encoding, endpoint
// gating, loss healing, and bounded relay buffering — the deterministic
// (fast-suite) half of the flow-control test layer. The randomized
// congestion sweeps live in test_congestion_properties.cpp under the slow
// label.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "rxl/link/credit.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/transport/flit_codec.hpp"

namespace rxl::transport {
namespace {

// --------------------------------------------------------------------------
// Ledger unit semantics
// --------------------------------------------------------------------------

TEST(CreditFlow, DisabledWindowIsAlwaysAvailable) {
  link::CreditWindow window(0);
  EXPECT_FALSE(window.enabled());
  EXPECT_TRUE(window.available());
  window.consume();  // no-op
  EXPECT_TRUE(window.available());
  EXPECT_EQ(window.on_advertisement(5), 0u);
  EXPECT_EQ(window.consumed(), 0u);
  EXPECT_EQ(window.granted(), 0u);
}

TEST(CreditFlow, WindowConsumesAndRefillsFromCumulativeCounts) {
  link::CreditWindow window(3);
  EXPECT_TRUE(window.enabled());
  window.consume();
  window.consume();
  window.consume();
  EXPECT_FALSE(window.available());
  EXPECT_EQ(window.balance(), 0u);
  // Cumulative count 2: two slots freed since the start.
  EXPECT_EQ(window.on_advertisement(2), 2u);
  EXPECT_EQ(window.balance(), 2u);
  // The same count again is a repeat (e.g. carried by the next ACK too).
  EXPECT_EQ(window.on_advertisement(2), 0u);
  EXPECT_EQ(window.balance(), 2u);
  // Count 3 grants only the difference.
  EXPECT_EQ(window.on_advertisement(3), 1u);
  EXPECT_EQ(window.consumed(), 3u);
  EXPECT_EQ(window.granted(), 3u);
}

TEST(CreditFlow, SkippedAdvertisementHealsThroughCumulativeCount) {
  // A lost return is recovered by the NEXT carried count — the credit
  // analogue of the implicit sequence number: state is absolute, so no
  // increment can be lost forever.
  link::CreditWindow window(4);
  for (int i = 0; i < 4; ++i) window.consume();
  // Returns 1 and 2 were corrupted in transit; count 3 arrives first.
  EXPECT_EQ(window.on_advertisement(3), 3u);
  EXPECT_EQ(window.balance(), 3u);
}

TEST(CreditFlow, CumulativeCountsWrapAcrossThe16BitSpace) {
  link::CreditWindow window(2);
  link::CreditReturnLedger ledger(true);
  std::uint64_t granted_total = 0;
  // Walk the cumulative count twice around the 16-bit space in steps that
  // leave a remainder at the wrap boundary.
  for (std::uint64_t step = 0; step < (1u << 17); step += 3) {
    window.consume();
    window.consume();
    ledger.on_slot_freed();
    ledger.on_slot_freed();
    ledger.on_slot_freed();  // one extra free queued from "elsewhere"
    granted_total += window.on_advertisement(ledger.returned_total());
    window.consume();  // spend part of the refill to keep the walk going
  }
  EXPECT_EQ(granted_total, ledger.returned());
  EXPECT_GT(granted_total, 1u << 16);  // really crossed the wrap, twice
}

TEST(CreditFlow, ReturnLedgerTracksUnadvertisedFrees) {
  link::CreditReturnLedger ledger(true);
  EXPECT_EQ(ledger.unadvertised(), 0u);
  ledger.on_slot_freed();
  ledger.on_slot_freed();
  EXPECT_EQ(ledger.unadvertised(), 2u);
  EXPECT_EQ(ledger.returned_total(), 2u);
  ledger.mark_advertised();
  EXPECT_EQ(ledger.unadvertised(), 0u);
  ledger.on_slot_freed();
  EXPECT_EQ(ledger.unadvertised(), 1u);
  EXPECT_EQ(ledger.returned(), 3u);
  link::CreditReturnLedger disabled(false);
  disabled.on_slot_freed();
  EXPECT_EQ(disabled.returned_total(), 0u);
}

// --------------------------------------------------------------------------
// Wire encoding
// --------------------------------------------------------------------------

TEST(CreditFlow, ControlFlitCarriesCreditWordUnderCrc) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    const FlitCodec codec(protocol);
    const flit::Flit flit =
        codec.encode_control(flit::ReplayCmd::kAck, 17, 0xBEEF);
    EXPECT_EQ(control_vc_credit_word(flit, 0), 0xBEEF);
    EXPECT_TRUE(codec.check_control(flit));
    // The credit word sits inside the CRC-protected region: corrupting it
    // must fail the control check, never deliver a wrong count.
    flit::Flit corrupted = flit;
    corrupted.payload()[0] ^= 0x01;
    EXPECT_FALSE(codec.check_control(corrupted));
  }
}

TEST(CreditFlow, ZeroCreditWordKeepsLegacyControlImage) {
  // Hops without flow control stamp zero — the byte-identity contract that
  // keeps every pre-credit table reproduction exact.
  const FlitCodec codec(Protocol::kRxl);
  const flit::Flit with_default = codec.encode_control(flit::ReplayCmd::kAck, 9);
  const flit::Flit with_zero =
      codec.encode_control(flit::ReplayCmd::kAck, 9, 0);
  EXPECT_EQ(with_default, with_zero);
  EXPECT_EQ(control_vc_credit_word(with_default, 0), 0u);
}

// --------------------------------------------------------------------------
// Endpoint gating on a direct point-to-point harness
// --------------------------------------------------------------------------

struct DirectPair {
  sim::EventQueue queue;
  ProtocolConfig config;
  std::optional<Endpoint> tx;
  std::optional<Endpoint> rx;
  std::optional<sim::LinkChannel> forward;
  std::optional<sim::LinkChannel> reverse;
  std::uint64_t delivered = 0;
  std::uint64_t budget = 0;
  /// Stream position i carries 240 copies of the byte i.
  sim::PayloadFn payload{[](std::uint64_t index, Endpoint::PayloadOut out) {
    std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(index));
  }};

  explicit DirectPair(std::size_t credits, std::uint64_t flits) {
    budget = flits;
    config.protocol = Protocol::kRxl;
    config.ack_policy = link::AckPolicy::kStandalone;
    config.coalesce_factor = 4;
    // A symmetric hop; only tx's window is spent.
    const link::HopCredits hop{credits, credits, 1};
    tx.emplace(queue, config, "tx", hop);
    rx.emplace(queue, config, "rx", hop);
    forward.emplace(queue, std::make_unique<phy::NoErrors>(), 11, 2'000,
                    8'000);
    reverse.emplace(queue, std::make_unique<phy::NoErrors>(), 12, 2'000,
                    8'000);
    tx->set_output(&*forward);
    rx->set_output(&*reverse);
    forward->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { rx->on_flit(std::move(envelope)); });
    reverse->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { tx->on_flit(std::move(envelope)); });
    tx->set_source([this](std::uint64_t index) { return index < budget; },
                   {.payload_of = &payload});
    rx->set_deliver([this](const sim::FlitEnvelope&) { delivered += 1; });
  }
};

TEST(CreditFlow, TinyWindowThrottlesButDeliversEverything) {
  DirectPair pair(/*credits=*/3, /*flits=*/80);
  pair.tx->kick();
  pair.queue.run_until(40'000'000);
  EXPECT_EQ(pair.delivered, 80u);
  const EndpointExtraStats& tx_extra = pair.tx->extra_stats();
  const EndpointExtraStats& rx_extra = pair.rx->extra_stats();
  // The window (3) is far below the hop's bandwidth-delay product, so the
  // transmitter must have stalled on credits while the wire sat idle.
  EXPECT_GT(tx_extra.credit_stalls, 0u);
  // Conservation on a clean channel: every consumed slot freed, every
  // return granted, and the window ends fully refilled.
  EXPECT_EQ(tx_extra.credits_consumed, 80u);
  EXPECT_EQ(rx_extra.credits_returned, 80u);
  EXPECT_EQ(tx_extra.credits_granted, 80u);
  EXPECT_EQ(pair.tx->debug_credit_balance(), 3u);
  EXPECT_EQ(tx_extra.credit_probes, 0u);  // nothing was lost, no probes
  // No retries happened: the stalls were flow control, not loss recovery.
  EXPECT_EQ(pair.tx->stats().data_flits_retransmitted, 0u);
}

TEST(CreditFlow, DisabledCreditsLeaveCountersSilent) {
  DirectPair pair(/*credits=*/0, /*flits=*/50);
  pair.tx->kick();
  pair.queue.run_until(10'000'000);
  EXPECT_EQ(pair.delivered, 50u);
  EXPECT_EQ(pair.tx->extra_stats().credit_stalls, 0u);
  EXPECT_EQ(pair.tx->extra_stats().credits_consumed, 0u);
  EXPECT_EQ(pair.rx->extra_stats().credits_returned, 0u);
  EXPECT_EQ(pair.rx->extra_stats().credit_adverts, 0u);
}

TEST(CreditFlow, ProbeHealsLostFinalReturn) {
  // Swallow the first three reverse control flits entirely — including the
  // returns for every slot the 2-credit window holds. Without healing the
  // transmitter would stall forever; the credit probe (armed once the
  // stall begins) asks the receiver to re-advertise its cumulative count,
  // and the absolute count repairs the window in one flit.
  DirectPair pair(/*credits=*/2, /*flits=*/6);
  std::uint64_t reverse_drops = 0;
  pair.reverse->set_receiver([&](sim::FlitEnvelope&& envelope) {
    if (reverse_drops < 3) {
      reverse_drops += 1;
      return;  // swallowed in transit
    }
    pair.tx->on_flit(std::move(envelope));
  });
  pair.tx->kick();
  pair.queue.run_until(60'000'000);
  EXPECT_EQ(reverse_drops, 3u);
  EXPECT_EQ(pair.delivered, 6u);
  const EndpointExtraStats& tx_extra = pair.tx->extra_stats();
  EXPECT_GT(tx_extra.credit_probes, 0u);
  EXPECT_EQ(tx_extra.credits_consumed, 6u);
  EXPECT_EQ(tx_extra.credits_granted, 6u);
  EXPECT_EQ(pair.tx->debug_credit_balance(), 2u);
}

TEST(CreditFlow, NoRouteDropsReturnTheirCredits) {
  // A payload the relay accepts but cannot route is dropped — and the drop
  // vacates the buffer slot the upstream window charged. With a 2-credit
  // window and 5 unroutable payloads, the stream only finishes if every
  // dropped slot's credit comes back.
  sim::EventQueue queue;
  ProtocolConfig protocol;
  protocol.protocol = Protocol::kRxl;
  protocol.ack_policy = link::AckPolicy::kStandalone;
  const link::HopCredits hop{2, 2, 1};
  Endpoint tx(queue, protocol, "tx", hop);
  switchdev::RelaySwitch relay(queue, "r");
  relay.add_port(protocol, hop);
  sim::LinkChannel uplink(queue, std::make_unique<phy::NoErrors>(), 1, 2'000,
                          2'000);
  sim::LinkChannel control(queue, std::make_unique<phy::NoErrors>(), 2, 2'000,
                           2'000);
  tx.set_output(&uplink);
  uplink.set_receiver([&relay](sim::FlitEnvelope&& envelope) {
    relay.port(0).on_flit(std::move(envelope));
  });
  relay.port(0).set_output(&control);
  control.set_receiver(
      [&tx](sim::FlitEnvelope&& envelope) { tx.on_flit(std::move(envelope)); });
  sim::PayloadFn payload = [](std::uint64_t, Endpoint::PayloadOut out) {
    std::fill(out.begin(), out.end(), std::uint8_t{0x5A});
  };
  tx.set_source([](std::uint64_t index) { return index < 5; },
                {.payload_of = &payload, .flow_id = 7});
  tx.kick();
  queue.run_until(10'000'000);
  EXPECT_EQ(relay.port_stats(0).relayed_in, 5u);
  EXPECT_EQ(relay.port_stats(0).dropped_no_route, 5u);
  EXPECT_EQ(tx.extra_stats().credits_consumed, 5u);
  EXPECT_EQ(tx.extra_stats().credits_granted, 5u);
  EXPECT_EQ(tx.debug_credit_balance(), 2u);
}

// --------------------------------------------------------------------------
// Bounded relay buffering through the DAG fabric
// --------------------------------------------------------------------------

DagScenarioSpec clean_spec(std::uint64_t flits, std::size_t credits) {
  DagScenarioSpec spec;
  spec.protocol.protocol = Protocol::kRxl;
  spec.protocol.coalesce_factor = 8;
  spec.flits_per_flow = flits;
  spec.seed = 23;
  spec.horizon = 80'000'000;  // 80 us
  spec.hop_credits = credits;
  return spec;
}

void expect_strict_conservation(const DagReport& report) {
  EXPECT_GT(report.total_credits_consumed(), 0u);
  EXPECT_EQ(report.total_credits_consumed(), report.total_credits_returned());
  EXPECT_EQ(report.total_credits_returned(), report.total_credits_granted());
}

TEST(CreditFlow, BoundedChainDeliversWithOccupancyUnderTheDepth) {
  const DagConfig config = make_chain_dag(clean_spec(300, 2), 2);
  const DagReport report = run_dag_fabric(config);
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 300u);
  EXPECT_EQ(report.total_order_failures(), 0u);
  EXPECT_EQ(report.total_missing(), 0u);
  // The store-and-forward occupancy never exceeded the advertised depth.
  EXPECT_LE(report.max_ingress_occupancy(), 2u);
  EXPECT_GT(report.max_ingress_occupancy(), 0u);
  EXPECT_GT(report.total_credit_stalls(), 0u);  // 2 credits < hop BDP
  expect_strict_conservation(report);
}

TEST(CreditFlow, ReplaysDoNotDoubleSpendCredits) {
  // A noisy bounded chain: every retransmission re-sends a flit whose
  // buffer slot was charged at first transmission, so consumed must equal
  // the unique payload count per hop — not the wire transmission count —
  // and the conservation invariant must survive the retry storms.
  DagScenarioSpec spec = clean_spec(500, 3);
  spec.burst_injection_rate = 2e-3;
  spec.seed = 41;
  spec.horizon = 200'000'000;
  const DagConfig config = make_chain_dag(spec, 3);
  const DagReport report = run_dag_fabric(config);
  EXPECT_GT(report.total_hop_retransmissions(), 0u);
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 500u);
  EXPECT_EQ(report.flows[0].scoreboard.duplicates, 0u);
  EXPECT_EQ(report.flows[0].scoreboard.missing, 0u);
  EXPECT_LE(report.max_ingress_occupancy(), 3u);
  // Each of the 4 hops carries the 500 unique payloads exactly once in
  // credit terms, replays notwithstanding.
  EXPECT_EQ(report.total_credits_consumed(), 4u * 500u);
  EXPECT_EQ(report.total_credits_returned(), 4u * 500u);
  // Grants may trail returns only by what the reverse wires corrupted; on
  // clean reverse wires they must match hop-for-hop.
  EXPECT_LE(report.total_credits_granted(), report.total_credits_returned());
  for (const DagLinkStats& hop : report.hops) {
    if (hop.reverse_channel.flits_corrupted == 0) {
      EXPECT_EQ(hop.a_extra.credits_granted, hop.b_extra.credits_returned);
    }
  }
}

TEST(CreditFlow, InfiniteAndHugeWindowsAgreeOnCleanChannels) {
  // hop_credits = 0 (off) and an effectively-infinite window deliver the
  // same clean-channel outcome; only the accounting differs.
  const DagReport off = run_dag_fabric(make_chain_dag(clean_spec(400, 0), 2));
  const DagReport huge =
      run_dag_fabric(make_chain_dag(clean_spec(400, 4096), 2));
  EXPECT_EQ(off.flows[0].scoreboard.in_order, 400u);
  EXPECT_EQ(huge.flows[0].scoreboard.in_order, 400u);
  EXPECT_EQ(off.total_credit_stalls(), 0u);
  EXPECT_EQ(huge.total_credit_stalls(), 0u);  // never exhausted
  EXPECT_EQ(off.total_credits_consumed(), 0u);
  EXPECT_EQ(huge.total_credits_consumed(), 3u * 400u);
}

TEST(CreditFlow, IncastBacklogStaysWithinEveryIngressWindow) {
  const DagConfig config = make_incast_dag(clean_spec(400, 2), 4);
  const DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.flows.size(), 4u);
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, 400u);
    EXPECT_EQ(flow.scoreboard.missing, 0u);
  }
  // Four ingress ports, each bounded to 2 slots: the shared egress queue
  // can never hold more than the sum of the ingress windows.
  EXPECT_LE(report.max_ingress_occupancy(), 2u);
  EXPECT_LE(report.max_relay_queue_depth(), 4u * 2u);
  // 4:1 oversubscription with finite buffers MUST have backpressured the
  // sources through their ingress hops' credits.
  EXPECT_GT(report.total_credit_stalls(), 0u);
  expect_strict_conservation(report);
}

TEST(CreditFlow, HotspotThrottlesHotFlowsNotTheColdOne) {
  // Depth 24 sits above the hop bandwidth-delay product (~9 slots plus
  // credit-return batching), so an UNCONTENDED hop never exhausts its
  // window. The hot egress WIRE is the bottleneck (two flows share it);
  // its backlog pools in the relay queue until the hot ingress windows
  // fill, and the backpressure then lands on the hot SOURCES' transmit
  // windows — while the cold source, whose items drain at wire rate, never
  // stalls. That cascade is exactly what credit flow control is for.
  const DagConfig config = make_hotspot_dag(clean_spec(400, 24), 3);
  const DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.flows.size(), 3u);
  for (const DagFlowReport& flow : report.flows)
    EXPECT_EQ(flow.scoreboard.in_order, 400u);
  // Ingress edges 0 and 1 carry the hot flows, edge 2 the cold one; the
  // hop's a-side is the source terminal.
  for (const DagLinkStats& hop : report.hops) {
    if (hop.forward_edge == 0 || hop.forward_edge == 1) {
      EXPECT_GT(hop.a_extra.credit_stalls, 0u) << "edge " << hop.forward_edge;
    } else if (hop.forward_edge == 2) {
      EXPECT_EQ(hop.a_extra.credit_stalls, 0u) << "cold source stalled";
    }
  }
  // The backlog pooled in front of the hot egress (edge 3), not the cold
  // one (edge 4).
  ASSERT_EQ(report.relays.size(), 1u);
  const DagRelayPort* hot_port = nullptr;
  const DagRelayPort* cold_port = nullptr;
  for (const DagRelayPort& port : report.relays[0].ports) {
    if (port.tx_edge == 3) hot_port = &port;
    if (port.tx_edge == 4) cold_port = &port;
  }
  ASSERT_NE(hot_port, nullptr);
  ASSERT_NE(cold_port, nullptr);
  EXPECT_GT(hot_port->stats.max_queue_depth, cold_port->stats.max_queue_depth);
  expect_strict_conservation(report);
}

TEST(CreditFlow, PerEdgeOverrideTightensOnlyTheTrunk) {
  // Global depth 8, but the r1 -> r2 trunk edge (id 4 with 4 sources)
  // squeezed to 2: the override must bound r2's ingress occupancy while
  // the generous edges keep theirs.
  DagConfig config = make_trunk_dag(clean_spec(300, 8), 4);
  config.edges[4].credits = 2;
  const DagReport report = run_dag_fabric(config);
  for (const DagFlowReport& flow : report.flows)
    EXPECT_EQ(flow.scoreboard.in_order, 300u);
  ASSERT_EQ(report.relays.size(), 2u);
  // r2's trunk-fed ingress port (rx_edge 4) obeys the tightened depth.
  const DagRelayReport& r2 = report.relays[1];
  bool trunk_ingress_found = false;
  for (const DagRelayPort& port : r2.ports) {
    if (port.rx_edge == 4) {
      trunk_ingress_found = true;
      EXPECT_LE(port.stats.ingress_high_water, 2u);
      EXPECT_GT(port.stats.ingress_high_water, 0u);
    }
  }
  EXPECT_TRUE(trunk_ingress_found);
  // r1's trunk egress port stalls against the 2-slot window.
  const DagRelayReport& r1 = report.relays[0];
  bool trunk_egress_found = false;
  for (const DagRelayPort& port : r1.ports) {
    if (port.tx_edge == 4) {
      trunk_egress_found = true;
      EXPECT_GT(port.stats.credit_stalls, 0u);
    }
  }
  EXPECT_TRUE(trunk_egress_found);
  expect_strict_conservation(report);
}

// --------------------------------------------------------------------------
// Starvation guards: the DRR quantum floor
// --------------------------------------------------------------------------

TEST(CreditFlow, ZeroWeightFlowStillDrainsUnderDrr) {
  // A weight-0 flow sharing the incast egress with a saturating elephant:
  // the scheduler's quantum floor (max(1, weight)) guarantees the starved
  // VC at least one flit per service round, so the flow finishes instead
  // of parking forever behind the elephant's backlog.
  DagScenarioSpec spec = clean_spec(20'000, 8);
  spec.egress_policy = switchdev::EgressPolicy::kDrr;
  const DagFlowClass classes[] = {{0, 6, 0, 0}, {1, 0, 0, 300}};
  const DagConfig config = make_incast_dag(spec, 2, classes);
  const DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.flows.size(), 2u);
  EXPECT_EQ(report.flows[1].scoreboard.in_order, 300u);
  EXPECT_EQ(report.flows[1].scoreboard.missing, 0u);
  // The elephant kept the port saturated the whole time — the zero-weight
  // flow drained through contention, not after it.
  EXPECT_GT(report.flows[0].scoreboard.in_order, 10'000u);
  EXPECT_EQ(report.total_order_failures(), 0u);
  expect_strict_conservation(report);
}

TEST(CreditFlow, MarkSaturatedFlowStillDrainsUnderEcn) {
  // ecn_threshold = 1 marks a VC the moment a single flit is parked, so
  // both flows run mark-saturated for the whole contention. Marks are
  // early THROTTLE, not admission control: every mark clears once the
  // occupancy drains, the upstream re-kicks, and everything delivers.
  DagScenarioSpec spec = clean_spec(600, 8);
  spec.egress_policy = switchdev::EgressPolicy::kDrr;
  spec.ecn_threshold = 1;
  const DagFlowClass classes[] = {{0, 1, 0, 0}, {1, 1, 0, 0}};
  const DagConfig config = make_incast_dag(spec, 2, classes);
  const DagReport report = run_dag_fabric(config);
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, 600u);
    EXPECT_EQ(flow.scoreboard.missing, 0u);
  }
  EXPECT_GT(report.total_ecn_mark_events(), 0u);
  EXPECT_GT(report.total_ecn_stalls(), 0u);
  EXPECT_EQ(report.total_order_failures(), 0u);
  expect_strict_conservation(report);
}

}  // namespace
}  // namespace rxl::transport
