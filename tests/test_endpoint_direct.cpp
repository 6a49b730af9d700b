// Endpoint pair over a direct link: delivery, retry, ACK flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rxl/obs/metrics.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/switchdev/port_switch.hpp"
#include "rxl/switchdev/relay_switch.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/txn/scoreboard.hpp"
#include "hit_without_flip.hpp"

namespace rxl::transport {
namespace {

/// Stream payload for position `index`: every byte `Salt`, except the low
/// index bytes up front.
template <std::uint8_t Salt>
void payload_stream(std::uint64_t index, Endpoint::PayloadOut out) {
  std::fill(out.begin(), out.end(), Salt);
  out[0] = static_cast<std::uint8_t>(index);
  out[1] = static_cast<std::uint8_t>(index >> 8);
}

/// The first `flits` positions of `board`'s stream, registered as offered.
Endpoint::SourceFn stream_gate(txn::StreamScoreboard& board,
                               std::uint64_t flits) {
  return [&board, flits](std::uint64_t index) {
    if (index >= flits) return false;
    board.register_sent(index);
    return true;
  };
}

struct PairHarness {
  sim::EventQueue queue;
  std::optional<Endpoint> a;  // "host"
  std::optional<Endpoint> b;  // "device"
  std::optional<sim::LinkChannel> a_to_b;
  std::optional<sim::LinkChannel> b_to_a;
  txn::StreamScoreboard down{payload_stream<1>};  // a -> b
  txn::StreamScoreboard up{payload_stream<2>};    // b -> a

  PairHarness(const ProtocolConfig& config,
              std::unique_ptr<phy::ErrorModel> forward_errors,
              std::uint64_t a_flits, std::uint64_t b_flits) {
    a.emplace(queue, config, "a");
    b.emplace(queue, config, "b");
    a_to_b.emplace(queue, std::move(forward_errors), 11);
    b_to_a.emplace(queue, std::make_unique<phy::NoErrors>(), 12);
    a->set_output(&*a_to_b);
    b->set_output(&*b_to_a);
    a_to_b->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { b->on_flit(std::move(envelope)); });
    b_to_a->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { a->on_flit(std::move(envelope)); });
    attach(*a, *b, down, a_flits);
    attach(*b, *a, up, b_flits);
  }

  /// `tx` sends the first `budget` positions of `board`'s stream, by
  /// reference, and `rx` delivers them to `board`.
  static void attach(Endpoint& tx, Endpoint& rx, txn::StreamScoreboard& board,
                     std::uint64_t budget) {
    tx.set_source(stream_gate(board, budget),
                  {.payload_of = board.payload_fn()});
    rx.set_deliver([&board](const sim::FlitEnvelope& envelope) {
      board.on_deliver(envelope);
    });
  }

  void run(TimePs horizon) {
    a->kick();
    b->kick();
    queue.run_until(horizon);
  }
};

class EndpointBothProtocols : public ::testing::TestWithParam<Protocol> {};

TEST_P(EndpointBothProtocols, CleanLinkDeliversEverythingInOrder) {
  ProtocolConfig config;
  config.protocol = GetParam();
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 500, 500);
  harness.run(5'000'000);  // 5 us >> 500 flits * 2 ns
  const auto down = harness.down.finalize();
  const auto up = harness.up.finalize();
  EXPECT_EQ(down.in_order, 500u);
  EXPECT_EQ(down.order_violations, 0u);
  EXPECT_EQ(down.duplicates, 0u);
  EXPECT_EQ(down.data_corruptions, 0u);
  EXPECT_EQ(down.missing, 0u);
  EXPECT_EQ(up.in_order, 500u);
  EXPECT_EQ(up.order_violations, 0u);
}

TEST_P(EndpointBothProtocols, AcksFreeTheRetryBuffer) {
  ProtocolConfig config;
  config.protocol = GetParam();
  config.coalesce_factor = 4;
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 100, 100);
  harness.run(10'000'000);
  // After the run every flit is acked (the final coalesced ACK flushes via
  // the ack timeout), so both replay buffers drain.
  EXPECT_EQ(harness.a->debug_retry_buffer_size(), 0u);
  EXPECT_EQ(harness.b->debug_retry_buffer_size(), 0u);
}

TEST_P(EndpointBothProtocols, CorruptionIsRetriedToFullDelivery) {
  ProtocolConfig config;
  config.protocol = GetParam();
  // Aggressive corruption: ~2% of flits suffer a 2-symbol burst (FEC
  // corrects singles; pairs in one lane get through to CRC or drop).
  PairHarness harness(
      config,
      std::make_unique<phy::BernoulliGate>(
          0.02, std::make_unique<phy::SymbolBurstInjector>(5)),
      2000, 2000);
  harness.run(60'000'000);
  const auto down = harness.down.finalize();
  EXPECT_EQ(down.in_order, 2000u);
  EXPECT_EQ(down.missing, 0u);
  EXPECT_EQ(down.data_corruptions, 0u);
  // In a DIRECT connection whose reverse path is clean, even baseline CXL
  // never misorders: every data flit that matters arrives (nothing is
  // silently dropped by a switch) and every ACK and NACK arrives intact.
  // Once the reverse path errs too, CXL can lose flits on a direct link
  // (see RxlDeliversExactlyOnceUnderNoiseBothWays).
  EXPECT_EQ(down.order_violations, 0u);
}

TEST_P(EndpointBothProtocols, StandaloneAckPolicyDelivers) {
  ProtocolConfig config;
  config.protocol = GetParam();
  config.ack_policy = link::AckPolicy::kStandalone;
  config.coalesce_factor = 1;  // worst case: one ACK flit per data flit
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 300, 300);
  harness.run(10'000'000);
  EXPECT_EQ(harness.down.finalize().in_order, 300u);
  EXPECT_GT(harness.a->stats().control_flits_sent, 0u);
  EXPECT_EQ(harness.a->stats().acks_piggybacked, 0u);
}

TEST_P(EndpointBothProtocols, PiggybackPolicyUsesDataFlits) {
  ProtocolConfig config;
  config.protocol = GetParam();
  config.ack_policy = link::AckPolicy::kPiggyback;
  config.coalesce_factor = 4;
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 400, 400);
  harness.run(10'000'000);
  EXPECT_GT(harness.a->stats().acks_piggybacked, 50u);
}

// Seal states and payloads by reference: endpoints send unsealed flits
// whose payload is a reference to the stream's PayloadFn, channels write
// the payload and seal only the flits an error hits, and receivers take an
// untouched flit's verdict from metadata. These oracles force the other
// path on every flit and require the same run.

/// What one oracle run produces: the counters (scoreboards included), the
/// delivered streams (each flit's low truth-index byte and payload bytes,
/// in delivery order), how many deliveries still held their payload by
/// reference, and how many flits the channels sealed.
struct OracleRun {
  std::string counters;
  std::array<Endpoint::Snapshot, 2> snapshots;
  std::array<txn::StreamScoreboard::Stats, 2> boards;
  std::array<std::vector<std::uint8_t>, 2> delivered;
  std::uint64_t by_reference = 0;
  std::uint64_t hub_flips = 0;
  std::uint64_t carried = 0;
  std::uint64_t touched = 0;
};

/// A sink's delivery hook: scores the delivery on `board` and appends its
/// truth-index byte and payload bytes (written out here if the payload is
/// held by reference) to `stream`.
struct RecordingSink {
  txn::StreamScoreboard* board = nullptr;
  std::vector<std::uint8_t>* stream = nullptr;
  std::uint64_t* by_reference = nullptr;

  void operator()(const sim::FlitEnvelope& envelope) const {
    board->on_deliver(envelope);
    if (envelope.payload_of != nullptr) *by_reference += 1;
    std::array<std::uint8_t, kPayloadBytes> scratch;
    const std::span<const std::uint8_t, kPayloadBytes> payload =
        sim::payload_bytes(envelope, scratch);
    stream->push_back(static_cast<std::uint8_t>(envelope.truth_index));
    stream->insert(stream->end(), payload.begin(), payload.end());
  }
};

/// 4-symbol bursts (past FEC) on 3 % of flits, plus, when `correctable`,
/// 2-symbol bursts (FEC corrects them) on another 3 %; every flit reported
/// hit when `force_seal`.
std::unique_ptr<phy::ErrorModel> oracle_errors(bool force_seal,
                                               bool correctable = false) {
  std::unique_ptr<phy::ErrorModel> errors =
      std::make_unique<phy::BernoulliGate>(
          0.03, std::make_unique<phy::SymbolBurstInjector>(4));
  if (correctable) {
    std::vector<std::unique_ptr<phy::ErrorModel>> both;
    both.push_back(std::move(errors));
    both.push_back(std::make_unique<phy::BernoulliGate>(
        0.03, std::make_unique<phy::SymbolBurstInjector>(2)));
    errors = std::make_unique<phy::CompositeErrorModel>(std::move(both));
  }
  if (force_seal)
    return std::make_unique<phy::HitWithoutFlip>(std::move(errors));
  return errors;
}

/// Go-back-N and piggybacked ACKs; every hop runs kOracleCredits.
ProtocolConfig oracle_config(Protocol protocol) {
  ProtocolConfig config;
  config.protocol = protocol;
  config.ack_policy = link::AckPolicy::kPiggyback;
  config.retry_mode = RetryMode::kGoBackN;
  config.coalesce_factor = 4;
  return config;
}

/// 24 credits each way on one VC.
constexpr link::HopCredits kOracleCredits{24, 24, 1};

constexpr std::uint64_t kOracleFlits = 1500;

/// Go-back-N, piggybacked ACKs and credits over a link with 4-symbol bursts
/// in both directions, so FEC drops, CRC drops, NACKs, replays and credit
/// returns all occur.
OracleRun run_oracle_pair(Protocol protocol, bool force_seal) {
  const ProtocolConfig config = oracle_config(protocol);
  sim::EventQueue queue;
  Endpoint a(queue, config, "a", kOracleCredits);
  Endpoint b(queue, config, "b", kOracleCredits);
  sim::LinkChannel a_to_b(queue, oracle_errors(force_seal), 21);
  sim::LinkChannel b_to_a(queue, oracle_errors(force_seal), 22);
  a.set_output(&a_to_b);
  b.set_output(&b_to_a);
  a_to_b.set_receiver(
      [&b](sim::FlitEnvelope&& envelope) { b.on_flit(std::move(envelope)); });
  b_to_a.set_receiver(
      [&a](sim::FlitEnvelope&& envelope) { a.on_flit(std::move(envelope)); });
  OracleRun run;
  txn::StreamScoreboard down(payload_stream<1>);  // a -> b
  txn::StreamScoreboard up(payload_stream<2>);    // b -> a
  a.set_source(stream_gate(down, kOracleFlits),
               {.payload_of = down.payload_fn()});
  b.set_source(stream_gate(up, kOracleFlits), {.payload_of = up.payload_fn()});
  b.set_deliver(RecordingSink{&down, &run.delivered[0], &run.by_reference});
  a.set_deliver(RecordingSink{&up, &run.delivered[1], &run.by_reference});
  a.kick();
  b.kick();
  queue.run_until(40'000'000);
  run.boards = {down.finalize(), up.finalize()};
  obs::MetricsRegistry registry;
  for (const Endpoint* endpoint : {&a, &b}) {
    registry.add_endpoint(endpoint->name(), endpoint->stats());
    registry.add_endpoint_extra(endpoint->name(), endpoint->extra_stats());
  }
  registry.add_scoreboard("down", run.boards[0]);
  registry.add_scoreboard("up", run.boards[1]);
  run.counters = registry.to_csv();
  run.snapshots = {a.snapshot(), b.snapshot()};
  for (const sim::LinkChannel* channel : {&a_to_b, &b_to_a}) {
    run.carried += channel->stats().flits_carried;
    run.touched += channel->stats().flits_corrupted;
  }
  return run;
}

TEST_P(EndpointBothProtocols, MetadataVerdictsMatchSealingEveryFlit) {
  const OracleRun lazy = run_oracle_pair(GetParam(), false);
  const OracleRun sealed = run_oracle_pair(GetParam(), true);
  EXPECT_EQ(lazy.counters, sealed.counters);
  EXPECT_EQ(lazy.delivered[0], sealed.delivered[0]);
  EXPECT_EQ(lazy.delivered[1], sealed.delivered[1]);
  // The forced run sealed, and so wrote out, every flit; the lazy one only
  // the hit ones, and delivered the rest by reference.
  EXPECT_EQ(sealed.touched, sealed.carried);
  EXPECT_EQ(sealed.by_reference, 0u);
  EXPECT_EQ(lazy.carried, sealed.carried);
  EXPECT_GT(lazy.touched, 0u);
  EXPECT_LT(lazy.touched, lazy.carried / 10);
  EXPECT_GT(lazy.by_reference, 2 * kOracleFlits * 8 / 10);
  // Every mechanism the oracle is meant to cover ran, in both directions.
  for (const Endpoint::Snapshot& snapshot : lazy.snapshots) {
    EXPECT_GT(snapshot.link.data_flits_retransmitted, 0u);
    EXPECT_GT(snapshot.link.acks_piggybacked, 0u);
    EXPECT_GT(snapshot.link.nacks_sent, 0u);
    EXPECT_GT(snapshot.link.flits_discarded_fec, 0u);
    EXPECT_GT(snapshot.extra.credits_granted, 0u);
  }
}

/// One flow, source -> wire -> RelaySwitch -> wire -> PortSwitch (with
/// internal flips) -> wire -> sink, each hop's control path running straight
/// back. Every wire, the reverse ones included, carries oracle_errors with
/// correctable bursts, so some flits are delivered with an error corrected
/// and their payload held as bytes.
OracleRun run_oracle_relay_hub(Protocol protocol, bool force_seal) {
  const ProtocolConfig config = oracle_config(protocol);
  constexpr std::uint16_t kFlow = 3;
  sim::EventQueue queue;
  Endpoint source(queue, config, "source", kOracleCredits);
  Endpoint sink(queue, config, "sink", kOracleCredits);
  switchdev::RelaySwitch relay(queue, "relay");
  relay.add_port(config, kOracleCredits);  // 0: from the source
  relay.add_port(config, kOracleCredits);  // 1: toward the hub
  relay.set_route(kFlow, 1);
  switchdev::PortSwitch::Config hub_config;
  hub_config.protocol = protocol;
  hub_config.internal_error_rate = 0.01;
  hub_config.ports = 1;
  switchdev::PortSwitch hub(queue, hub_config, 31);
  sim::LinkChannel to_relay(queue, oracle_errors(force_seal, true), 21);
  sim::LinkChannel to_source(queue, oracle_errors(force_seal, true), 22);
  sim::LinkChannel to_hub(queue, oracle_errors(force_seal, true), 23);
  sim::LinkChannel to_sink(queue, oracle_errors(force_seal, true), 24);
  sim::LinkChannel sink_to_relay(queue, oracle_errors(force_seal, true),
                                 25);
  source.set_output(&to_relay);
  to_relay.set_receiver([&relay](sim::FlitEnvelope&& envelope) {
    relay.port(0).on_flit(std::move(envelope));
  });
  relay.port(0).set_output(&to_source);
  to_source.set_receiver([&source](sim::FlitEnvelope&& envelope) {
    source.on_flit(std::move(envelope));
  });
  relay.port(1).set_output(&to_hub);
  to_hub.set_receiver([&hub](sim::FlitEnvelope&& envelope) {
    hub.on_flit(std::move(envelope));
  });
  hub.set_output(0, &to_sink);
  to_sink.set_receiver([&sink](sim::FlitEnvelope&& envelope) {
    sink.on_flit(std::move(envelope));
  });
  sink.set_output(&sink_to_relay);
  sink_to_relay.set_receiver([&relay](sim::FlitEnvelope&& envelope) {
    relay.port(1).on_flit(std::move(envelope));
  });
  OracleRun run;
  txn::StreamScoreboard board(payload_stream<1>);
  source.set_source(stream_gate(board, kOracleFlits),
                    {.payload_of = board.payload_fn(), .flow_id = kFlow});
  sink.set_deliver(RecordingSink{&board, &run.delivered[0], &run.by_reference});
  source.kick();
  queue.run_until(80'000'000);
  obs::MetricsRegistry registry;
  for (const Endpoint* endpoint :
       {&source, &relay.port(0), &relay.port(1), &sink}) {
    registry.add_endpoint(endpoint->name(), endpoint->stats());
    registry.add_endpoint_extra(endpoint->name(), endpoint->extra_stats());
  }
  run.boards = {board.finalize(), {}};
  registry.add_relay_port("relay.p0", relay.port_stats(0));
  registry.add_relay_port("relay.p1", relay.port_stats(1));
  registry.add_hub("hub", hub.stats());
  registry.add_scoreboard("board", run.boards[0]);
  run.counters = registry.to_csv();
  run.snapshots = {source.snapshot(), sink.snapshot()};
  run.hub_flips = hub.stats().internal_corruptions;
  for (const sim::LinkChannel* channel :
       {&to_relay, &to_source, &to_hub, &to_sink, &sink_to_relay}) {
    run.carried += channel->stats().flits_carried;
    run.touched += channel->stats().flits_corrupted;
  }
  return run;
}

TEST_P(EndpointBothProtocols,
       PayloadsMaterializeOnlyWhereReadAcrossRelayAndHub) {
  const OracleRun lazy = run_oracle_relay_hub(GetParam(), false);
  const OracleRun sealed = run_oracle_relay_hub(GetParam(), true);
  EXPECT_EQ(lazy.counters, sealed.counters);
  EXPECT_EQ(lazy.delivered[0], sealed.delivered[0]);
  // The forced run wrote out every payload on its first wire; the lazy one
  // delivered most by reference and the rest (hit on some wire, or flipped
  // in the hub) as bytes.
  EXPECT_EQ(sealed.touched, sealed.carried);
  EXPECT_EQ(sealed.by_reference, 0u);
  EXPECT_GT(lazy.touched, 0u);
  EXPECT_GT(lazy.hub_flips, 0u);
  EXPECT_GT(lazy.by_reference, lazy.boards[0].delivered / 2);
  EXPECT_LT(lazy.by_reference, lazy.boards[0].delivered);
  if (GetParam() == Protocol::kRxl) {
    // The ECRC catches every hub flip end to end: exactly once, in order,
    // with intact payloads.
    EXPECT_EQ(lazy.boards[0].in_order, kOracleFlits);
    EXPECT_EQ(lazy.boards[0].duplicates, 0u);
    EXPECT_EQ(lazy.boards[0].data_corruptions, 0u);
  } else {
    // CXL's hub re-signs what it flipped (Fail_data), and the board sees
    // it in the bytes the hub wrote out.
    EXPECT_GT(lazy.boards[0].data_corruptions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, EndpointBothProtocols,
                         ::testing::Values(Protocol::kCxl, Protocol::kRxl),
                         [](const auto& info) {
                           return info.param == Protocol::kCxl ? "CXL" : "RXL";
                         });

TEST(Endpoint, RxlDeliversExactlyOnceUnderNoiseBothWays) {
  // The pair oracle's wiring: bursts on both directions of a direct link.
  // RXL delivers every flit exactly once and in order both ways. Baseline
  // CXL loses a few flits here (an ACK or NACK the reverse path corrupted
  // is in the chain); that loss is not pinned.
  const OracleRun run = run_oracle_pair(Protocol::kRxl, false);
  for (const txn::StreamScoreboard::Stats& stats : run.boards) {
    EXPECT_EQ(stats.delivered, kOracleFlits);
    EXPECT_EQ(stats.in_order, kOracleFlits);
    EXPECT_EQ(stats.duplicates, 0u);
    EXPECT_EQ(stats.order_violations, 0u);
    EXPECT_EQ(stats.data_corruptions, 0u);
    EXPECT_EQ(stats.missing, 0u);
  }
}

TEST(Endpoint, UnidirectionalTrafficFlushesAcksViaTimeout) {
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  config.coalesce_factor = 10;
  // b has no data to send, so piggybacking is impossible: ack timeout
  // flushes standalone ACKs.
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 50, 0);
  harness.run(20'000'000);
  EXPECT_EQ(harness.down.finalize().in_order, 50u);
  EXPECT_GT(harness.b->extra_stats().ack_timeout_flushes, 0u);
  EXPECT_EQ(harness.a->debug_retry_buffer_size(), 0u);
}

TEST(Endpoint, WindowStallsWhenAcksCannotFlow) {
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  config.retry_buffer_capacity = 8;
  config.ack_timeout = 0;      // disable ack flushing
  config.retry_timeout = 0;    // disable timeout replay
  config.coalesce_factor = 100;  // no ack will ever arm
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 100, 0);
  harness.run(5'000'000);
  // Only the first window's worth of flits can ever be sent.
  EXPECT_EQ(harness.a->stats().data_flits_sent, 8u);
  EXPECT_GT(harness.a->stats().tx_stalls, 0u);
  EXPECT_EQ(harness.down.finalize().in_order, 8u);
}

TEST(Endpoint, SequenceNumbersWrapCleanly) {
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  // > 1024 flits forces FSN wraparound.
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 2500, 0);
  harness.run(30'000'000);
  const auto down = harness.down.finalize();
  EXPECT_EQ(down.in_order, 2500u);
  EXPECT_EQ(down.order_violations, 0u);
  EXPECT_EQ(harness.a->debug_next_seq(), 2500 % 1024);
}

/// A transmitter whose new data comes from a scripted relay source, over a
/// clean link to a receiver that never answers: nothing is ever acked, so
/// the retry buffer holds every committed flit until the hop dies.
struct ScriptedRelayHarness {
  static constexpr std::uint16_t kFlow = 5;
  static constexpr std::uint16_t kPhantomFlow = 77;  ///< never committed
  sim::EventQueue queue;
  std::optional<Endpoint> tx;
  std::optional<Endpoint> rx;
  std::optional<sim::LinkChannel> forward;
  std::uint64_t pulls = 0;
  std::uint64_t items = 0;
  std::vector<std::uint64_t> delivered;
  bool payloads_intact = true;
  std::optional<Endpoint::HopDownEvent> hop_down;

  static void fill_item(std::uint64_t index, Endpoint::PayloadOut out) {
    std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(0x10 + index));
  }

  ScriptedRelayHarness() {
    ProtocolConfig config;
    config.protocol = Protocol::kRxl;
    config.retry_timeout = 1'000'000;
    config.max_retry_episodes = 1;
    tx.emplace(queue, config, "tx");
    rx.emplace(queue, config, "rx");
    forward.emplace(queue, std::make_unique<phy::NoErrors>(), 11);
    tx->set_output(&*forward);
    forward->set_receiver([this](sim::FlitEnvelope&& envelope) {
      rx->on_flit(std::move(envelope));
    });
    // Every pull scribbles over the reserved slot first; only every third
    // one hands a payload over. The others come back empty, credit-blocked
    // or ECN-blocked, each tagged with a flow no committed flit carries.
    tx->set_relay_source([this](Endpoint::PayloadOut out) {
      std::fill(out.begin(), out.end(), std::uint8_t{0xEE});
      Endpoint::RelayPull pull;
      pull.flow_id = kPhantomFlow;
      pull.truth_index = 999;
      switch (pulls++ % 4) {
        case 0:
          break;  // empty queue
        case 1:
          pull.credit_blocked = true;
          break;
        case 2:
          pull.ecn_blocked = true;
          break;
        default:
          fill_item(items, out);
          pull.pulled = true;
          pull.flow_id = kFlow;
          pull.truth_index = items++;
          break;
      }
      return pull;
    });
    rx->set_deliver([this](const sim::FlitEnvelope& envelope) {
      std::array<std::uint8_t, kPayloadBytes> scratch;
      const std::span<const std::uint8_t, kPayloadBytes> payload =
          sim::payload_bytes(envelope, scratch);
      std::array<std::uint8_t, kPayloadBytes> want;
      fill_item(envelope.truth_index, want);
      payloads_intact =
          payloads_intact &&
          std::equal(payload.begin(), payload.end(), want.begin());
      delivered.push_back(envelope.truth_index);
    });
    tx->set_hop_down([this](Endpoint::HopDownEvent&& event) {
      hop_down = std::move(event);
    });
  }
};

TEST(Endpoint, UncommittedRetrySlotNeverLeaks) {
  // Relay pulls that come back empty, credit-blocked or ECN-blocked leave
  // their reserved retry slot uncommitted: the flit count, the reroute
  // probe and the dead-hop drain see only committed flits, and no byte a
  // dropped pull wrote reaches the wire.
  ScriptedRelayHarness harness;
  // Each unproductive pull idles the transmitter; kick it every 3 ns.
  for (TimePs at = 0; at < 150'000; at += 3'000)
    harness.queue.schedule(at, [&harness] { harness.tx->kick(); });
  std::size_t held_mid_run = 0;
  bool phantom_held = true;
  harness.queue.schedule(200'000, [&] {
    held_mid_run = harness.tx->debug_retry_buffer_size();
    phantom_held =
        harness.tx->tx_holds_flow(ScriptedRelayHarness::kPhantomFlow);
  });
  harness.queue.run_until(10'000'000);

  ASSERT_GT(harness.items, 10u);
  EXPECT_EQ(harness.pulls / 4, harness.items);  // one item per four pulls
  EXPECT_EQ(held_mid_run, harness.items);
  EXPECT_FALSE(phantom_held);
  EXPECT_EQ(harness.tx->stats().data_flits_sent, harness.items);
  ASSERT_EQ(harness.delivered.size(), harness.items);
  EXPECT_TRUE(harness.payloads_intact);

  // The silent receiver kills the hop; the drain is the committed flits.
  ASSERT_TRUE(harness.hop_down.has_value());
  ASSERT_EQ(harness.hop_down->drained.size(), harness.items);
  for (std::size_t i = 0; i < harness.items; ++i) {
    const Endpoint::TxItem& item = harness.hop_down->drained[i].item;
    EXPECT_EQ(item.truth_index, i);
    EXPECT_EQ(item.flow_id, ScriptedRelayHarness::kFlow);
    std::array<std::uint8_t, kPayloadBytes> want;
    ScriptedRelayHarness::fill_item(i, want);
    EXPECT_EQ(item.payload, want) << "drained flit " << i;
  }
}

TEST(Endpoint, SourceWithoutDataCommitsNothing) {
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  config.retry_timeout = 0;
  sim::EventQueue queue;
  Endpoint tx(queue, config, "tx");
  sim::LinkChannel wire(queue, std::make_unique<phy::NoErrors>(), 11);
  tx.set_output(&wire);
  std::uint64_t offered = 0;
  std::uint64_t calls = 0;
  sim::PayloadFn payload = payload_stream<1>;
  tx.set_source(
      [&offered, &calls](std::uint64_t index) {
        calls += 1;
        return index < offered;
      },
      {.payload_of = &payload, .flow_id = 3});
  tx.kick();
  queue.run_until(100'000);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(tx.debug_retry_buffer_size(), 0u);
  EXPECT_FALSE(tx.tx_holds_flow(3));
  offered = 2;
  tx.kick();
  queue.run_until(200'000);
  EXPECT_EQ(tx.debug_retry_buffer_size(), 2u);
  EXPECT_TRUE(tx.tx_holds_flow(3));
  EXPECT_EQ(tx.stats().data_flits_sent, 2u);
}

TEST(EndpointDeathTest, NestedPullOnTheSameEndpointAborts) {
  // A source that re-enters its own endpoint's transmit loop would reserve
  // the retry slot its flit is about to occupy again. Checked in release
  // builds too.
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  sim::EventQueue queue;
  Endpoint tx(queue, config, "tx");
  sim::LinkChannel wire(queue, std::make_unique<phy::NoErrors>(), 11);
  tx.set_output(&wire);
  Endpoint* const self = &tx;
  sim::PayloadFn payload = payload_stream<1>;
  tx.set_source(
      [self](std::uint64_t) {
        self->kick();
        return true;
      },
      {.payload_of = &payload});
  EXPECT_DEATH(tx.kick(), "reserved again before the reservation");
}

}  // namespace
}  // namespace rxl::transport
