// Fault injection and resilience: the deterministic (fast-suite) half of
// the PR 7 robustness layer. Covers the LinkFaultSchedule timeline algebra,
// LinkChannel black-holing and revival re-equalization, endpoint dead-hop
// declaration with credit refunds, plan_dag fault validation and backup
// precomputation, and end-to-end reroute through the diamond fabric. The
// randomized fault universes live in test_fault_properties.cpp under the
// slow label.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "plan_rejection.hpp"
#include "rxl/common/ring_queue.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/fault_plan.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/endpoint.hpp"

namespace rxl::transport {
namespace {

// --------------------------------------------------------------------------
// LinkFaultSchedule timeline algebra
// --------------------------------------------------------------------------

TEST(FaultSchedule, NormalizeSortsAndMergesOverlappingWindows) {
  sim::LinkFaultSchedule schedule;
  schedule.add_window(30'000, 40'000);
  schedule.add_window(10'000, 20'000);
  schedule.add_window(15'000, 30'000);  // bridges the first two
  schedule.normalize();
  ASSERT_EQ(schedule.windows().size(), 1u);
  EXPECT_EQ(schedule.windows()[0].down_at, 10'000u);
  EXPECT_EQ(schedule.windows()[0].up_at, 40'000u);
  EXPECT_FALSE(schedule.down_at_time(9'999));
  EXPECT_TRUE(schedule.down_at_time(10'000));
  EXPECT_TRUE(schedule.down_at_time(39'999));
  EXPECT_FALSE(schedule.down_at_time(40'000));  // up_at is exclusive
  EXPECT_FALSE(schedule.permanently_down());
  // The merged window is fully over only once its up_at has passed.
  EXPECT_EQ(schedule.windows_ended_by(39'999), 0u);
  EXPECT_EQ(schedule.windows_ended_by(40'000), 1u);
}

TEST(FaultSchedule, PermanentWindowSwallowsEverythingAfterIt) {
  sim::LinkFaultSchedule schedule;
  schedule.add_window(10'000, 20'000);
  schedule.add_window(50'000, 0);       // link death
  schedule.add_window(60'000, 70'000);  // inside the permanent outage
  schedule.normalize();
  ASSERT_EQ(schedule.windows().size(), 2u);
  EXPECT_EQ(schedule.windows()[1].down_at, 50'000u);
  EXPECT_EQ(schedule.windows()[1].up_at, 0u);
  EXPECT_TRUE(schedule.permanently_down());
  EXPECT_FALSE(schedule.down_at_time(30'000));
  EXPECT_TRUE(schedule.down_at_time(55'000));
  EXPECT_TRUE(schedule.down_at_time(1'000'000'000));  // never comes back
  // Only the finite flap counts as "ended"; the death never does.
  EXPECT_EQ(schedule.windows_ended_by(1'000'000'000), 1u);
  // Idempotence: a second normalize must not change the timeline.
  schedule.normalize();
  ASSERT_EQ(schedule.windows().size(), 2u);
  EXPECT_EQ(schedule.windows()[0].up_at, 20'000u);
}

TEST(FaultSchedule, FlapGeneratorIsSeedDeterministic) {
  const sim::LinkFaultSchedule a =
      sim::make_flap_schedule(99, 1'000'000, 50'000'000, 5'000'000, 500'000);
  const sim::LinkFaultSchedule b =
      sim::make_flap_schedule(99, 1'000'000, 50'000'000, 5'000'000, 500'000);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].down_at, b.windows()[i].down_at);
    EXPECT_EQ(a.windows()[i].up_at, b.windows()[i].up_at);
  }
  // Every flap is a finite outage of the configured length, inside the
  // requested span, and the timeline is sorted and disjoint.
  EXPECT_FALSE(a.permanently_down());
  TimePs previous_end = 0;
  for (const sim::FaultWindow& window : a.windows()) {
    EXPECT_GE(window.down_at, 1'000'000u);
    EXPECT_LT(window.down_at, 50'000'000u);
    EXPECT_EQ(window.up_at - window.down_at, 500'000u);
    EXPECT_GE(window.down_at, previous_end);
    previous_end = window.up_at;
  }
  const sim::LinkFaultSchedule other =
      sim::make_flap_schedule(100, 1'000'000, 50'000'000, 5'000'000, 500'000);
  EXPECT_NE(other.windows()[0].down_at, a.windows()[0].down_at);
}

// --------------------------------------------------------------------------
// LinkChannel black-holing and revival re-equalization
// --------------------------------------------------------------------------

/// Counts corrupt()/reset() calls so the tests can see exactly when the
/// channel consults its error process.
class CountingErrors final : public phy::ErrorModel {
 public:
  CountingErrors(std::size_t* corrupts, std::size_t* resets) noexcept
      : corrupts_(corrupts), resets_(resets) {}
  std::size_t corrupt(std::span<std::uint8_t>, Xoshiro256&) override {
    *corrupts_ += 1;
    return 0;
  }
  void reset() noexcept override { *resets_ += 1; }

 private:
  std::size_t* corrupts_;
  std::size_t* resets_;
};

TEST(FaultChannel, BlackholesOnlyInsideTheDownWindow) {
  sim::EventQueue queue;
  std::size_t corrupts = 0;
  std::size_t resets = 0;
  sim::LinkChannel channel(
      queue, std::make_unique<CountingErrors>(&corrupts, &resets), 7, 2'000,
      2'000);
  sim::LinkFaultSchedule schedule;
  schedule.add_window(10'000, 20'000);
  schedule.normalize();
  channel.set_fault_schedule(&schedule);
  std::uint64_t delivered = 0;
  channel.set_receiver([&](sim::FlitEnvelope&&) { delivered += 1; });
  const auto send_one = [&] {
    sim::FlitEnvelope envelope;
    (void)channel.send(std::move(envelope));
  };
  queue.schedule_at(0, send_one);       // before the window: delivered
  queue.schedule_at(12'000, send_one);  // inside: black-holed
  queue.schedule_at(30'000, send_one);  // after revival: delivered
  queue.run();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(channel.stats().flits_carried, 2u);
  EXPECT_EQ(channel.stats().flits_blackholed, 1u);
  // The dead wire never touched the error process, and the revival
  // re-equalized it exactly once, before the post-outage transmit.
  EXPECT_EQ(corrupts, 2u);
  EXPECT_EQ(resets, 1u);
}

TEST(FaultChannel, EmptyScheduleIsIgnoredEntirely) {
  sim::EventQueue queue;
  std::size_t corrupts = 0;
  std::size_t resets = 0;
  sim::LinkChannel channel(
      queue, std::make_unique<CountingErrors>(&corrupts, &resets), 7, 2'000,
      2'000);
  const sim::LinkFaultSchedule empty_schedule;
  channel.set_fault_schedule(&empty_schedule);  // nulled: no fault path
  std::uint64_t delivered = 0;
  channel.set_receiver([&](sim::FlitEnvelope&&) { delivered += 1; });
  sim::FlitEnvelope envelope;
  (void)channel.send(std::move(envelope));
  queue.run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(channel.stats().flits_blackholed, 0u);
  EXPECT_EQ(corrupts, 1u);
  EXPECT_EQ(resets, 0u);
}

// --------------------------------------------------------------------------
// Endpoint dead-hop declaration on a direct point-to-point harness
// --------------------------------------------------------------------------

/// Point-to-point hop with fault schedules attached to both wires (a dead
/// cable takes the reverse control path with it, like the fabric's implicit
/// control wires sharing their forward edge's timeline).
struct FaultyPair {
  sim::EventQueue queue;
  ProtocolConfig config;
  sim::LinkFaultSchedule forward_faults;
  sim::LinkFaultSchedule reverse_faults;
  std::optional<Endpoint> tx;
  std::optional<Endpoint> rx;
  std::optional<sim::LinkChannel> forward;
  std::optional<sim::LinkChannel> reverse;
  std::uint64_t delivered = 0;
  std::uint64_t budget = 0;
  std::optional<Endpoint::HopDownEvent> hop_down;
  /// Stream position i carries 240 copies of the byte i.
  sim::PayloadFn payload{[](std::uint64_t index, Endpoint::PayloadOut out) {
    std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(index));
  }};

  FaultyPair(std::size_t credits, std::uint64_t flits,
             const sim::LinkFaultSchedule& faults, unsigned episodes) {
    budget = flits;
    forward_faults = faults;
    reverse_faults = faults;
    config.protocol = Protocol::kRxl;
    config.ack_policy = link::AckPolicy::kStandalone;
    config.coalesce_factor = 4;
    config.retry_timeout = 1'000'000;  // 1 us: quick episodes
    config.max_retry_episodes = episodes;
    const link::HopCredits hop{credits, credits, 1};
    tx.emplace(queue, config, "tx", hop);
    rx.emplace(queue, config, "rx", hop);
    forward.emplace(queue, std::make_unique<phy::NoErrors>(), 11, 2'000,
                    8'000);
    reverse.emplace(queue, std::make_unique<phy::NoErrors>(), 12, 2'000,
                    8'000);
    forward->set_fault_schedule(&forward_faults);
    reverse->set_fault_schedule(&reverse_faults);
    tx->set_output(&*forward);
    rx->set_output(&*reverse);
    forward->set_receiver([this](sim::FlitEnvelope&& envelope) {
      rx->on_flit(std::move(envelope));
    });
    reverse->set_receiver([this](sim::FlitEnvelope&& envelope) {
      tx->on_flit(std::move(envelope));
    });
    tx->set_source([this](std::uint64_t index) { return index < budget; },
                   {.payload_of = &payload, .flow_id = 9});
    rx->set_deliver([this](const sim::FlitEnvelope&) { delivered += 1; });
    tx->set_hop_down([this](Endpoint::HopDownEvent&& event) {
      hop_down = std::move(event);
    });
  }
};

TEST(FaultEndpoint, RetryBudgetExhaustionDrainsRefundsAndGoesInert) {
  // The cable dies mid-stream and never comes back: after three completely
  // silent retry episodes the TX must declare the hop dead, hand every
  // sent-but-unacked flit to the management plane oldest-first, and refund
  // the credits those flits still held.
  sim::LinkFaultSchedule death;
  death.add_window(40'000, 0);
  death.normalize();
  FaultyPair pair(/*credits=*/4, /*flits=*/200, death, /*episodes=*/3);
  pair.tx->kick();
  pair.queue.run_until(60'000'000);
  ASSERT_TRUE(pair.tx->hop_dead());
  ASSERT_TRUE(pair.hop_down.has_value());
  const Endpoint::HopDownEvent& event = *pair.hop_down;
  ASSERT_FALSE(event.drained.empty());
  EXPECT_GT(event.at, 40'000u);  // detection strictly follows the fault
  // Oldest-first drain order, with the ground truth intact on every entry.
  for (std::size_t i = 1; i < event.drained.size(); ++i) {
    EXPECT_TRUE(link::seq_before(event.drained[i - 1].seq,
                                 event.drained[i].seq));
  }
  for (const auto& drained : event.drained) {
    EXPECT_EQ(drained.item.flow_id, 9u);
    // The source fills all 240 B with the index: the drain copies them all.
    const auto fill = static_cast<std::uint8_t>(drained.item.truth_index);
    for (const std::uint8_t byte : drained.item.payload) EXPECT_EQ(byte, fill);
  }
  const EndpointExtraStats& extra = pair.tx->extra_stats();
  EXPECT_EQ(extra.hops_declared_dead, 1u);
  EXPECT_EQ(extra.dead_flits_drained, event.drained.size());
  // Credit conservation across the death (the regression this PR fixes):
  // every consumed slot is either granted back by the peer or refunded at
  // drain time, and the window ends whole.
  EXPECT_GT(extra.credits_refunded, 0u);
  EXPECT_EQ(extra.credits_consumed,
            extra.credits_granted + extra.credits_refunded);
  EXPECT_EQ(pair.tx->debug_credit_balance(), 4u);
  // Inert afterwards: nothing new reaches the wire once the hop is dead.
  const std::uint64_t carried = pair.forward->stats().flits_carried +
                                pair.forward->stats().flits_blackholed;
  pair.queue.run_until(80'000'000);
  EXPECT_EQ(pair.forward->stats().flits_carried +
                pair.forward->stats().flits_blackholed,
            carried);
}

TEST(FaultEndpoint, FlapWithinTheBudgetRecoversWithoutDeclaringDeath) {
  // A 1.5 us outage: long enough that at least one retry (or probe) fire
  // sees a full silent timeout — so the recovery is observable — but far
  // below a 6-episode budget. Both the retry timer AND the credit probe
  // count silent episodes (~2 per timeout while the stall lasts), so the
  // budget needs that 2x headroom over the outage length.
  sim::LinkFaultSchedule flap;
  flap.add_window(30'000, 1'530'000);
  flap.normalize();
  FaultyPair pair(/*credits=*/4, /*flits=*/50, flap, /*episodes=*/6);
  pair.tx->kick();
  pair.queue.run_until(80'000'000);
  EXPECT_FALSE(pair.tx->hop_dead());
  EXPECT_FALSE(pair.hop_down.has_value());
  EXPECT_EQ(pair.delivered, 50u);
  const EndpointExtraStats& extra = pair.tx->extra_stats();
  EXPECT_EQ(extra.hops_declared_dead, 0u);
  EXPECT_EQ(extra.dead_flits_drained, 0u);
  EXPECT_GE(extra.flap_recoveries, 1u);
  EXPECT_GT(pair.forward->stats().flits_blackholed, 0u);
  // Normal conservation: no refunds were ever needed.
  EXPECT_EQ(extra.credits_refunded, 0u);
  EXPECT_EQ(extra.credits_consumed, extra.credits_granted);
  EXPECT_EQ(pair.tx->debug_credit_balance(), 4u);
}

// --------------------------------------------------------------------------
// plan_dag fault validation and backup precomputation
// --------------------------------------------------------------------------

DagScenarioSpec diamond_spec() {
  DagScenarioSpec spec;
  spec.protocol.protocol = Protocol::kRxl;
  spec.protocol.coalesce_factor = 8;
  // Both the retry timer and the credit probe count silent episodes (~2
  // per retry timeout while a stall lasts), so 6 episodes tolerates one
  // full outage-plus-replay cycle of ~2 timeouts before giving up.
  spec.protocol.max_retry_episodes = 6;
  spec.flits_per_flow = 300;
  spec.seed = 61;
  spec.horizon = 400'000'000;  // 400 us
  spec.hop_credits = 4;
  return spec;
}

TEST(FaultPlanValidation, RejectsMalformedFaultPlans) {
  {
    DagConfig config = make_diamond_dag(diamond_spec(), 2, 2);
    config.faults.edge(config.edges.size());  // timeline past the last edge
    expect_plan_rejects(
        config, "fault plan addresses more edges than the topology declares");
  }
  {
    DagConfig config = make_diamond_dag(diamond_spec(), 2, 2);
    config.faults.edge(2).add_window(20'000, 10'000);  // ends before it starts
    expect_plan_rejects(config,
                        "fault window on edge 2 ends at or before it starts");
  }
  {
    DagConfig config = make_diamond_dag(diamond_spec(), 2, 2);
    // Node 0 is a terminal.
    config.faults.relay_failures.push_back({/*node=*/0, /*at=*/1'000});
    expect_plan_rejects(
        config, "relay fail-stop event at node 0 does not name a relay");
  }
  {
    DagConfig config = make_diamond_dag(diamond_spec(), 2, 2);
    // No such node.
    config.faults.relay_failures.push_back(
        {static_cast<std::uint16_t>(config.nodes.size()), 1'000});
    expect_plan_rejects(
        config, "relay fail-stop event at node 8 does not name a relay");
  }
}

TEST(FaultPlanValidation, DiamondBackupDetoursThroughTheSecondBranch) {
  // Kill R0 -> M_0 (edge 2 with two sources). Both flows' primaries ride
  // M_0, so the plan must precompute one reroute per flow, each detouring
  // R0 -> M_1 -> R1 -> sink on the surviving branch: edges {4, 5, 6+i}.
  DagConfig config = make_diamond_dag(diamond_spec(), 2, 2);
  config.faults.edge(2).add_window(30'000'000, 0);
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.reroutes.size(), 2u);
  for (std::size_t i = 0; i < plan.reroutes.size(); ++i) {
    const DagPlan::Reroute& reroute = plan.reroutes[i];
    EXPECT_EQ(reroute.flow, i);
    // The dead segment is the R0 -> M_0 ISN domain (egress edge 2).
    EXPECT_EQ(plan.segments[reroute.dead_segment].egress_edge, 2u);
    const std::vector<std::uint16_t> expected{
        4u, 5u, static_cast<std::uint16_t>(6u + i)};
    EXPECT_EQ(reroute.backup_edges, expected);
    EXPECT_EQ(reroute.backup_segments.size(), 3u);
  }
  // With no faults there is nothing to precompute.
  const DagPlan clean = plan_dag(make_diamond_dag(diamond_spec(), 2, 2));
  EXPECT_TRUE(clean.reroutes.empty());
}

// --------------------------------------------------------------------------
// End-to-end reroute through the diamond fabric
// --------------------------------------------------------------------------

void expect_exactly_once(const DagReport& report, std::uint64_t flits) {
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, flits);
    EXPECT_EQ(flow.scoreboard.duplicates, 0u);
    EXPECT_EQ(flow.scoreboard.missing, 0u);
  }
  EXPECT_EQ(report.total_order_failures(), 0u);
  EXPECT_EQ(report.misrouted, 0u);
}

/// A 100 ns slot stretches a 300-flit stream past 30 us of simulated time
/// (the serialization floor is flits x slot), so a fault placed at 10 us is
/// guaranteed to land mid-stream — at the default 2 ns slot the whole
/// stream would drain before any of these fault windows opened.
constexpr TimePs kSlowSlot = 100'000;

TEST(FaultFabric, DiamondLinkDeathReroutesBothFlowsExactlyOnce) {
  DagConfig config = make_diamond_dag(diamond_spec(), 2, 2);
  config.slot = kSlowSlot;
  config.faults.edge(2).add_window(10'000'000, 0);  // R0 -> M_0 dies mid-run
  const DagReport report = run_dag_fabric(config);
  expect_exactly_once(report, 300);
  ASSERT_EQ(report.reroutes.size(), 2u);
  for (const DagRerouteReport& episode : report.reroutes) {
    EXPECT_TRUE(episode.rerouted);
    EXPECT_GT(episode.detected_at, 10'000'000u);
    EXPECT_GE(episode.switched_at, episode.detected_at);
    EXPECT_EQ(episode.drained, episode.reconciled + episode.reinjected);
  }
  for (const DagFlowReport& flow : report.flows) EXPECT_TRUE(flow.rerouted);
  EXPECT_EQ(report.total_reroutes_executed(), 2u);
  EXPECT_GE(report.total_hops_declared_dead(), 1u);
  EXPECT_GT(report.total_flits_blackholed(), 0u);
  // Conservation survives the death: every consumed slot was granted back
  // or refunded when the dead hop drained.
  EXPECT_EQ(report.total_credits_consumed(),
            report.total_credits_granted() + report.total_credits_refunded());
}

TEST(FaultFabric, RerouteOnAVcAboveZeroBillsThatVcEverywhere) {
  // Both flows ride VC 1 when R0 -> M_0 dies mid-run. The flits drained
  // from the dead hop are re-injected at R0 on the VC they carry, so every
  // hop, the backup branch included, bills VC 1 and nothing else, and each
  // per-VC ledger closes: on a live hop every slot consumed on a VC was
  // freed on it, and the dead hop's window closes by its refund.
  DagConfig config = make_diamond_dag(diamond_spec(), 2, 2);
  config.slot = kSlowSlot;
  for (DagFlow& flow : config.flows) flow.vc = 1;
  config.faults.edge(2).add_window(10'000'000, 0);
  config.trace.enabled = true;
  config.trace.ring_depth = 1u << 14;
  const DagReport report = run_dag_fabric(config);
  expect_exactly_once(report, 300);
  ASSERT_EQ(report.reroutes.size(), 2u);
  std::uint64_t reinjected = 0;
  for (const DagRerouteReport& episode : report.reroutes) {
    EXPECT_TRUE(episode.rerouted);
    reinjected += episode.reinjected;
  }
  EXPECT_GT(reinjected, 0u);

  std::size_t dead_hops = 0;
  for (const DagLinkStats& hop : report.hops) {
    SCOPED_TRACE(testing::Message() << "segment " << hop.segment);
    EXPECT_EQ(hop.a_vc_consumed[0], 0u);
    EXPECT_EQ(hop.b_vc_consumed[0], 0u);
    EXPECT_EQ(hop.a_vc_returned[0], 0u);
    EXPECT_EQ(hop.b_vc_returned[0], 0u);
    if (hop.a_extra.hops_declared_dead > 0) {
      dead_hops += 1;
      EXPECT_EQ(hop.a_vc_consumed[1],
                hop.a_extra.credits_granted + hop.a_extra.credits_refunded);
      continue;
    }
    EXPECT_EQ(hop.a_vc_consumed[1], hop.b_vc_returned[1]);
    EXPECT_EQ(hop.b_vc_consumed[1], hop.a_vc_returned[1]);
  }
  EXPECT_GE(dead_hops, 1u);
  // Every enqueue at a relay, the re-injections at R0 included, and every
  // first transmission and replay ran on VC 1.
  std::uint64_t enqueues = 0;
  for (const obs::TraceComponentCapture& component : report.trace.components) {
    EXPECT_EQ(component.overruns, 0u) << component.name;
    for (const obs::TraceEvent& event : component.events) {
      if (event.kind == obs::TraceEventKind::kEnqueue) enqueues += 1;
      if (event.kind == obs::TraceEventKind::kEnqueue ||
          event.kind == obs::TraceEventKind::kTx ||
          event.kind == obs::TraceEventKind::kDeliver ||
          (event.kind == obs::TraceEventKind::kRetry &&
           event.flow != obs::kTraceNoFlow)) {
        EXPECT_EQ(static_cast<int>(event.vc), 1) << component.name;
      }
    }
  }
  EXPECT_GT(enqueues, 0u);
}

TEST(FaultFabric, RelayFailStopReroutesWithoutReconciliation) {
  // M_0 fail-stops before any payload can reach it: its protocol state is
  // gone, so the controller must skip reconciliation (nothing can be proven
  // delivered) and re-originate every drained flit on the backup branch.
  DagConfig config = make_diamond_dag(diamond_spec(), 2, 2);
  config.slot = kSlowSlot;
  config.faults.relay_failures.push_back({/*node=*/3, /*at=*/10'000});
  const DagReport report = run_dag_fabric(config);
  expect_exactly_once(report, 300);
  ASSERT_EQ(report.reroutes.size(), 2u);
  for (const DagRerouteReport& episode : report.reroutes) {
    EXPECT_TRUE(episode.rerouted);
    EXPECT_EQ(episode.reconciled, 0u);
    EXPECT_EQ(episode.reinjected, episode.drained);
  }
  EXPECT_EQ(report.total_reroutes_executed(), 2u);
}

TEST(FaultFabric, UnrecoverableDeathDegradesWithoutDuplicates) {
  // Chain A -> R1 -> B with the only egress hop killed: no backup exists.
  // The flow degrades — but it must degrade cleanly: whatever was delivered
  // before the death stays exactly-once and in order.
  DagScenarioSpec spec = diamond_spec();
  DagConfig config = make_chain_dag(spec, 1);
  config.slot = kSlowSlot;
  config.faults.edge(1).add_window(10'000'000, 0);
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.reroutes.size(), 1u);
  EXPECT_TRUE(plan.reroutes[0].backup_edges.empty());  // nowhere to go
  const DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.flows.size(), 1u);
  EXPECT_GT(report.flows[0].scoreboard.in_order, 0u);
  EXPECT_LT(report.flows[0].scoreboard.in_order, 300u);
  EXPECT_EQ(report.flows[0].scoreboard.duplicates, 0u);
  EXPECT_EQ(report.total_order_failures(), 0u);
  EXPECT_FALSE(report.flows[0].rerouted);
  EXPECT_EQ(report.total_reroutes_executed(), 0u);
  ASSERT_EQ(report.reroutes.size(), 1u);
  EXPECT_FALSE(report.reroutes[0].rerouted);
  EXPECT_GE(report.total_hops_declared_dead(), 1u);
}

TEST(FaultFabric, RerouteWhoseOldPathNeverDrainsIsAbandoned) {
  // One uncredited flow over the diamond. M_0 -> R1 (edge 2) dies for good
  // at 20 us and has no backup, so M_0's egress queue keeps the flow's
  // flits; then R0 -> M_0 (edge 1) dies at 30 us. Its reroute has a backup
  // through M_1, but the old path past R0 never drains: the controller
  // polls until its quiesce limit, abandons the switch, and re-sends
  // nothing, so the stream stops clean at what got through before.
  DagScenarioSpec spec = diamond_spec();
  spec.hop_credits = 0;
  spec.flits_per_flow = 100'000;
  spec.seed = 5;
  DagConfig config = make_diamond_dag(spec, 1, 2);
  config.faults.edge(2).add_window(20'000'000, 0);
  config.faults.edge(1).add_window(30'000'000, 0);
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.reroutes.size(), 2u);
  const DagPlan::Reroute& stuck = plan.reroutes[0];
  ASSERT_EQ(plan.segments[stuck.dead_segment].egress_edge, 1u);
  EXPECT_EQ(stuck.backup_segments.size(), 3u);  // R0 -> M_1 -> R1 -> dst
  EXPECT_TRUE(plan.reroutes[1].backup_edges.empty());  // M_0 has no detour

  const DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.reroutes.size(), 2u);
  const DagRerouteReport& episode = report.reroutes[1];  // detection order
  ASSERT_EQ(episode.segment, stuck.dead_segment);
  EXPECT_EQ(episode.detected_at, 56'010'000u);
  EXPECT_EQ(episode.drained, 256u);
  EXPECT_EQ(episode.reconciled, 11u);
  EXPECT_EQ(episode.reinjected, 0u);  // abandoned before any re-send
  EXPECT_FALSE(episode.rerouted);
  EXPECT_EQ(episode.switched_at, 0u);
  EXPECT_FALSE(report.reroutes[0].rerouted);
  EXPECT_EQ(report.total_reroutes_executed(), 0u);
  ASSERT_EQ(report.flows.size(), 1u);
  EXPECT_FALSE(report.flows[0].rerouted);
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 9'990u);
  EXPECT_EQ(report.flows[0].scoreboard.duplicates, 0u);
  EXPECT_EQ(report.total_order_failures(), 0u);
  EXPECT_EQ(report.misrouted, 0u);
}

TEST(FaultFabric, EmptyFaultPlanLeavesEveryResilienceCounterZero) {
  const DagReport report = run_dag_fabric(make_diamond_dag(diamond_spec(), 2, 2));
  expect_exactly_once(report, 300);
  EXPECT_TRUE(report.reroutes.empty());
  EXPECT_EQ(report.total_hops_declared_dead(), 0u);
  EXPECT_EQ(report.total_dead_flits_drained(), 0u);
  EXPECT_EQ(report.total_credits_refunded(), 0u);
  EXPECT_EQ(report.total_flap_recoveries(), 0u);
  EXPECT_EQ(report.total_flits_blackholed(), 0u);
  EXPECT_EQ(report.total_reroutes_executed(), 0u);
  for (const DagFlowReport& flow : report.flows) EXPECT_FALSE(flow.rerouted);
}

TEST(FaultFabric, SurvivableFlapsRecoverWithoutReroute) {
  // One mid-stream outage on the primary branch, well below the 6-episode
  // death budget: the hop must absorb it through retries, never declare
  // death, and never touch the backup. The generator horizon is chosen so
  // exactly one flap fits (first window at start + gap, in [9, 13] us; the
  // next would land at >= 17 us > 14 us) — back-to-back flaps with short
  // calm gaps are a death sentence by design, not a survivable regime.
  DagScenarioSpec spec = diamond_spec();
  DagConfig config = make_diamond_dag(spec, 2, 2);
  config.slot = kSlowSlot;
  sim::LinkFaultSchedule flaps = sim::make_flap_schedule(
      /*seed=*/17, /*start=*/1'000'000, /*horizon=*/14'000'000,
      /*mean_gap=*/8'000'000, /*outage=*/5'000'000);
  ASSERT_EQ(flaps.windows().size(), 1u);
  config.faults.edge(2) = flaps;
  const DagReport report = run_dag_fabric(config);
  expect_exactly_once(report, 300);
  EXPECT_EQ(report.total_hops_declared_dead(), 0u);
  EXPECT_EQ(report.total_reroutes_executed(), 0u);
  EXPECT_GE(report.total_flap_recoveries(), 1u);
  EXPECT_GT(report.total_flits_blackholed(), 0u);
  EXPECT_EQ(report.total_credits_consumed(), report.total_credits_granted());
}

// --------------------------------------------------------------------------
// RingQueue wraparound (the drain-then-refill pattern migrate_pending and
// the reroute drain lean on)
// --------------------------------------------------------------------------

TEST(RingQueue, DrainToEmptyThenRefillWrapsCleanly) {
  RingQueue<int> queue;
  // March head_ around the (initially 8-slot) ring several times, draining
  // to empty at a different offset each lap, then refill past the old tail.
  int next = 0;
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 5 + lap; ++i) queue.push_back(next++);
    int expected = next - (5 + lap);
    while (!queue.empty()) {
      EXPECT_EQ(queue.front(), expected);
      EXPECT_EQ(queue.pop_front(), expected);
      ++expected;
    }
  }
  // A refill after the drains must wrap the storage without reordering,
  // and at() must address every slot through the wrap.
  for (int i = 0; i < 12; ++i) queue.push_back(100 + i);  // forces a grow too
  ASSERT_EQ(queue.size(), 12u);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    EXPECT_EQ(queue.at(i), 100 + static_cast<int>(i));
  }
  for (int i = 0; i < 12; ++i) EXPECT_EQ(queue.pop_front(), 100 + i);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace rxl::transport
