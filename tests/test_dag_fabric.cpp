// DagFabric construction, validation, routing, and small end-to-end runs:
// the deterministic (fast-suite) half of the DAG test layer. The stochastic
// sweeps live in test_dag_properties.cpp under the slow label.
#include "rxl/transport/dag_fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "plan_rejection.hpp"
#include "rxl/link/credit.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/transport/star_fabric.hpp"

namespace rxl::transport {
namespace {

DagEdge plain_edge(std::uint16_t src, std::uint16_t dst) {
  DagEdge edge;
  edge.src = src;
  edge.dst = dst;
  return edge;
}

DagConfig base_config_from(const DagScenarioSpec& spec) {
  DagConfig config;
  config.protocol = spec.protocol;
  config.seed = spec.seed;
  config.horizon = spec.horizon;
  return config;
}

DagScenarioSpec base_spec() {
  DagScenarioSpec spec;
  spec.protocol.protocol = Protocol::kRxl;
  spec.protocol.coalesce_factor = 8;
  spec.flits_per_flow = 600;
  spec.seed = 11;
  spec.horizon = 60'000'000;  // 60 us
  return spec;
}

// --------------------------------------------------------------------------
// Validation: every plan_dag rule, each pinned to its exact message
// --------------------------------------------------------------------------

std::string cxl_hub_credit_message(const std::string& hub) {
  std::string message = "credit flow control on the CXL domain through hub ";
  message += hub;
  message +=
      " would leak credits on silently dropped flits (§4.1 losses are "
      "invisible to the cumulative return count); use RXL, terminate the "
      "hop at a relay, or disable credits on this edge";
  return message;
}

TEST(DagFabric, RejectsCyclicSwitchingCore) {
  DagConfig config = make_chain_dag(base_spec(), 2);
  // relay2 -> relay1 closes a cycle among the relays.
  config.edges.push_back(plain_edge(2, 1));
  expect_plan_rejects(config,
                      "the switching core contains a cycle through relay1");
}

TEST(DagFabric, AllowsTerminalRelayBackEdge) {
  // A reverse edge relay -> terminal is not a routable cycle (traffic
  // cannot transit a terminal), so the plan accepts it; it only becomes a
  // paired bidirectional domain when a flow actually uses it.
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges.push_back(plain_edge(1, 0));  // relay1 -> src
  const DagPlan plan = plan_dag(config);
  EXPECT_EQ(plan.flow_paths[0].size(), 2u);
}

TEST(DagFabric, BidirectionalRelayChainPairsDomainsAndPiggybacks) {
  // A <-> R <-> B with flows both ways: each hop pairs into one
  // bidirectional domain, the relay's two ports carry data in both
  // directions, and ACKs piggyback on reverse data as in the legacy
  // point-to-point fabrics.
  DagScenarioSpec spec = base_spec();
  spec.burst_injection_rate = 1e-3;
  spec.flits_per_flow = 800;
  DagConfig config = base_config_from(spec);
  config.nodes.push_back(DagNode{"a", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"r", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"b", DagNodeKind::kTerminal, {}});
  config.edges.push_back(plain_edge(0, 1));
  config.edges.push_back(plain_edge(1, 2));
  config.edges.push_back(plain_edge(2, 1));
  config.edges.push_back(plain_edge(1, 0));
  for (DagEdge& edge : config.edges) {
    edge.burst_injection_rate = spec.burst_injection_rate;
    edge.latency = spec.latency;
  }
  config.flows.push_back(DagFlow{0, 2, spec.flits_per_flow, 0x51});
  config.flows.push_back(DagFlow{2, 0, spec.flits_per_flow, 0x52});
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.segments.size(), 4u);
  for (const DagPlan::Segment& segment : plan.segments)
    EXPECT_TRUE(segment.mate.has_value());
  const DagReport report = run_dag_fabric(config);
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, 800u);
    EXPECT_EQ(flow.scoreboard.order_violations, 0u);
    EXPECT_EQ(flow.scoreboard.duplicates, 0u);
    EXPECT_EQ(flow.scoreboard.missing, 0u);
  }
  // Both domains really ran full duplex: each side of each hop both sent
  // and delivered data flits, and at least one ACK piggybacked.
  std::uint64_t piggybacked = 0;
  for (const DagLinkStats& hop : report.hops) {
    EXPECT_TRUE(hop.paired);
    EXPECT_GT(hop.a.data_flits_sent, 0u);
    EXPECT_GT(hop.b.data_flits_sent, 0u);
    piggybacked += hop.a.acks_piggybacked + hop.b.acks_piggybacked;
  }
  EXPECT_GT(piggybacked, 0u);
}

TEST(DagFabric, RejectsDuplicateAndSelfEdges) {
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges.push_back(config.edges.front());
  expect_plan_rejects(config, "duplicate edge src -> relay1");
  config = make_chain_dag(base_spec(), 1);
  config.edges.push_back(plain_edge(1, 1));
  expect_plan_rejects(config, "self-edge at relay1");
}

TEST(DagFabric, RejectsMultiHomedTerminals) {
  DagConfig config = make_chain_dag(base_spec(), 2);
  config.edges.push_back(plain_edge(0, 2));  // second uplink out of src
  expect_plan_rejects(config, "terminal src has more than one uplink edge");
}

TEST(DagFabric, RejectsUnreachableFlow) {
  // The chain's one flow is sent to an island instead (a second flow out of
  // src would trip the one-flow-per-source rule first).
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.nodes.push_back(DagNode{"island", DagNodeKind::kTerminal, {}});
  config.flows[0].dst = static_cast<std::uint16_t>(config.nodes.size() - 1);
  expect_plan_rejects(config, "flow src -> island is unreachable");
}

TEST(DagFabric, RejectsTwoFlowsFromOneTerminal) {
  DagConfig config = make_butterfly_dag(base_spec());
  config.flows.push_back(DagFlow{0, 9, 100, 1});  // s0 already originates one
  expect_plan_rejects(config, "terminal s0 originates more than one flow");
}

TEST(DagFabric, RejectsDomainsMultiplexedOnOneHubEgress) {
  // Two sources share one hub egress edge: an implicit-sequence receiver
  // cannot demultiplex two ISN domains, so the plan must refuse.
  DagConfig config;
  config.nodes.push_back(DagNode{"s0", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"s1", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, {}});
  config.nodes.push_back(DagNode{"d", DagNodeKind::kTerminal, {}});
  config.edges.push_back(plain_edge(0, 2));
  config.edges.push_back(plain_edge(1, 2));
  config.edges.push_back(plain_edge(2, 3));
  config.flows.push_back(DagFlow{0, 3, 10, 1});
  config.flows.push_back(DagFlow{1, 3, 10, 2});
  expect_plan_rejects(config,
                      "two ISN domains are multiplexed onto edge hub -> d (an "
                      "implicit-sequence receiver cannot demux them)");
}

/// s -> h1 -> h2 -> h3 -> d with the reverse domain d -> h4 -> s: one ISN
/// domain per direction, through hub chains of different lengths.
DagConfig hub_chain_config() {
  DagConfig config;
  config.nodes.push_back(DagNode{"s", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"d", DagNodeKind::kTerminal, {}});
  for (const char* hub : {"h1", "h2", "h3", "h4"})
    config.nodes.push_back(DagNode{hub, DagNodeKind::kHub, {}});
  config.edges.push_back(plain_edge(0, 2));  // 0: s -> h1
  config.edges.push_back(plain_edge(2, 3));  // 1: h1 -> h2
  config.edges.push_back(plain_edge(3, 4));  // 2: h2 -> h3
  config.edges.push_back(plain_edge(4, 1));  // 3: h3 -> d
  config.edges.push_back(plain_edge(1, 5));  // 4: d -> h4
  config.edges.push_back(plain_edge(5, 0));  // 5: h4 -> s
  config.flows.push_back(DagFlow{0, 1, 300, 1});
  config.flows.push_back(DagFlow{1, 0, 300, 2});
  config.horizon = 20'000'000;
  return config;
}

TEST(DagFabric, HubChainPlansAsOneSegmentPairedWithItsReverse) {
  DagConfig config = hub_chain_config();
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.segments.size(), 2u);
  const DagPlan::Segment& down = plan.segments[0];
  EXPECT_EQ(down.origin, 0u);
  EXPECT_EQ(down.peer, 1u);
  EXPECT_EQ(down.edges, (std::vector<std::uint16_t>{0, 1, 2, 3}));
  EXPECT_EQ(down.egress_edge, 0u);
  EXPECT_EQ(down.ingress_edge, 3u);
  EXPECT_EQ(down.hub, std::optional<std::uint16_t>{2});
  EXPECT_EQ(down.mate, std::optional<std::uint32_t>{1});
  EXPECT_EQ(plan.segments[1].edges, (std::vector<std::uint16_t>{4, 5}));
  EXPECT_EQ(plan.segments[1].mate, std::optional<std::uint32_t>{0});

  // Every hub routes the domain's tag onto the chain's next edge.
  config.edges[1].burst_injection_rate = 5e-3;
  const DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.hops.size(), 1u);
  EXPECT_TRUE(report.hops[0].paired);
  EXPECT_TRUE(report.hops[0].crosses_hub);
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, 300u);
    EXPECT_EQ(flow.scoreboard.delivered, 300u);
  }
  EXPECT_EQ(report.misrouted, 0u);
  for (const DagHubReport& hub : report.hubs)
    EXPECT_EQ(hub.stats.dropped_no_route, 0u);
}

TEST(DagFabric, RejectsDomainsSharingAHubToHubEdge) {
  // s0 -> h1 -> h2 -> d0 and s1 -> h1 -> h2 -> d1 would both ride h1 -> h2;
  // every edge of a chain belongs to exactly one domain direction.
  DagConfig config;
  for (const char* name : {"s0", "s1", "d0", "d1"})
    config.nodes.push_back(DagNode{name, DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"h1", DagNodeKind::kHub, {}});  // 4
  config.nodes.push_back(DagNode{"h2", DagNodeKind::kHub, {}});  // 5
  config.edges.push_back(plain_edge(0, 4));
  config.edges.push_back(plain_edge(1, 4));
  config.edges.push_back(plain_edge(4, 5));
  config.edges.push_back(plain_edge(5, 2));
  config.edges.push_back(plain_edge(5, 3));
  config.flows.push_back(DagFlow{0, 2, 10, 1});
  config.flows.push_back(DagFlow{1, 3, 10, 2});
  expect_plan_rejects(config,
                      "two ISN domains are multiplexed onto edge h1 -> h2 (an "
                      "implicit-sequence receiver cannot demux them)");
}

TEST(DagFabric, RejectsHubChainForkingAtAnIntermediateHub) {
  // Relay r originates one domain r -> h1 -> h2; the two flows it carries
  // would leave h2 for different receivers.
  DagConfig config;
  for (const char* name : {"a", "b", "d0", "d1"})
    config.nodes.push_back(DagNode{name, DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"r", DagNodeKind::kRelay, {}});  // 4
  config.nodes.push_back(DagNode{"h1", DagNodeKind::kHub, {}});   // 5
  config.nodes.push_back(DagNode{"h2", DagNodeKind::kHub, {}});   // 6
  config.edges.push_back(plain_edge(0, 4));
  config.edges.push_back(plain_edge(1, 4));
  config.edges.push_back(plain_edge(4, 5));
  config.edges.push_back(plain_edge(5, 6));
  config.edges.push_back(plain_edge(6, 2));
  config.edges.push_back(plain_edge(6, 3));
  config.flows.push_back(DagFlow{0, 2, 10, 1});
  config.flows.push_back(DagFlow{1, 3, 10, 2});
  expect_plan_rejects(config,
                      "ISN domain leaving r fans out at hub h2 (one TX "
                      "termination cannot feed two receivers)");
}

TEST(DagFabric, RejectsCxlCreditsOnAHubChain) {
  DagConfig config = hub_chain_config();
  config.protocol.protocol = Protocol::kCxl;
  config.hop_credits = 4;
  expect_plan_rejects(config, cxl_hub_credit_message("h1"));
  config.protocol.protocol = Protocol::kRxl;
  EXPECT_NO_THROW((void)plan_dag(config));
}

TEST(DagFabric, DownIntermediateHubEdgeDoomsItsSegment) {
  // src -> r, then r -> h1 -> h2 -> r2 (primary, lower edge ids) or
  // r -> h3 -> h4 -> r2, then r2 -> dst. A permanent outage on the middle
  // edge h1 -> h2 dooms the chain segment, so the plan detours it through
  // h3 and h4.
  DagConfig config;
  // Nodes: src 0, r 1, hubs h1-h4 2-5, r2 6, dst 7.
  config.nodes.push_back(DagNode{"src", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"r", DagNodeKind::kRelay, {}});
  for (const char* hub : {"h1", "h2", "h3", "h4"})
    config.nodes.push_back(DagNode{hub, DagNodeKind::kHub, {}});
  config.nodes.push_back(DagNode{"r2", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"dst", DagNodeKind::kTerminal, {}});
  config.edges.push_back(plain_edge(0, 1));  // 0
  config.edges.push_back(plain_edge(1, 2));  // 1
  config.edges.push_back(plain_edge(2, 3));  // 2: the doomed middle edge
  config.edges.push_back(plain_edge(3, 6));  // 3
  config.edges.push_back(plain_edge(1, 4));  // 4
  config.edges.push_back(plain_edge(4, 5));  // 5
  config.edges.push_back(plain_edge(5, 6));  // 6
  config.edges.push_back(plain_edge(6, 7));  // 7
  config.flows.push_back(DagFlow{0, 7, 10, 1});
  config.faults.edge(2).add_window(1'000'000, 0);
  const DagPlan plan = plan_dag(config);
  EXPECT_EQ(plan.flow_paths[0], (std::vector<std::uint16_t>{0, 1, 2, 3, 7}));
  ASSERT_EQ(plan.reroutes.size(), 1u);
  const DagPlan::Reroute& reroute = plan.reroutes[0];
  EXPECT_EQ(plan.segments[reroute.dead_segment].edges,
            (std::vector<std::uint16_t>{1, 2, 3}));
  EXPECT_EQ(reroute.backup_edges, (std::vector<std::uint16_t>{4, 5, 6, 7}));
  ASSERT_EQ(reroute.backup_segments.size(), 2u);
  EXPECT_EQ(plan.segments[reroute.backup_segments[0]].edges,
            (std::vector<std::uint16_t>{4, 5, 6}));
}

TEST(DagFabric, RejectsZeroCreditEdge) {
  // Deadlock safety: a zero-credit hop could never transmit; with the
  // acyclic core, >= 1 credit per hop guarantees progress, so the plan
  // refuses the one configuration that breaks the induction.
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges[1].credits = 0;
  expect_plan_rejects(config,
                      "edge 1 into dst declares a zero-credit buffer (the hop "
                      "could never transmit); use at least one credit, or "
                      "leave the edge at the DagConfig default");
  config.edges[1].credits = 1;  // the minimum is accepted
  EXPECT_NO_THROW(plan_dag(config));
}

TEST(DagFabric, RejectsCreditsOnHubIngressEdges) {
  // A hop's buffer lives at its terminating end, so the per-edge override
  // belongs on the edge INTO the receiving termination. On an edge
  // entering a hub it would be silently inert; the plan refuses it.
  StarConfig star;
  star.pairs = 2;
  star.flits_per_direction = 10;
  star.horizon = 1'000'000;
  DagConfig config = make_star_dag(star);
  config.edges[0].credits = 4;  // host0's uplink INTO the hub
  expect_plan_rejects(config,
                      "edge 0 enters hub hub, which does not terminate the "
                      "hop; set credits on the hub's egress edge (into the "
                      "receiving termination)");
  config.edges[0].credits.reset();
  config.edges[1].credits = 4;  // the hub's egress into dev0: meaningful
  EXPECT_NO_THROW(plan_dag(config));
}

TEST(DagFabric, RejectsCxlCreditsAcrossTransparentHubs) {
  // Credit accounting assumes exactly-once delivery; a CXL domain through
  // a hub loses flits silently (§4.1), which would leak window slots
  // forever. The plan refuses the combination; the same topology is fine
  // under RXL, with credits off, or with the hub-crossing edge exempted.
  StarConfig star;
  star.pairs = 2;
  star.flits_per_direction = 10;
  star.horizon = 1'000'000;
  star.protocol.protocol = Protocol::kCxl;
  DagConfig config = make_star_dag(star);
  config.hop_credits = 4;
  expect_plan_rejects(config, cxl_hub_credit_message("hub"));
  config.protocol.protocol = Protocol::kRxl;
  EXPECT_NO_THROW(plan_dag(config));
  config.protocol.protocol = Protocol::kCxl;
  config.hop_credits = 0;
  EXPECT_NO_THROW(plan_dag(config));
  // CXL credits on relay-terminated hops stay legal: every hop detects
  // its own drops, so the exactly-once assumption holds.
  DagConfig chain = make_chain_dag(base_spec(), 2);
  chain.protocol.protocol = Protocol::kCxl;
  chain.hop_credits = 4;
  EXPECT_NO_THROW(plan_dag(chain));
}

TEST(DagFabric, RejectsOversizedCreditWindows) {
  // Cumulative credit returns travel in a 16-bit word; windows beyond half
  // the count space would make grants ambiguous.
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges[0].credits = link::kMaxCreditWindow + 1;
  expect_plan_rejects(config,
                      "edge 0 credit window exceeds link::kMaxCreditWindow");
  config.edges[0].credits.reset();
  config.hop_credits = link::kMaxCreditWindow + 1;
  expect_plan_rejects(config, "hop_credits exceeds link::kMaxCreditWindow");
}

TEST(DagFabric, RejectsEmptyAndOversizedTopologies) {
  expect_plan_rejects(DagConfig{}, "DAG topology has no nodes");
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.nodes.resize(0xFFFF);
  expect_plan_rejects(config, "DAG topology exceeds the 16-bit id space");
}

TEST(DagFabric, RejectsEdgeToAMissingNode) {
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges.push_back(plain_edge(1, 99));
  expect_plan_rejects(config, "edge 2 references a node out of range");
}

TEST(DagFabric, RejectsTerminalWithTwoDownlinks) {
  DagConfig config = make_chain_dag(base_spec(), 2);
  config.edges.push_back(plain_edge(1, 3));  // relay1 -> dst beside relay2's
  expect_plan_rejects(config, "terminal dst has more than one downlink edge");
}

TEST(DagFabric, RejectsHubWithoutEgress) {
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.nodes.push_back(DagNode{"h", DagNodeKind::kHub, {}});
  config.edges.push_back(plain_edge(1, 3));  // into the hub, nothing out
  expect_plan_rejects(config,
                      "hub h needs at least one ingress and one egress edge");
}

TEST(DagFabric, RejectsFlowsWithBadEndpoints) {
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.flows[0].dst = 99;
  expect_plan_rejects(config, "flow 0 references a node out of range");
  config = make_chain_dag(base_spec(), 1);
  config.flows[0].dst = 1;  // relay1
  expect_plan_rejects(config, "flow 0 endpoints must be terminals");
  config = make_chain_dag(base_spec(), 1);
  config.flows[0].dst = 0;
  expect_plan_rejects(config, "flow 0 sends to its own source");
}

TEST(DagFabric, RejectsFlowOnAVcBeyondTheLimit) {
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.flows[0].vc = link::kMaxVcs;
  expect_plan_rejects(config, "flow 0 rides VC 8, beyond link::kMaxVcs");
}

TEST(DagFabric, RejectsFlowsDisagreeingOnTheirVcWeight) {
  DagConfig config = make_butterfly_dag(base_spec());
  config.flows[2].vc = 3;
  config.flows[2].weight = 4;
  config.flows[3].vc = 3;
  expect_plan_rejects(config,
                      "flow 3 declares weight 1 for VC 3, but an earlier flow "
                      "on the same VC declared 4");
}

TEST(DagFabric, RejectsEcnWithoutCredits) {
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.ecn_threshold = 2;
  expect_plan_rejects(config,
                      "ecn_threshold set with credit flow control off "
                      "everywhere; ECN early backpressure needs hop_credits or "
                      "per-edge credits");
  config.edges[1].credits = 4;
  EXPECT_NO_THROW((void)plan_dag(config));
}

// --------------------------------------------------------------------------
// Routing plans
// --------------------------------------------------------------------------

TEST(DagFabric, ChainPlanIsOneDomainPerHop) {
  const DagConfig config = make_chain_dag(base_spec(), 3);
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.segments.size(), 4u);  // src-r1, r1-r2, r2-r3, r3-dst
  for (const DagPlan::Segment& segment : plan.segments) {
    EXPECT_FALSE(segment.hub.has_value());
    EXPECT_FALSE(segment.mate.has_value());
    EXPECT_EQ(segment.egress_edge, segment.ingress_edge);
  }
  ASSERT_EQ(plan.flow_segments[0].size(), 4u);
}

TEST(DagFabric, ButterflyPlanUsesAllMiddleEdges) {
  const DagConfig config = make_butterfly_dag(base_spec());
  const DagPlan plan = plan_dag(config);
  // 4 ingress hops + 4 middle hops + 4 egress hops, all unidirectional.
  EXPECT_EQ(plan.segments.size(), 12u);
  bool middle_edge_used[4] = {false, false, false, false};
  for (const auto& path : plan.flow_paths) {
    ASSERT_EQ(path.size(), 3u);
    const std::uint16_t middle = path[1];
    ASSERT_GE(middle, 4u);
    ASSERT_LT(middle, 8u);
    middle_edge_used[middle - 4] = true;
  }
  for (const bool used : middle_edge_used) EXPECT_TRUE(used);
}

TEST(DagFabric, StarPlanPairsEveryDomainThroughTheHub) {
  StarConfig star;
  star.pairs = 3;
  star.flits_per_direction = 10;
  star.horizon = 1'000'000;
  const DagConfig config = make_star_dag(star);
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.segments.size(), 6u);  // one per direction per pair
  for (const DagPlan::Segment& segment : plan.segments) {
    EXPECT_TRUE(segment.hub.has_value());
    EXPECT_TRUE(segment.mate.has_value());
  }
}

TEST(DagFabric, PlanResolvesEveryHopSetting) {
  // Diamond: src0 0, src1 1, r0 2, m0 3, m1 4, r1 5, dst0 6, dst1 7. Edges
  // 0-1 are the uplinks, 2-3 the m0 branch, 4-5 the m1 branch and 6-7 the
  // sink downlinks; both primaries ride m0.
  DagScenarioSpec spec = base_spec();
  spec.hop_credits = 4;
  DagConfig config = make_diamond_dag(spec, 2, 2);
  config.edges[6].credits = 7;  // r1 -> dst0 overrides the default
  config.flows[0].vc = 2;
  config.flows[0].weight = 5;
  config.flows[1].weight = 3;  // rides VC 0
  config.faults.edge(0).add_window(1'000'000, 2'000'000);  // a flap
  config.faults.relay_failures.push_back(sim::RelayFailStop{3, 20'000'000});
  const DagPlan plan = plan_dag(config);

  // Credits: the depth on the edge into each segment's peer, backup
  // segments included.
  for (const DagPlan::Segment& segment : plan.segments)
    EXPECT_EQ(segment.credits, segment.ingress_edge == 6 ? 7u : 4u)
        << "segment into edge " << segment.ingress_edge;
  // VCs up to the largest in use; each VC's declared weight, else 1.
  EXPECT_EQ(plan.vcs, 3u);
  EXPECT_EQ(plan.vc_weights,
            (switchdev::VcWeights{3, 1, 5, 1, 1, 1, 1, 1}));

  // Faults: the flap as configured, and m0's fail-stop as a permanent
  // outage from its instant on both of its incident edges, nowhere else.
  EXPECT_EQ(plan.failed,
            (std::vector<std::uint8_t>{0, 0, 0, 1, 0, 0, 0, 0}));
  ASSERT_EQ(plan.edge_faults.size(), config.edges.size());
  using Windows = std::vector<std::pair<TimePs, TimePs>>;
  const auto windows_of = [&](std::size_t e) {
    Windows windows;
    for (const sim::FaultWindow& window : plan.edge_faults[e].windows())
      windows.emplace_back(window.down_at, window.up_at);
    return windows;
  };
  EXPECT_EQ(windows_of(0), (Windows{{1'000'000, 2'000'000}}));
  EXPECT_EQ(windows_of(2), (Windows{{20'000'000, 0}}));
  EXPECT_EQ(windows_of(3), (Windows{{20'000'000, 0}}));
  for (const std::size_t e : {1, 4, 5, 6, 7})
    EXPECT_TRUE(plan.edge_faults[e].empty()) << "edge " << e;

  // Doomed edges are exactly those whose timeline ends down for good: a
  // flow's segment is rerouted iff it crosses one (unless the failed relay
  // originates it), and no backup crosses one.
  const auto doomed = [&](const DagPlan::Segment& segment) {
    return std::any_of(segment.edges.begin(), segment.edges.end(),
                       [&](std::uint16_t e) {
                         return plan.edge_faults[e].permanently_down();
                       });
  };
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    for (const std::uint32_t si : plan.flow_segments[f]) {
      const DagPlan::Segment& segment = plan.segments[si];
      const bool rerouted = std::any_of(
          plan.reroutes.begin(), plan.reroutes.end(),
          [&](const DagPlan::Reroute& reroute) {
            return reroute.flow == f && reroute.dead_segment == si;
          });
      EXPECT_EQ(rerouted, doomed(segment) && plan.failed[segment.origin] == 0)
          << "flow " << f << " segment " << si;
    }
  }
  ASSERT_EQ(plan.reroutes.size(), 2u);
  EXPECT_EQ(plan.reroutes[0].backup_edges,
            (std::vector<std::uint16_t>{4, 5, 6}));
  EXPECT_EQ(plan.reroutes[1].backup_edges,
            (std::vector<std::uint16_t>{4, 5, 7}));
  for (const DagPlan::Reroute& reroute : plan.reroutes)
    for (const std::uint32_t si : reroute.backup_segments)
      EXPECT_FALSE(doomed(plan.segments[si]));

  // No faults, one VC, no credits: nothing compiled, every default.
  const DagPlan clean = plan_dag(make_chain_dag(base_spec(), 1));
  EXPECT_TRUE(clean.edge_faults.empty());
  EXPECT_EQ(clean.failed, (std::vector<std::uint8_t>{0, 0, 0}));
  EXPECT_EQ(clean.vcs, 1u);
  EXPECT_EQ(clean.vc_weights,
            (switchdev::VcWeights{1, 1, 1, 1, 1, 1, 1, 1}));
  for (const DagPlan::Segment& segment : clean.segments)
    EXPECT_EQ(segment.credits, 0u);
}

// --------------------------------------------------------------------------
// End-to-end runs
// --------------------------------------------------------------------------

TEST(DagFabric, CleanChainDeliversEverythingExactlyOnce) {
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    DagScenarioSpec spec = base_spec();
    spec.protocol.protocol = trial == 0 ? Protocol::kCxl : Protocol::kRxl;
    return run_dag_fabric(make_chain_dag(spec, 3));
  });
  for (const DagReport& report : reports) {
    ASSERT_EQ(report.flows.size(), 1u);
    EXPECT_EQ(report.flows[0].offered, 600u);
    EXPECT_EQ(report.flows[0].scoreboard.in_order, 600u);
    EXPECT_EQ(report.total_order_failures(), 0u);
    EXPECT_EQ(report.total_missing(), 0u);
    EXPECT_EQ(report.total_hop_retransmissions(), 0u);
    EXPECT_EQ(report.misrouted, 0u);
    EXPECT_EQ(report.total_relay_no_route_drops(), 0u);
  }
}

TEST(DagFabric, NoisyChainStaysExactlyOnceInOrder) {
  DagScenarioSpec spec = base_spec();
  spec.burst_injection_rate = 2e-3;
  spec.flits_per_flow = 1'000;
  const DagReport report = run_dag_fabric(make_chain_dag(spec, 3));
  EXPECT_GT(report.total_hop_retransmissions(), 0u);  // hops really retried
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 1'000u);
  EXPECT_EQ(report.flows[0].scoreboard.duplicates, 0u);
  EXPECT_EQ(report.flows[0].scoreboard.order_violations, 0u);
  EXPECT_EQ(report.flows[0].scoreboard.data_corruptions, 0u);
  EXPECT_EQ(report.flows[0].scoreboard.missing, 0u);
}

TEST(DagFabric, ButterflyCrossTrafficCompletes) {
  DagScenarioSpec spec = base_spec();
  spec.burst_injection_rate = 1e-3;
  const DagReport report = run_dag_fabric(make_butterfly_dag(spec));
  ASSERT_EQ(report.flows.size(), 4u);
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, 600u);
    EXPECT_EQ(flow.scoreboard.order_violations, 0u);
    EXPECT_EQ(flow.scoreboard.duplicates, 0u);
    EXPECT_EQ(flow.scoreboard.missing, 0u);
  }
  EXPECT_EQ(report.misrouted, 0u);
}

TEST(DagFabric, AsymmetricFlowsShareTheTrunkHop) {
  DagScenarioSpec spec = base_spec();
  const DagReport report = run_dag_fabric(make_asymmetric_dag(spec));
  ASSERT_EQ(report.flows.size(), 2u);
  for (const DagFlowReport& flow : report.flows)
    EXPECT_EQ(flow.scoreboard.in_order, 600u);
  EXPECT_EQ(report.flows[0].path_edges.size(), 4u);
  EXPECT_EQ(report.flows[1].path_edges.size(), 3u);
  // The r1 -> r2 trunk domain carried both flows' payloads.
  bool trunk_found = false;
  for (const DagLinkStats& hop : report.hops) {
    if (hop.forward_edge == 3) {  // r1 -> r2 in make_asymmetric_dag
      trunk_found = true;
      EXPECT_EQ(hop.b.flits_delivered, 1'200u);
    }
  }
  EXPECT_TRUE(trunk_found);
}

TEST(DagFabric, RelayReportExposesPortWiring) {
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 50;
  const DagReport report = run_dag_fabric(make_chain_dag(spec, 2));
  ASSERT_EQ(report.relays.size(), 2u);
  const DagRelayReport& relay1 = report.relays[0];
  ASSERT_EQ(relay1.ports.size(), 2u);
  // Port 0 terminates the upstream hop (receives on edge 0, no data TX);
  // port 1 originates the downstream hop (transmits on edge 1).
  EXPECT_EQ(relay1.ports[0].rx_edge, 0u);
  EXPECT_EQ(relay1.ports[0].tx_edge, DagRelayPort::kNoEdge);
  EXPECT_EQ(relay1.ports[1].tx_edge, 1u);
  EXPECT_EQ(relay1.ports[0].stats.relayed_in, 50u);
  EXPECT_EQ(relay1.ports[1].stats.relayed_out, 50u);
  EXPECT_GT(relay1.ports[1].stats.max_queue_depth, 0u);
}

TEST(DagFabric, RelayWithoutRouteCountsDropsNotCrashes) {
  // Direct RelaySwitch harness: a source feeds port 0 but no flow route is
  // installed, so every accepted payload is counted dropped_no_route.
  sim::EventQueue queue;
  ProtocolConfig protocol;
  protocol.ack_policy = link::AckPolicy::kStandalone;
  Endpoint tx(queue, protocol, "tx");
  switchdev::RelaySwitch relay(queue, "r");
  relay.add_port(protocol);
  relay.add_port(protocol);
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
  tx.set_source([](std::uint64_t index) { return index < 3; },
                {.payload_of = &payload, .flow_id = 7});
  tx.kick();
  queue.run_until(1'000'000);
  EXPECT_EQ(relay.port_stats(0).relayed_in, 3u);
  EXPECT_EQ(relay.port_stats(0).dropped_no_route, 3u);
  EXPECT_EQ(relay.port_stats(1).relayed_out, 0u);
}

/// Reports a hit on every other flit and flips nothing, so the channel
/// writes out and seals every second flit it carries.
class HitEveryOther final : public phy::ErrorModel {
 public:
  std::size_t corrupt(std::span<std::uint8_t>, Xoshiro256&) override {
    return calls_++ % 2;
  }

 private:
  std::size_t calls_ = 0;
};

TEST(RelaySwitch, ByteHeldAndByReferencePayloadsShareOneQueue) {
  // Flow 7's source reaches relay port 0 over a wire that writes out every
  // second flit, so its payloads park in port 1's queue alternately by
  // reference and as bytes in the relay's slab. Two byte-held payloads are
  // injected behind them (flows 9 and 7), flow 7 migrates to port 2, and a
  // third is injected there. Only then do the egress ports get wires: every
  // payload re-originated carries its own bytes, and the slab is empty once
  // the queues drain.
  sim::EventQueue queue;
  ProtocolConfig protocol;
  Endpoint source(queue, protocol, "source");
  switchdev::RelaySwitch relay(queue, "r");
  for (int port = 0; port < 3; ++port) relay.add_port(protocol);
  relay.set_route(7, 1);
  sim::LinkChannel uplink(queue, std::make_unique<HitEveryOther>(), 1);
  sim::LinkChannel downlink(queue, std::make_unique<phy::NoErrors>(), 2);
  source.set_output(&uplink);
  uplink.set_receiver([&relay](sim::FlitEnvelope&& envelope) {
    relay.port(0).on_flit(std::move(envelope));
  });
  relay.port(0).set_output(&downlink);
  downlink.set_receiver([&source](sim::FlitEnvelope&& envelope) {
    source.on_flit(std::move(envelope));
  });
  sim::PayloadFn stream = [](std::uint64_t index, Endpoint::PayloadOut out) {
    std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(0xC0 + index));
  };
  source.set_source([](std::uint64_t index) { return index < 6; },
                    {.payload_of = &stream, .flow_id = 7});
  source.kick();
  queue.run_until(2'000'000);
  ASSERT_EQ(relay.port_stats(0).relayed_in, 6u);
  ASSERT_EQ(uplink.stats().flits_corrupted, 3u);
  EXPECT_EQ(relay.debug_slab_in_use(), 3u);

  const auto drained = [](std::uint16_t flow, std::uint64_t truth,
                          std::uint8_t fill) {
    Endpoint::TxItem item;
    item.flow_id = flow;
    item.truth_index = truth;
    std::fill(item.payload.begin(), item.payload.end(), fill);
    return item;
  };
  relay.inject(1, drained(9, 100, 0x19));
  relay.inject(1, drained(7, 6, 0x76));
  EXPECT_EQ(relay.debug_slab_in_use(), 5u);
  EXPECT_EQ(relay.migrate_pending(1, 2, 7), 7u);
  relay.inject(2, drained(7, 7, 0x77));
  EXPECT_EQ(relay.debug_slab_in_use(), 6u);
  EXPECT_EQ(relay.port_stats(1).queue_occupancy, 1u);
  EXPECT_EQ(relay.port_stats(2).queue_occupancy, 8u);

  // Egress wires, each with a sink recording (flow, truth, first and last
  // payload byte) and ACKing back.
  using Delivery =
      std::tuple<std::uint16_t, std::uint64_t, std::uint8_t, std::uint8_t>;
  std::vector<Delivery> delivered;
  std::vector<std::unique_ptr<Endpoint>> sinks;
  std::vector<std::unique_ptr<sim::LinkChannel>> wires;
  for (std::size_t port = 1; port <= 2; ++port) {
    sinks.push_back(std::make_unique<Endpoint>(queue, protocol, "sink"));
    Endpoint& sink = *sinks.back();
    wires.push_back(std::make_unique<sim::LinkChannel>(
        queue, std::make_unique<phy::NoErrors>(), 10 + port));
    sim::LinkChannel& out = *wires.back();
    wires.push_back(std::make_unique<sim::LinkChannel>(
        queue, std::make_unique<phy::NoErrors>(), 20 + port));
    sim::LinkChannel& back = *wires.back();
    relay.port(port).set_output(&out);
    out.set_receiver([&sink](sim::FlitEnvelope&& envelope) {
      sink.on_flit(std::move(envelope));
    });
    sink.set_output(&back);
    back.set_receiver([&relay, port](sim::FlitEnvelope&& envelope) {
      relay.port(port).on_flit(std::move(envelope));
    });
    sink.set_deliver([&delivered](const sim::FlitEnvelope& envelope) {
      std::array<std::uint8_t, kPayloadBytes> scratch{};
      const auto payload = sim::payload_bytes(envelope, scratch);
      delivered.emplace_back(envelope.flow_id, envelope.truth_index,
                             payload.front(), payload.back());
    });
    relay.port(port).kick();
  }
  queue.run_until(20'000'000);

  std::vector<Delivery> expected{{9, 100, 0x19, 0x19}};
  for (std::uint64_t truth = 0; truth < 6; ++truth) {
    const auto fill = static_cast<std::uint8_t>(0xC0 + truth);
    expected.emplace_back(7, truth, fill, fill);
  }
  expected.emplace_back(7, 6, 0x76, 0x76);
  expected.emplace_back(7, 7, 0x77, 0x77);
  // Flow 9 first, then flow 7 in its delivery order.
  std::stable_sort(delivered.begin(), delivered.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return std::get<0>(a) > std::get<0>(b);
                   });
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(relay.port_stats(1).queue_occupancy, 0u);
  EXPECT_EQ(relay.port_stats(2).queue_occupancy, 0u);
  EXPECT_EQ(relay.debug_slab_in_use(), 0u);
}

TEST(DagFabric, ConservationEveryDeliveryIsClassified) {
  DagScenarioSpec spec = base_spec();
  spec.protocol.protocol = Protocol::kCxl;  // per-hop CXL can lose flits
  spec.burst_injection_rate = 2e-3;
  spec.flits_per_flow = 1'000;
  const DagReport report = run_dag_fabric(make_fat_tree_dag(spec));
  for (const DagFlowReport& flow : report.flows) {
    const auto& board = flow.scoreboard;
    EXPECT_EQ(board.delivered,
              board.in_order + board.order_violations + board.late_deliveries +
                  board.duplicates + board.untracked);
    EXPECT_EQ(board.untracked, 0u);
    EXPECT_LE(board.in_order + board.late_deliveries, flow.offered);
  }
}

// --------------------------------------------------------------------------
// Hop-domain isolation
// --------------------------------------------------------------------------

TEST(DagFabric, RetryStormOnOneHopLeavesNeighborsUntouched) {
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 800;
  DagConfig config = make_chain_dag(spec, 3);
  // Force a retry storm on the r1 -> r2 hop only.
  config.edges[1].burst_injection_rate = 2e-2;
  const DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.hops.size(), 4u);
  const DagLinkStats* storm = nullptr;
  for (const DagLinkStats& hop : report.hops) {
    if (hop.forward_edge == 1) storm = &hop;
  }
  ASSERT_NE(storm, nullptr);
  EXPECT_GT(storm->a.data_flits_retransmitted, 0u);
  EXPECT_GT(storm->b.nacks_sent + storm->a.retry_rounds, 0u);
  for (const DagLinkStats& hop : report.hops) {
    if (hop.forward_edge == 1) continue;
    // Neighboring hops' sequence/retry state never moved: no NACKs, no
    // replays, no discards — their domains are fully isolated.
    EXPECT_EQ(hop.a.data_flits_retransmitted, 0u)
        << "edge " << hop.forward_edge;
    EXPECT_EQ(hop.b.nacks_sent, 0u) << "edge " << hop.forward_edge;
    EXPECT_EQ(hop.a.retry_rounds, 0u) << "edge " << hop.forward_edge;
    EXPECT_EQ(hop.b.flits_discarded_crc + hop.b.flits_discarded_fec, 0u)
        << "edge " << hop.forward_edge;
  }
  // And the flow still arrives exactly once, in order.
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 800u);
  EXPECT_EQ(report.total_order_failures(), 0u);
  EXPECT_EQ(report.total_missing(), 0u);
}

// --------------------------------------------------------------------------
// Star fabric re-expressed as a one-hub DAG
// --------------------------------------------------------------------------

TEST(DagFabric, StarViaDagMatchesRecordedLegacyStarExactly) {
  // The hard-coded star builder is gone; these constants were recorded from
  // the last build that still carried it, on a run the live legacy-vs-DAG
  // equivalence test had pinned field-for-field (burst drops included, so
  // the match is a stochastic-trajectory reproduction, not a triviality).
  // Any drift in the replayed seed-draw order, the endpoint protocol, or
  // the channel error streams lands here.
  StarConfig config;
  config.protocol.protocol = Protocol::kRxl;
  config.protocol.coalesce_factor = 10;
  config.pairs = 3;
  config.seed = 77;
  config.burst_injection_rate = 2e-3;
  config.flits_per_direction = 1'500;
  config.horizon = 60'000'000;
  const DagReport dag = run_dag_fabric(make_star_dag(config));
  ASSERT_EQ(dag.flows.size(), 6u);  // 3 pairs, both directions
  for (std::size_t f = 0; f < dag.flows.size(); ++f) {
    const txn::StreamScoreboard::Stats& s = dag.flows[f].scoreboard;
    EXPECT_EQ(s.delivered, 1'500u) << "flow " << f;
    EXPECT_EQ(s.in_order, 1'500u) << "flow " << f;
    EXPECT_EQ(s.order_violations, 0u) << "flow " << f;
    EXPECT_EQ(s.duplicates, 0u) << "flow " << f;
    EXPECT_EQ(s.late_deliveries, 0u) << "flow " << f;
    EXPECT_EQ(s.data_corruptions, 0u) << "flow " << f;
    EXPECT_EQ(s.missing, 0u) << "flow " << f;
  }
  // The single hub aggregates what the legacy build split across its two
  // per-direction switch instances (recorded sums: 5285+4926 in, 10 + 3
  // FEC drops).
  ASSERT_EQ(dag.hubs.size(), 1u);
  const switchdev::PortSwitchStats& hub = dag.hubs[0].stats;
  EXPECT_EQ(hub.flits_in, 10'211u);
  EXPECT_EQ(hub.flits_forwarded, 10'198u);
  EXPECT_EQ(hub.dropped_fec, 13u);
  EXPECT_EQ(hub.dropped_no_route, 0u);
}

TEST(DagFabric, StarViaDagMatchesRecordedLegacyUnderCxlFailures) {
  // Recorded from the same last-legacy build: a CXL star whose §4.1
  // failures (order violations, duplicates, losses) the DAG wiring must
  // keep reproducing event-for-event.
  StarConfig config;
  config.protocol.protocol = Protocol::kCxl;
  config.pairs = 2;
  config.seed = 31337;
  config.burst_injection_rate = 4e-3;
  config.flits_per_direction = 1'500;
  config.horizon = 60'000'000;
  const DagReport dag = run_dag_fabric(make_star_dag(config));
  EXPECT_EQ(dag.total_order_failures(), 5u);
  EXPECT_EQ(dag.total_missing(), 46u);
  EXPECT_EQ(dag.total_in_order(), 5'950u);
  // Flows 0-1 run host i -> device i, flows 2-3 device i -> host i.
  ASSERT_EQ(dag.flows.size(), 4u);
  const txn::StreamScoreboard::Stats& up0 = dag.flows[2].scoreboard;
  EXPECT_EQ(up0.delivered, 1'480u);
  EXPECT_EQ(up0.in_order, 1'479u);
  EXPECT_EQ(up0.order_violations, 1u);
  EXPECT_EQ(up0.missing, 20u);
  const txn::StreamScoreboard::Stats& down1 = dag.flows[1].scoreboard;
  EXPECT_EQ(down1.delivered, 1'475u);
  EXPECT_EQ(down1.in_order, 1'471u);
  EXPECT_EQ(down1.duplicates, 1u);
  EXPECT_EQ(down1.late_deliveries, 1u);
  EXPECT_EQ(down1.missing, 26u);
  EXPECT_EQ(dag.flows[3].scoreboard.delivered, 1'501u);
  EXPECT_EQ(dag.flows[3].scoreboard.duplicates, 1u);
  ASSERT_EQ(dag.hubs.size(), 1u);
  EXPECT_EQ(dag.hubs[0].stats.flits_in, 8'308u);
  EXPECT_EQ(dag.hubs[0].stats.dropped_fec, 27u);
}

// --------------------------------------------------------------------------
// The paper's host <-> N-level <-> device fabric as hub chains
// --------------------------------------------------------------------------

/// Counters of one direction of the linear fabric, recorded from the
/// deleted per-direction harness on the same configuration.
struct RecordedDirection {
  /// delivered, in-order, order violations, duplicates, late, data
  /// corruptions, missing.
  std::array<std::uint64_t, 7> scoreboard;
  /// Sender: data sent, retransmitted, standalone control flits, ACKs
  /// piggybacked, NACKs sent, retry rounds.
  std::array<std::uint64_t, 6> sender;
  /// Receiver: flits received, CRC discards, sequence discards, FEC
  /// corrections.
  std::array<std::uint64_t, 4> receiver;
  /// The direction's switches: FEC drops, CRC drops, FEC corrections,
  /// internal corruptions; then flits corrupted on its channels.
  std::array<std::uint64_t, 5> wire;
};

struct RecordedLinearRun {
  Protocol protocol;
  unsigned levels;
  RecordedDirection down, up;
};

TEST(DagFabric, LinearDagMatchesRecordedLegacyFabric) {
  // make_linear_dag replaced the per-direction harness. Before it was
  // deleted, a live comparison matched both field for field on 220 configs
  // (CXL and RXL, 0-4 levels, six error settings); these constants were
  // recorded from the legacy harness on seed 8 at burst rate 5e-3 with
  // switch-internal corruption 2e-3, so every §4.1 failure kind (order
  // violations, duplicates, losses, corrupt data) is reproduced
  // event-for-event through the hub chains.
  const RecordedLinearRun kRecorded[] = {
      {Protocol::kCxl, 0,
       {{2953, 2951, 1, 1, 0, 0, 48},
        {3000, 387, 22, 228, 20, 14},
        {3409, 7, 389, 7},
        {0, 0, 0, 0, 15}},
       {{3001, 3000, 0, 1, 0, 0, 0},
        {3000, 231, 17, 227, 14, 25},
        {3248, 9, 169, 9},
        {0, 0, 0, 0, 20}}},
      {Protocol::kRxl, 0,
       {{3000, 3000, 0, 0, 0, 0, 0},
        {3000, 134, 21, 287, 20, 32},
        {3155, 127, 0, 7},
        {0, 0, 0, 0, 14}},
       {{3000, 3000, 0, 0, 0, 0, 0},
        {3000, 199, 31, 290, 31, 20},
        {3230, 188, 0, 9},
        {0, 0, 0, 0, 20}}},
      {Protocol::kCxl, 1,
       {{2977, 2973, 2, 1, 1, 3, 24},
        {3000, 1340, 43, 202, 40, 37},
        {4359, 12, 1244, 12},
        {15, 9, 9, 5, 49}},
       {{3001, 3000, 0, 1, 0, 5, 0},
        {3000, 1399, 40, 203, 37, 39},
        {4414, 8, 1286, 8},
        {18, 7, 7, 8, 52}}},
      {Protocol::kRxl, 1,
       {{3000, 3000, 0, 0, 0, 0, 0},
        {3000, 1420, 43, 205, 40, 56},
        {4448, 1393, 0, 12},
        {15, 0, 10, 5, 50}},
       {{3000, 3000, 0, 0, 0, 0, 0},
        {3000, 1623, 60, 166, 56, 39},
        {4665, 1585, 0, 8},
        {18, 0, 7, 8, 54}}},
      {Protocol::kCxl, 4,
       {{2578, 2575, 2, 1, 0, 27, 423},
        {3000, 8222, 80, 84, 71, 86},
        {11046, 25, 8251, 25},
        {165, 91, 91, 92, 323}},
       {{2335, 2332, 3, 0, 0, 13, 665},
        {3000, 6448, 100, 76, 90, 70},
        {9336, 19, 6540, 19},
        {146, 66, 66, 76, 259}}},
      {Protocol::kRxl, 4,
       {{2407, 2407, 0, 0, 0, 0, 0},
        {2497, 9756, 119, 85, 104, 101},
        {12149, 9582, 0, 25},
        {178, 0, 99, 103, 346}},
       {{2568, 2568, 0, 0, 0, 0, 0},
        {2650, 9975, 119, 66, 107, 102},
        {12512, 9798, 0, 24},
        {187, 0, 87, 99, 331}}}};
  for (const RecordedLinearRun& expected : kRecorded) {
    DagScenarioSpec spec;
    spec.protocol.protocol = expected.protocol;
    spec.protocol.coalesce_factor = 10;
    spec.burst_injection_rate = 5e-3;
    spec.seed = 8;
    spec.flits_per_flow = 3'000;
    spec.horizon = 30'000'000;
    DagConfig config = make_linear_dag(spec, expected.levels);
    config.hub_internal_error_rate = 2e-3;
    const DagReport report = run_dag_fabric(config);
    ASSERT_EQ(report.hops.size(), 1u);
    const unsigned levels = expected.levels;
    for (std::size_t dir = 0; dir < 2; ++dir) {
      SCOPED_TRACE(testing::Message()
                   << protocol_name(expected.protocol) << " " << levels
                   << " levels, " << (dir == 0 ? "downstream" : "upstream"));
      const RecordedDirection& want = dir == 0 ? expected.down : expected.up;
      const txn::StreamScoreboard::Stats& s = report.flows[dir].scoreboard;
      EXPECT_EQ(want.scoreboard,
                (std::array<std::uint64_t, 7>{
                    s.delivered, s.in_order, s.order_violations, s.duplicates,
                    s.late_deliveries, s.data_corruptions, s.missing}));
      // hops[0].a is the host, hops[0].b the device.
      const link::EndpointStats& tx =
          dir == 0 ? report.hops[0].a : report.hops[0].b;
      const link::EndpointStats& rx =
          dir == 0 ? report.hops[0].b : report.hops[0].a;
      EXPECT_EQ(want.sender,
                (std::array<std::uint64_t, 6>{
                    tx.data_flits_sent, tx.data_flits_retransmitted,
                    tx.control_flits_sent, tx.acks_piggybacked, tx.nacks_sent,
                    tx.retry_rounds}));
      EXPECT_EQ(want.receiver,
                (std::array<std::uint64_t, 4>{
                    rx.flits_received, rx.flits_discarded_crc,
                    rx.flits_discarded_seq, rx.fec_corrected_flits}));
      // Downstream hubs come first in node order; edges 0..L run
      // downstream and L+1..2L+1 upstream.
      std::array<std::uint64_t, 5> wire{};
      for (unsigned level = 0; level < levels; ++level) {
        const switchdev::PortSwitchStats& hub =
            report.hubs[dir * levels + level].stats;
        wire[0] += hub.dropped_fec;
        wire[1] += hub.dropped_crc;
        wire[2] += hub.fec_corrected;
        wire[3] += hub.internal_corruptions;
        EXPECT_EQ(hub.dropped_no_route, 0u);
      }
      for (unsigned hop = 0; hop <= levels; ++hop)
        wire[4] += report.channels[dir * (levels + 1) + hop].flits_corrupted;
      EXPECT_EQ(want.wire, wire);
    }
  }
}

TEST(DagFabric, DeterministicAcrossRunsAndWorkerCounts) {
  auto trial = [](std::size_t) {
    DagScenarioSpec spec = base_spec();
    spec.burst_injection_rate = 2e-3;
    spec.flits_per_flow = 400;
    return run_dag_fabric(make_butterfly_dag(spec));
  };
  const auto serial = sim::run_trials(2, trial, /*workers=*/1);
  const auto sharded = sim::run_trials(2, trial, /*workers=*/2);
  for (const auto* reports : {&serial, &sharded}) {
    EXPECT_EQ((*reports)[0].total_in_order(), (*reports)[1].total_in_order());
    EXPECT_EQ((*reports)[0].total_hop_retransmissions(),
              (*reports)[1].total_hop_retransmissions());
  }
  EXPECT_EQ(serial[0].total_in_order(), sharded[0].total_in_order());
  EXPECT_EQ(serial[0].total_hop_retransmissions(),
            sharded[0].total_hop_retransmissions());
}

// --------------------------------------------------------------------------
// Traffic generators and latency sampling
// --------------------------------------------------------------------------

TEST(DagFabric, PacedSourceRearmsItsWakeupAcrossIdleGaps) {
  // A sparsely paced flow goes completely idle between flits: nothing else
  // in the fabric generates events, so delivery of every flit depends on
  // the source re-arming its own wake-up kick after each pace interval.
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 5;
  spec.horizon = 60'000'000;
  DagConfig config = make_chain_dag(spec, 1);
  config.flows[0].arrival = ArrivalKind::kPaced;
  config.flows[0].interval = 2'000'000;  // one flit per 2 us, path ~20 ns
  config.sample_latency = true;
  const DagReport report = run_dag_fabric(config);
  EXPECT_EQ(report.flows[0].offered, 5u);
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 5u);
  EXPECT_EQ(report.flows[0].latency.count(), 5u);
  EXPECT_EQ(report.flows[0].latency_sample_misses, 0u);
  // Arrival-based latency: each flit was pulled at its due instant, so the
  // recorded latency is pure path transit, well under one pace interval.
  EXPECT_LT(report.flows[0].latency.max(), 1'000'000u);
}

TEST(DagFabric, PoissonIncastSamplesEveryDeliveryDeterministically) {
  auto run = [] {
    DagScenarioSpec spec = base_spec();
    spec.flits_per_flow = 2'000;
    spec.hop_credits = 16;
    spec.sample_latency = true;
    DagConfig config = make_incast_dag(spec, 4);
    for (DagFlow& flow : config.flows) {
      flow.arrival = ArrivalKind::kPoisson;
      flow.interval = 10'000;
    }
    return run_dag_fabric(config);
  };
  const DagReport first = run();
  const DagReport second = run();
  std::uint64_t sampled = 0;
  for (std::size_t f = 0; f < first.flows.size(); ++f) {
    // Identical reruns: same seeds -> bit-identical histograms.
    EXPECT_TRUE(first.flows[f].latency == second.flows[f].latency);
    EXPECT_EQ(first.flows[f].offered, second.flows[f].offered);
    // Every in-order delivery produced a sample; none fell out of the ring
    // on this credited fabric (the deterministic-suite pin for misses).
    EXPECT_EQ(first.flows[f].latency.count(),
              first.flows[f].scoreboard.in_order);
    EXPECT_EQ(first.flows[f].latency_sample_misses, 0u);
    // Raw samples stay behind the debug opt-in even with sampling on.
    EXPECT_TRUE(first.flows[f].latency_samples.empty());
    sampled += first.flows[f].latency.count();
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_EQ(first.total_latency_sample_misses(), 0u);
  EXPECT_EQ(first.merged_latency().count(), sampled);
}

TEST(DagFabric, DebugOptInKeepsRawSamplesMatchingTheHistogram) {
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 500;
  DagConfig config = make_chain_dag(spec, 1);
  config.debug_latency_samples = true;  // implies sample_latency
  const DagReport report = run_dag_fabric(config);
  const DagFlowReport& flow = report.flows[0];
  EXPECT_EQ(flow.latency_samples.size(), flow.latency.count());
  EXPECT_EQ(flow.latency_samples.size(), 500u);
  stats::LatencyHistogram rebuilt;
  for (const TimePs sample : flow.latency_samples) rebuilt.add(sample);
  EXPECT_TRUE(rebuilt == flow.latency);
}

TEST(DagFabric, RingOverrunCountsMissesInsteadOfSilentlySkipping) {
  // Credits off: the relay queue is unbounded, so four greedy sources
  // pushing at wire speed into one sink hop build a per-flow backlog far
  // beyond kLatencyRingSlots. Deliveries whose inject timestamp was
  // overwritten must be COUNTED as misses, and every delivery must land in
  // exactly one of {sampled, missed} — the undercount-without-a-signal bug
  // this field exists to close.
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 20'000;
  spec.hop_credits = 0;
  spec.horizon = 60'000'000;
  spec.sample_latency = true;
  const DagReport report = run_dag_fabric(make_incast_dag(spec, 4));
  EXPECT_GT(report.total_latency_sample_misses(), 0u);
  for (const DagFlowReport& flow : report.flows)
    EXPECT_EQ(flow.latency.count() + flow.latency_sample_misses,
              flow.scoreboard.in_order);
}

// --------------------------------------------------------------------------
// Trace component order
// --------------------------------------------------------------------------

std::vector<std::string> component_names(const DagReport& report) {
  std::vector<std::string> names;
  for (const obs::TraceComponentCapture& component : report.trace.components)
    names.push_back(component.name);
  return names;
}

bool records(const obs::TraceComponentCapture& component,
             obs::TraceEventKind kind) {
  return std::any_of(
      component.events.begin(), component.events.end(),
      [kind](const obs::TraceEvent& event) { return event.kind == kind; });
}

TEST(DagFabric, TraceComponentOrderIsPinned) {
  // Component ids are registration indices, so a capture compares across
  // runs only while the order holds: terminal endpoints by (node, domain),
  // then per relay its ports and its queue, then the wires, the control
  // wires and the reroute controller. The ring T0 -> R1 -> T1 -> R2 -> T0
  // carries one flow each way over four unpaired domains, so each terminal
  // holds two same-named endpoints and every domain gets a control wire.
  DagConfig ring;
  ring.protocol.protocol = Protocol::kRxl;
  ring.seed = 5;
  ring.horizon = 2'000'000;
  ring.nodes.push_back(DagNode{"T0", DagNodeKind::kTerminal, {}});
  ring.nodes.push_back(DagNode{"R1", DagNodeKind::kRelay, {}});
  ring.nodes.push_back(DagNode{"T1", DagNodeKind::kTerminal, {}});
  ring.nodes.push_back(DagNode{"R2", DagNodeKind::kRelay, {}});
  for (std::uint16_t v = 0; v < 4; ++v)
    ring.edges.push_back(
        plain_edge(v, static_cast<std::uint16_t>((v + 1) % 4)));
  ring.flows.push_back(DagFlow{0, 2, 20, 0x61});
  ring.flows.push_back(DagFlow{2, 0, 20, 0x62});
  ring.trace.enabled = true;
  ring.trace.ring_depth = 64;
  const DagReport ring_report = run_dag_fabric(ring);
  for (const DagFlowReport& flow : ring_report.flows)
    EXPECT_EQ(flow.scoreboard.in_order, 20u);
  ASSERT_EQ(component_names(ring_report),
            (std::vector<std::string>{
                "T0", "T0", "T1", "T1", "R1.p0", "R1.p1", "R1.q", "R2.p0",
                "R2.p1", "R2.q", "wire.e0", "wire.e1", "wire.e2", "wire.e3",
                "ctrl.w0", "ctrl.w1", "ctrl.w2", "ctrl.w3"}));
  // Same-named endpoints keep domain order: T0's uplink domain (0) comes
  // before its downlink domain (3), and T1's downlink domain (1) before
  // its uplink domain (2).
  const std::vector<obs::TraceComponentCapture>& terminals =
      ring_report.trace.components;
  EXPECT_TRUE(records(terminals[0], obs::TraceEventKind::kTx));
  EXPECT_TRUE(records(terminals[1], obs::TraceEventKind::kDeliver));
  EXPECT_TRUE(records(terminals[2], obs::TraceEventKind::kDeliver));
  EXPECT_TRUE(records(terminals[3], obs::TraceEventKind::kTx));
  for (std::size_t c : {0, 3})
    EXPECT_FALSE(records(terminals[c], obs::TraceEventKind::kDeliver)) << c;
  for (std::size_t c : {1, 2})
    EXPECT_FALSE(records(terminals[c], obs::TraceEventKind::kTx)) << c;

  // A diamond whose M_0 fail-stops: the backup branch adds relay ports
  // after the primary ones, and the controller registers last.
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 40;
  spec.hop_credits = 4;
  spec.protocol.max_retry_episodes = 6;
  DagConfig diamond = make_diamond_dag(spec, 1, 2);
  diamond.faults.relay_failures.push_back({/*node=*/2, /*at=*/10'000});
  diamond.trace.enabled = true;
  diamond.trace.ring_depth = 64;
  const DagReport diamond_report = run_dag_fabric(diamond);
  EXPECT_EQ(diamond_report.total_reroutes_executed(), 1u);
  EXPECT_EQ(component_names(diamond_report),
            (std::vector<std::string>{
                "src0",    "dst0",    "r0.p0",   "r0.p1",   "r0.p2",
                "r0.q",    "m0.p0",   "m0.p1",   "m0.q",    "m1.p0",
                "m1.p1",   "m1.q",    "r1.p0",   "r1.p1",   "r1.p2",
                "r1.q",    "wire.e0", "wire.e1", "wire.e2", "wire.e3",
                "wire.e4", "wire.e5", "ctrl.w0", "ctrl.w1", "ctrl.w2",
                "ctrl.w3", "ctrl.w4", "ctrl.w5", "reroute"}));
}

}  // namespace
}  // namespace rxl::transport
