// Scale-out star fabric: routing isolation and protocol behaviour when many
// endpoint pairs share one switching device. The star runs as a one-hub DAG
// (make_star_dag); the deleted hard-coded wiring is pinned by the
// recorded-counter equivalence tests in test_dag_fabric.cpp.
#include <gtest/gtest.h>

#include "rxl/sim/trial_runner.hpp"
#include "rxl/switchdev/port_switch.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/star_fabric.hpp"

namespace rxl::transport {
namespace {

constexpr Protocol kProtocols[] = {Protocol::kCxl, Protocol::kRxl};

StarConfig base_config(Protocol protocol, std::size_t pairs) {
  StarConfig config;
  config.protocol.protocol = protocol;
  config.protocol.coalesce_factor = 10;
  config.pairs = pairs;
  config.seed = 77;
  config.flits_per_direction = 4'000;
  config.horizon = 100'000'000;  // 100 us
  return config;
}

TEST(StarFabric, CleanFabricRoutesEveryPairCompletely) {
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    return run_dag_fabric(make_star_dag(base_config(kProtocols[trial], 4)));
  });
  for (const DagReport& report : reports) {
    ASSERT_EQ(report.flows.size(), 8u);  // 4 pairs, both directions
    for (const DagFlowReport& flow : report.flows) {
      EXPECT_EQ(flow.scoreboard.in_order, 4'000u);
      EXPECT_EQ(flow.scoreboard.order_violations, 0u);
      EXPECT_EQ(flow.scoreboard.data_corruptions, 0u);
    }
    ASSERT_EQ(report.hubs.size(), 1u);
    EXPECT_EQ(report.hubs[0].stats.dropped_no_route, 0u);
    EXPECT_EQ(report.hubs[0].stats.flits_in,
              report.hubs[0].stats.flits_forwarded);
  }
}

TEST(StarFabric, PairsAreIsolated) {
  // Payload streams are salted per pair; any cross-routing would show up
  // as data corruption (hash mismatch) at some pair's scoreboard.
  StarConfig config = base_config(Protocol::kRxl, 8);
  config.burst_injection_rate = 1e-3;
  const DagReport report = run_dag_fabric(make_star_dag(config));
  for (const DagFlowReport& flow : report.flows)
    EXPECT_EQ(flow.scoreboard.data_corruptions, 0u);
  EXPECT_EQ(report.misrouted, 0u);
}

TEST(StarFabric, RxlLosslessAcrossSharedSwitch) {
  StarConfig config = base_config(Protocol::kRxl, 6);
  config.burst_injection_rate = 2e-3;
  const DagReport report = run_dag_fabric(make_star_dag(config));
  EXPECT_GT(report.hubs[0].stats.dropped_fec, 20u);  // drops really happened
  EXPECT_EQ(report.total_order_failures(), 0u);
  EXPECT_EQ(report.total_missing(), 0u);
  EXPECT_EQ(report.total_in_order(), 6u * 2u * 4'000u);
}

TEST(StarFabric, CxlFailuresScaleWithPairCount) {
  // More pairs sharing the error-prone fabric => more §4.1 episodes in
  // aggregate (each pair contributes its own drop-mask opportunities).
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    StarConfig config = base_config(Protocol::kCxl, trial == 0 ? 2 : 8);
    config.burst_injection_rate = 2e-3;
    config.flits_per_direction = 20'000;
    config.horizon = 300'000'000;
    return run_dag_fabric(make_star_dag(config));
  });
  const DagReport& small_report = reports[0];
  const DagReport& large_report = reports[1];
  EXPECT_GT(small_report.total_order_failures() +
                small_report.total_missing(),
            0u);
  EXPECT_GT(large_report.total_order_failures() +
                large_report.total_missing(),
            small_report.total_order_failures() + small_report.total_missing());
}

TEST(StarFabric, UnroutablePortIsCountedNotCrashed) {
  sim::EventQueue queue;
  switchdev::PortSwitch::Config config;
  config.ports = 2;
  switchdev::PortSwitch sw(queue, config, 1);
  sim::FlitEnvelope envelope;
  envelope.seal = sim::SealState::kCodeword;
  envelope.dest_port = 5;  // beyond the port count
  sw.on_flit(std::move(envelope));
  queue.run();
  EXPECT_EQ(sw.stats().dropped_no_route, 1u);
  EXPECT_EQ(sw.stats().flits_forwarded, 0u);
}

TEST(StarFabric, BoundedCreditsLeaveCleanStarLossless) {
  // The star's hub-crossing, bidirectionally paired domains run the credit
  // machinery through its piggyback-ACK configuration: a small window must
  // throttle, not lose. Scoreboards stay exactly-once and the credit
  // conservation invariant holds on every hop.
  StarConfig config = base_config(Protocol::kRxl, 3);
  config.flits_per_direction = 1'000;
  DagConfig dag = make_star_dag(config);
  dag.hop_credits = 4;
  const DagReport report = run_dag_fabric(dag);
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, 1'000u);
    EXPECT_EQ(flow.scoreboard.order_violations, 0u);
    EXPECT_EQ(flow.scoreboard.missing, 0u);
  }
  EXPECT_GT(report.total_credits_consumed(), 0u);
  EXPECT_EQ(report.total_credits_consumed(), report.total_credits_returned());
  EXPECT_EQ(report.total_credits_returned(), report.total_credits_granted());
}

TEST(StarFabric, DeterministicAcrossRunsAndWorkerCounts) {
  // Half the old single-comparison traffic per trial (four sims run here:
  // serial pair + sharded pair) to keep the suite's wall-time flat.
  auto trial = [](std::size_t) {
    StarConfig config = base_config(Protocol::kCxl, 3);
    config.burst_injection_rate = 2e-3;
    config.flits_per_direction = 2'000;
    return run_dag_fabric(make_star_dag(config));
  };
  const auto serial = sim::run_trials(2, trial, /*workers=*/1);
  const auto sharded = sim::run_trials(2, trial, /*workers=*/2);
  for (const auto* reports : {&serial, &sharded}) {
    const DagReport& first = (*reports)[0];
    const DagReport& second = (*reports)[1];
    EXPECT_EQ(first.total_in_order(), second.total_in_order());
    EXPECT_EQ(first.total_order_failures(), second.total_order_failures());
    EXPECT_EQ(first.hubs[0].stats.dropped_fec,
              second.hubs[0].stats.dropped_fec);
  }
  EXPECT_EQ(serial[0].total_in_order(), sharded[0].total_in_order());
  EXPECT_EQ(serial[0].hubs[0].stats.dropped_fec,
            sharded[0].hubs[0].stats.dropped_fec);
}

}  // namespace
}  // namespace rxl::transport
