// Full-fabric integration on the paper's host <-> N-level <-> device fabric
// (make_linear_dag): statistical validation of the paper's claims at
// inflated error rates (the benches sweep these; tests pin the qualitative
// results).
#include <gtest/gtest.h>

#include "rxl/sim/trial_runner.hpp"
#include "rxl/transport/dag_fabric.hpp"

namespace rxl::transport {
namespace {

constexpr Protocol kProtocols[] = {Protocol::kCxl, Protocol::kRxl};

DagScenarioSpec base_spec(Protocol protocol) {
  DagScenarioSpec spec;
  spec.protocol.protocol = protocol;
  spec.protocol.coalesce_factor = 10;  // p_coalescing = 0.1
  spec.seed = 2024;
  spec.flits_per_flow = 30'000;
  spec.horizon = 200'000'000;  // 200 us: 100k slots
  return spec;
}

/// Runs host <-> `levels` switch levels <-> device. With one level,
/// hubs[0] is the downstream switch and edges 0 and 1 carry the downstream
/// direction.
DagReport run_levels(const DagScenarioSpec& spec, unsigned levels = 1,
                     double switch_internal_error_rate = 0.0) {
  DagConfig config = make_linear_dag(spec, levels);
  config.hub_internal_error_rate = switch_internal_error_rate;
  return run_dag_fabric(config);
}

TEST(Fabric, CleanFabricDeliversEverything) {
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    DagScenarioSpec spec = base_spec(kProtocols[trial]);
    spec.flits_per_flow = 5'000;
    return run_levels(spec);
  });
  for (const DagReport& report : reports) {
    EXPECT_EQ(report.flows[0].scoreboard.in_order, 5'000u);
    EXPECT_EQ(report.flows[0].scoreboard.order_violations, 0u);
    EXPECT_EQ(report.flows[1].scoreboard.in_order, 5'000u);
    EXPECT_EQ(report.flows[0].scoreboard.data_corruptions, 0u);
  }
}

TEST(Fabric, SwitchedCxlSuffersOrderingFailuresUnderDrops) {
  // Paper §7.1.2: drops + ACK piggybacking => undetected ordering
  // violations. Inflated burst rate makes them frequent enough to count.
  DagScenarioSpec spec = base_spec(Protocol::kCxl);
  spec.burst_injection_rate = 1e-2;  // ~6.7e-3 drops/flit after FEC
  const DagReport report = run_levels(spec);
  EXPECT_GT(report.hubs[0].stats.dropped_fec, 50u);
  EXPECT_GT(report.flows[0].scoreboard.order_violations +
                report.flows[0].scoreboard.duplicates,
            0u);
}

TEST(Fabric, SwitchedRxlHasZeroOrderingFailuresUnderSameDrops) {
  DagScenarioSpec spec = base_spec(Protocol::kRxl);
  spec.burst_injection_rate = 5e-3;
  const DagReport report = run_levels(spec);
  const txn::StreamScoreboard::Stats& down = report.flows[0].scoreboard;
  EXPECT_GT(report.hubs[0].stats.dropped_fec, 50u);  // same physics
  EXPECT_EQ(down.order_violations, 0u);
  EXPECT_EQ(down.duplicates, 0u);
  EXPECT_EQ(down.data_corruptions, 0u);
  // And nothing is lost: drops are retried to completion.
  EXPECT_EQ(down.missing, 0u);
}

TEST(Fabric, SwitchInternalCorruptionEscapesCxlButNotRxl) {
  // §6.3: CXL switches regenerate the link CRC over internally corrupted
  // data; RXL's end-to-end ECRC catches it.
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    DagScenarioSpec spec = base_spec(kProtocols[trial]);
    spec.flits_per_flow = 20'000;
    return run_levels(spec, 1, 1e-3);
  });
  const DagReport& cxl_report = reports[0];
  EXPECT_GT(cxl_report.hubs[0].stats.internal_corruptions, 0u);
  EXPECT_GT(cxl_report.flows[0].scoreboard.data_corruptions, 0u);

  const DagReport& rxl_report = reports[1];
  EXPECT_GT(rxl_report.hubs[0].stats.internal_corruptions, 0u);
  EXPECT_EQ(rxl_report.flows[0].scoreboard.data_corruptions, 0u);
  EXPECT_EQ(rxl_report.flows[0].scoreboard.missing, 0u);
}

TEST(Fabric, MoreSwitchLevelsMeanMoreCxlFailures) {
  // The Fig. 8 shape: CXL ordering failures grow with switching depth.
  // The drop rate must stay low enough that the receiver is rarely in a
  // (self-aware) resync episode — the silent-drop hole only opens in the
  // clean state — so use a modest rate over a long run.
  const auto failures = sim::run_trials(2, [](std::size_t trial) {
    DagScenarioSpec spec = base_spec(Protocol::kCxl);
    spec.burst_injection_rate = 1e-3;
    spec.flits_per_flow = 150'000;
    spec.horizon = 700'000'000;  // 700 us = 350k slots
    return run_levels(spec, trial == 0 ? 1u : 4u).total_order_failures();
  });
  const std::uint64_t shallow = failures[0];
  const std::uint64_t deep = failures[1];
  EXPECT_GT(shallow, 0u);
  EXPECT_GT(deep, shallow);
}

TEST(Fabric, BerDrivenErrorsAreMostlyCorrected) {
  // At BER 1e-5, nearly every corrupted flit carries a single-bit error the
  // FEC fixes; goodput should stay near 1 with zero failures.
  DagScenarioSpec spec = base_spec(Protocol::kRxl);
  spec.ber = 1e-5;
  spec.flits_per_flow = 20'000;
  const DagReport report = run_levels(spec);
  const std::uint64_t corrupted =
      report.channels[0].flits_corrupted + report.channels[1].flits_corrupted;
  EXPECT_GT(corrupted, 100u);
  EXPECT_EQ(report.flows[0].scoreboard.missing, 0u);
  const double corrected_share =
      static_cast<double>(report.hubs[0].stats.fec_corrected +
                          report.hops[0].b.fec_corrected_flits) /
      static_cast<double>(corrupted);
  EXPECT_GT(corrected_share, 0.95);
}

TEST(Fabric, ReportsChannelCapacity) {
  const DagScenarioSpec spec = base_spec(Protocol::kRxl);
  const DagReport report = run_levels(spec);
  EXPECT_EQ(report.slots, spec.horizon / kFlitSlotPs);
  const double goodput =
      static_cast<double>(report.flows[0].scoreboard.in_order) /
      static_cast<double>(report.slots);
  EXPECT_GT(goodput, 0.0);
  EXPECT_LE(goodput, 1.0);
}

TEST(Fabric, DeterministicAcrossRunsAndWorkerCounts) {
  // The same config must reproduce exactly, whether the two trials run
  // serially or sharded across TrialRunner workers.
  // Half the old single-comparison traffic per trial: four sims run here
  // (serial pair + sharded pair), so this keeps the suite's wall-time flat
  // while still exercising thousands of flits per universe.
  auto trial = [](std::size_t) {
    DagScenarioSpec spec = base_spec(Protocol::kCxl);
    spec.burst_injection_rate = 2e-3;
    spec.flits_per_flow = 5'000;
    return run_levels(spec);
  };
  const auto serial = sim::run_trials(2, trial, /*workers=*/1);
  const auto sharded = sim::run_trials(2, trial, /*workers=*/2);
  for (const auto* reports : {&serial, &sharded}) {
    const DagReport& first = (*reports)[0];
    const DagReport& second = (*reports)[1];
    EXPECT_EQ(first.flows[0].scoreboard.in_order,
              second.flows[0].scoreboard.in_order);
    EXPECT_EQ(first.flows[0].scoreboard.order_violations,
              second.flows[0].scoreboard.order_violations);
    EXPECT_EQ(first.hubs[0].stats.dropped_fec,
              second.hubs[0].stats.dropped_fec);
  }
  EXPECT_EQ(serial[0].flows[0].scoreboard.in_order,
            sharded[0].flows[0].scoreboard.in_order);
  EXPECT_EQ(serial[0].hubs[0].stats.dropped_fec,
            sharded[0].hubs[0].stats.dropped_fec);
}

}  // namespace
}  // namespace rxl::transport
