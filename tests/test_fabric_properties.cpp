// Property-style sweeps over random seeds and error mixes: the invariants
// the protocols must hold under ANY channel behaviour.
#include <gtest/gtest.h>

#include <tuple>

#include "rxl/transport/dag_fabric.hpp"

namespace rxl::transport {
namespace {

/// RXL's contract: whatever the (recoverable) channel does, the application
/// sees an exact, in-order, uncorrupted prefix stream — no ordering
/// failures, no duplicates, no losses, no corrupt data.
class RxlLossless
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double, double>> {};

TEST_P(RxlLossless, HoldsUnderRandomErrorMixes) {
  const auto [seed, ber, burst_rate] = GetParam();
  DagScenarioSpec spec;
  spec.protocol.protocol = Protocol::kRxl;
  spec.protocol.coalesce_factor = 8;
  spec.ber = ber;
  spec.burst_injection_rate = burst_rate;
  spec.seed = seed;
  spec.flits_per_flow = 20'000;
  spec.horizon = 200'000'000;
  const DagReport report = run_dag_fabric(make_linear_dag(spec, 2));
  for (const DagFlowReport& flow : report.flows) {
    const auto& board = flow.scoreboard;
    EXPECT_EQ(board.order_violations, 0u);
    EXPECT_EQ(board.duplicates, 0u);
    EXPECT_EQ(board.late_deliveries, 0u);
    EXPECT_EQ(board.data_corruptions, 0u);
    EXPECT_EQ(board.missing, 0u);
    // Deliveries form a prefix of the offered stream.
    EXPECT_EQ(board.in_order, board.delivered);
    EXPECT_GT(board.in_order, 10'000u);  // and real progress was made
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, RxlLossless,
    ::testing::Values(std::make_tuple(1ull, 0.0, 2e-3),
                      std::make_tuple(2ull, 1e-5, 0.0),
                      std::make_tuple(3ull, 1e-5, 1e-3),
                      std::make_tuple(4ull, 5e-5, 5e-4),
                      std::make_tuple(99ull, 0.0, 5e-3),
                      std::make_tuple(123ull, 2e-5, 2e-3)));

/// Conservation for both protocols: scoreboard categories partition the
/// delivered count, and nothing is delivered that was never offered.
class FabricConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricConservation, CategoriesPartitionDeliveries) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    DagScenarioSpec spec;
    spec.protocol.protocol = protocol;
    spec.burst_injection_rate = 2e-3;
    spec.seed = GetParam();
    spec.flits_per_flow = 15'000;
    spec.horizon = 150'000'000;
    const DagReport report = run_dag_fabric(make_linear_dag(spec, 1));
    for (std::size_t f = 0; f < 2; ++f) {
      const auto& board = report.flows[f].scoreboard;
      // hops[0].b (the device) receives flow 0, hops[0].a flow 1.
      const link::EndpointStats& rx =
          f == 0 ? report.hops[0].b : report.hops[0].a;
      // Every delivery is exactly one of: in-order, gap-skip, late, dup.
      EXPECT_EQ(board.delivered, board.in_order + board.order_violations +
                                     board.late_deliveries + board.duplicates +
                                     board.untracked);
      EXPECT_EQ(board.untracked, 0u);
      // No direction delivers more unique flits than were offered.
      EXPECT_LE(board.in_order + board.late_deliveries, 15'000u);
      // RX counters are self-consistent.
      EXPECT_LE(rx.flits_delivered, rx.flits_received);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricConservation,
                         ::testing::Values(7ull, 21ull, 1001ull, 31337ull));

/// Switch-internal corruption: RXL must stay corruption-free across seeds
/// (end-to-end ECRC); CXL must leak (CRC regeneration) whenever corruption
/// actually struck.
class InternalCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InternalCorruption, RxlZeroCxlLeaks) {
  std::uint64_t cxl_leaks = 0;
  std::uint64_t cxl_injected = 0;
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    DagScenarioSpec spec;
    spec.protocol.protocol = protocol;
    spec.seed = GetParam();
    spec.flits_per_flow = 15'000;
    spec.horizon = 150'000'000;
    DagConfig config = make_linear_dag(spec, 2);
    config.hub_internal_error_rate = 2e-3;
    const DagReport report = run_dag_fabric(config);
    const std::uint64_t corruptions = report.total_data_corruptions();
    if (protocol == Protocol::kRxl) {
      EXPECT_EQ(corruptions, 0u) << "seed " << GetParam();
      EXPECT_EQ(report.total_missing(), 0u);
    } else {
      cxl_leaks = corruptions;
      for (const DagHubReport& hub : report.hubs)
        cxl_injected += hub.stats.internal_corruptions;
    }
  }
  EXPECT_GT(cxl_injected, 0u);
  EXPECT_GT(cxl_leaks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternalCorruption,
                         ::testing::Values(11ull, 13ull, 17ull));

}  // namespace
}  // namespace rxl::transport
