// Property sweeps over randomized arrival processes x scenario topologies:
// whatever the traffic generator does — paced or Poisson — an RXL flow must
// still deliver exactly once in order, every delivery must land in the latency histogram (zero
// ring misses while the per-flow budget fits the timestamp ring), and the
// histogram must merge bit-identically across TrialRunner worker counts.
// Every universe derives from one generator seed printed on failure.
#include <gtest/gtest.h>

#include <string>

#include "rxl/common/rng.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/traffic_gen.hpp"

namespace rxl::transport {
namespace {

struct Universe {
  DagConfig config;
  const char* family = "";
  ArrivalKind kind = ArrivalKind::kGreedy;
};

Universe random_universe(std::uint64_t gen_seed) {
  Xoshiro256 rng(gen_seed);
  DagScenarioSpec spec;
  spec.protocol.protocol = Protocol::kRxl;
  spec.protocol.coalesce_factor = static_cast<unsigned>(4 + rng.bounded(12));
  constexpr double kBurstRates[] = {0.0, 5e-4, 1e-3};
  constexpr double kBitErrorRates[] = {0.0, 1e-5};
  spec.burst_injection_rate = kBurstRates[rng.bounded(3)];
  spec.ber = kBitErrorRates[rng.bounded(2)];
  // Budget stays far below kLatencyRingSlots, so the timestamp ring can
  // never wrap and the zero-miss invariant is exact.
  spec.flits_per_flow = 400 + rng.bounded(500);
  spec.seed = rng();
  spec.horizon = 400'000'000;  // 400 us: generous for every mix below
  spec.hop_credits = static_cast<unsigned>(8u << rng.bounded(3));
  spec.sample_latency = true;

  Universe universe;
  switch (rng.bounded(3)) {
    case 0:
      universe.config = make_incast_dag(spec, 2 + rng.bounded(3));
      universe.family = "incast";
      break;
    case 1:
      universe.config = make_trunk_dag(spec, 2 + rng.bounded(3));
      universe.family = "trunk";
      break;
    default:
      universe.config = make_chain_dag(spec, 1 + rng.bounded(3));
      universe.family = "chain";
      break;
  }

  constexpr ArrivalKind kKinds[] = {ArrivalKind::kPaced,
                                    ArrivalKind::kPoisson};
  universe.kind = kKinds[rng.bounded(2)];
  for (DagFlow& flow : universe.config.flows) {
    flow.arrival = universe.kind;
    // From ~2x under to ~2x over the shared wire's per-flow fair share:
    // both drained and backlogged regimes are swept.
    flow.interval = 4'000 + rng.bounded(12'000);
  }
  return universe;
}

/// Everything the main thread needs to assert (and to name the culprit).
struct TrialOutcome {
  std::uint64_t gen_seed = 0;
  const char* family = "";
  ArrivalKind kind = ArrivalKind::kGreedy;
  std::uint64_t budget_total = 0;
  std::uint64_t offered = 0;
  std::uint64_t in_order = 0;
  std::uint64_t order_failures = 0;
  std::uint64_t missing = 0;
  std::uint64_t sample_misses = 0;
  std::uint64_t hop_retransmissions = 0;
  bool per_flow_counts_ok = true;  ///< histogram count == in_order per flow
  stats::LatencyHistogram merged;
};

TrialOutcome run_traffic_trial(std::uint64_t gen_seed) {
  const Universe universe = random_universe(gen_seed);
  const DagReport report = run_dag_fabric(universe.config);
  TrialOutcome outcome;
  outcome.gen_seed = gen_seed;
  outcome.family = universe.family;
  outcome.kind = universe.kind;
  for (const DagFlow& flow : universe.config.flows)
    outcome.budget_total += flow.flits;
  outcome.offered = report.total_offered();
  outcome.in_order = report.total_in_order();
  outcome.order_failures = report.total_order_failures();
  outcome.missing = report.total_missing();
  outcome.sample_misses = report.total_latency_sample_misses();
  outcome.hop_retransmissions = report.total_hop_retransmissions();
  for (const DagFlowReport& flow : report.flows) {
    if (flow.latency.count() != flow.scoreboard.in_order)
      outcome.per_flow_counts_ok = false;
    if (!flow.latency_samples.empty())  // raw samples are debug-only
      outcome.per_flow_counts_ok = false;
  }
  outcome.merged = report.merged_latency();
  return outcome;
}

void assert_traffic_invariants(const TrialOutcome& outcome) {
  SCOPED_TRACE(std::string("replay with generator seed ") +
               std::to_string(outcome.gen_seed) + " (family " +
               outcome.family + ", " + arrival_kind_name(outcome.kind) +
               " arrivals)");
  // The horizon is generous enough for every arrival process above to
  // offer its whole budget and drain: exactly-once, in-order delivery.
  EXPECT_EQ(outcome.offered, outcome.budget_total);
  EXPECT_EQ(outcome.in_order, outcome.budget_total);
  EXPECT_EQ(outcome.order_failures, 0u);
  EXPECT_EQ(outcome.missing, 0u);
  // Every delivery was stamped: budgets fit the timestamp ring, so no
  // delivery may fall back to the miss counter, and the histogram holds
  // exactly one sample per in-order flit.
  EXPECT_EQ(outcome.sample_misses, 0u);
  EXPECT_TRUE(outcome.per_flow_counts_ok);
  EXPECT_EQ(outcome.merged.count(), outcome.in_order);
}

/// 3 batches x 16 generator seeds = 48 randomized arrival-process/topology/
/// error universes, sharded across workers by the TrialRunner.
class TrafficProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrafficProperties, EveryArrivalProcessDeliversExactlyOnceAndSampled) {
  const std::uint64_t base = GetParam();
  const auto outcomes = sim::run_trials(16, [base](std::size_t trial) {
    return run_traffic_trial(base + 0x1000 * trial);
  });
  std::uint64_t noisy_universes = 0;
  for (const TrialOutcome& outcome : outcomes) {
    assert_traffic_invariants(outcome);
    if (outcome.hop_retransmissions > 0) noisy_universes += 1;
  }
  // The sweep must not silently degenerate to clean channels: most batches
  // draw error mixes that force real per-hop retries under shaped traffic.
  EXPECT_GT(noisy_universes, 2u);
}

INSTANTIATE_TEST_SUITE_P(Batches, TrafficProperties,
                         ::testing::Values(0x7AF1'0001ull, 0x7AF1'0002ull,
                                           0x7AF1'0003ull));

/// The PR 3 merge-determinism contract extended to histograms: 1 worker vs
/// 4 workers must produce bit-identical per-trial histograms (operator==
/// compares every bucket), and folding them in trial order must too.
TEST(TrafficProperties, HistogramMergeIsWorkerCountInvariant) {
  auto trial = [](std::size_t i) {
    return run_traffic_trial(0x7AF1'0001ull + 0x1000 * i);
  };
  const auto serial = sim::run_trials(8, trial, /*workers=*/1);
  const auto sharded = sim::run_trials(8, trial, /*workers=*/4);
  ASSERT_EQ(serial.size(), sharded.size());
  stats::LatencyHistogram fold_serial;
  stats::LatencyHistogram fold_sharded;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].offered, sharded[i].offered);
    EXPECT_EQ(serial[i].sample_misses, sharded[i].sample_misses);
    EXPECT_TRUE(serial[i].merged == sharded[i].merged)
        << "histogram mismatch at trial " << i;
    fold_serial.merge(serial[i].merged);
    fold_sharded.merge(sharded[i].merged);
  }
  EXPECT_TRUE(fold_serial == fold_sharded);
  EXPECT_EQ(fold_serial.percentile(99), fold_sharded.percentile(99));
}

}  // namespace
}  // namespace rxl::transport
