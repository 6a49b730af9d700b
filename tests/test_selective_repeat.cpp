// Selective repeat (paper §5): single-flit resend + RX reorder buffer for
// the explicit-sequence baseline, and the RXL incompatibility the paper
// states.
#include <gtest/gtest.h>

#include <optional>

#include "rxl/link/reorder_buffer.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/endpoint.hpp"

namespace rxl::transport {
namespace {

TEST(ReorderBuffer, InsertTakeAndStats) {
  link::ReorderBuffer buffer(4);
  sim::FlitEnvelope envelope;
  envelope.truth_index = 42;
  envelope.has_truth = true;
  EXPECT_TRUE(buffer.insert(10, std::move(envelope)));
  EXPECT_TRUE(buffer.contains(10));
  EXPECT_FALSE(buffer.contains(11));
  const auto taken = buffer.take(10);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->truth_index, 42u);
  EXPECT_FALSE(buffer.contains(10));
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(ReorderBuffer, DuplicateAndOverflowRejected) {
  link::ReorderBuffer buffer(2);
  EXPECT_TRUE(buffer.insert(1, sim::FlitEnvelope{}));
  EXPECT_FALSE(buffer.insert(1, sim::FlitEnvelope{}));  // duplicate
  EXPECT_TRUE(buffer.insert(2, sim::FlitEnvelope{}));
  EXPECT_FALSE(buffer.insert(3, sim::FlitEnvelope{}));  // full
}

TEST(ReorderBuffer, RejectsBadCapacity) {
  EXPECT_THROW(link::ReorderBuffer(0), std::invalid_argument);
  EXPECT_THROW(link::ReorderBuffer(513), std::invalid_argument);
}

TEST(SelectiveRepeat, RxlRejectsTheMode) {
  // The paper's §5 limitation, enforced at construction: ISN has no
  // explicit sequence numbers to reorder by.
  sim::EventQueue queue;
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  config.retry_mode = RetryMode::kSelectiveRepeat;
  EXPECT_THROW(Endpoint endpoint(queue, config, "rxl"),
               std::invalid_argument);
}

/// CXL through one switch level: hops[0].a is the host, hops[0].b the
/// device, and flow 0 the downstream stream.
DagReport run_selective(RetryMode mode) {
  DagScenarioSpec spec;
  spec.protocol.protocol = Protocol::kCxl;
  spec.protocol.retry_mode = mode;
  spec.protocol.coalesce_factor = 10;
  spec.burst_injection_rate = 2e-3;
  spec.seed = 808;
  spec.flits_per_flow = 40'000;
  spec.horizon = 300'000'000;
  return run_dag_fabric(make_linear_dag(spec, 1));
}

TEST(SelectiveRepeat, DeliversCompletelyUnderDrops) {
  const DagReport report = run_selective(RetryMode::kSelectiveRepeat);
  const txn::StreamScoreboard::Stats& down = report.flows[0].scoreboard;
  EXPECT_EQ(down.in_order + down.late_deliveries, 40'000u - down.missing);
  // The stream completes (allowing the §4.1-induced losses CXL always has).
  EXPECT_GT(down.in_order, 39'000u);
}

TEST(SelectiveRepeat, RetransmitsFarLessThanGoBackN) {
  // §5's bandwidth argument: one resent flit per drop instead of a whole
  // in-flight window.
  const DagReport go_back_n = run_selective(RetryMode::kGoBackN);
  const DagReport selective = run_selective(RetryMode::kSelectiveRepeat);
  const std::uint64_t gbn_retx =
      go_back_n.hops[0].a.data_flits_retransmitted +
      go_back_n.hops[0].b.data_flits_retransmitted;
  const std::uint64_t sr_retx =
      selective.hops[0].a.data_flits_retransmitted +
      selective.hops[0].b.data_flits_retransmitted;
  EXPECT_GT(gbn_retx, sr_retx * 3);  // window-sized vs single-flit replays
  EXPECT_GT(sr_retx, 0u);
}

TEST(SelectiveRepeat, ReorderBufferActuallyUsed) {
  const DagReport report = run_selective(RetryMode::kSelectiveRepeat);
  // Out-of-order arrivals were buffered rather than discarded: the
  // receive side reports no seq-mismatch discards.
  EXPECT_EQ(report.hops[0].b.flits_discarded_seq, 0u);
}

TEST(SelectiveRepeat, StillVulnerableToAckMaskedDrops) {
  // Selective repeat fixes the retransmission VOLUME, not the §4.1 hole:
  // ack-carrying flits still bypass the sequence check, so ordering
  // failures persist under piggybacking. Only ISN closes the hole.
  const DagReport report = run_selective(RetryMode::kSelectiveRepeat);
  EXPECT_GT(report.hops[0].a_extra.unchecked_deliveries +
                report.hops[0].b_extra.unchecked_deliveries,
            0u);
}

}  // namespace
}  // namespace rxl::transport
