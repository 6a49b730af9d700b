// The paper's analytical results, pinned to the numbers printed in §7.
#include <gtest/gtest.h>

#include "rxl/analysis/bandwidth_model.hpp"
#include "rxl/analysis/fec_combinatorics.hpp"
#include "rxl/analysis/reliability_model.hpp"

namespace rxl::analysis {
namespace {

TEST(Reliability, Eq1FlitErrorRate) {
  ReliabilityParams params;
  // "approximately 0.2% of flits are erroneous" — 2.0e-3.
  EXPECT_NEAR(flit_error_rate(params), 2.046e-3, 5e-6);
}

TEST(Reliability, Eq3FecCorrectsMoreThan98Percent) {
  ReliabilityParams params;
  EXPECT_GT(fec_correct_fraction(params), 0.985);
}

TEST(Reliability, Eq4UndetectedRate) {
  ReliabilityParams params;
  // 3e-5 * 2^-64 ~= 1.6e-24.
  EXPECT_NEAR(fer_undetected_direct(params) / 1.6e-24, 1.0, 0.05);
}

TEST(Reliability, Eq5DirectFit) {
  ReliabilityParams params;
  // FIT ~= 2.9e-3.
  EXPECT_NEAR(fit_cxl(params, 0) / 2.9e-3, 1.0, 0.05);
}

TEST(Reliability, Eq6DropRate) {
  ReliabilityParams params;
  EXPECT_DOUBLE_EQ(fer_drop(params, 1), 3e-5);
  EXPECT_DOUBLE_EQ(fer_drop(params, 3), 9e-5);
  EXPECT_DOUBLE_EQ(fer_drop(params, 0), 0.0);
}

TEST(Reliability, Eq7OrderingFailureRate) {
  ReliabilityParams params;
  EXPECT_NEAR(fer_order_cxl(params, 1), 3e-6, 1e-12);
}

TEST(Reliability, Eq8SwitchedCxlFit) {
  ReliabilityParams params;
  // FIT ~= 5.4e15.
  EXPECT_NEAR(fit_cxl(params, 1) / 5.4e15, 1.0, 0.01);
}

TEST(Reliability, Eq9Eq10RxlFit) {
  ReliabilityParams params;
  EXPECT_NEAR(fer_undetected_rxl(params, 1) / 1.6e-24, 1.0, 0.05);
  EXPECT_NEAR(fit_rxl(params, 1) / 2.9e-3, 1.0, 0.05);
}

TEST(Reliability, Fig8GapIsEighteenOrdersOfMagnitude) {
  ReliabilityParams params;
  const double gap = fit_cxl(params, 1) / fit_rxl(params, 1);
  EXPECT_GT(gap, 1e18);
  EXPECT_LT(gap, 1e19);
}

TEST(Reliability, Fig8SeriesShape) {
  ReliabilityParams params;
  const auto rows = fig8_series(params, 4);
  ASSERT_EQ(rows.size(), 5u);
  // Level 0: both protocols equal (direct link).
  EXPECT_DOUBLE_EQ(rows[0].fit_cxl, rows[0].fit_rxl);
  // CXL jumps catastrophically at level 1 and keeps growing linearly.
  EXPECT_GT(rows[1].fit_cxl, rows[0].fit_cxl * 1e17);
  EXPECT_NEAR(rows[2].fit_cxl / rows[1].fit_cxl, 2.0, 0.01);
  EXPECT_NEAR(rows[4].fit_cxl / rows[1].fit_cxl, 4.0, 0.01);
  // RXL stays flat (to within the tiny (1 + L*FER_UC) factor).
  EXPECT_NEAR(rows[4].fit_rxl / rows[0].fit_rxl, 1.0, 1e-3);
}

TEST(Reliability, CoalescingSweepScalesOrderingFailures) {
  ReliabilityParams params;
  params.p_coalescing = 1.0;
  const double all = fer_order_cxl(params, 1);
  params.p_coalescing = 0.01;
  const double one_percent = fer_order_cxl(params, 1);
  EXPECT_NEAR(all / one_percent, 100.0, 1e-6);
}

TEST(Bandwidth, Eq11DirectLoss) {
  BandwidthParams params;
  // ~0.15%.
  EXPECT_NEAR(bw_loss_cxl_direct(params), 0.0015, 5e-5);
}

TEST(Bandwidth, Eq12SwitchedLoss) {
  BandwidthParams params;
  // ~0.30%.
  EXPECT_NEAR(bw_loss_cxl_switched(params, 1), 0.0030, 1e-4);
}

TEST(Bandwidth, Eq13StandaloneAckLoss) {
  BandwidthParams params;
  params.p_coalescing = 1.0;
  EXPECT_DOUBLE_EQ(bw_loss_cxl_standalone_ack(params), 1.0);
  params.p_coalescing = 0.1;
  EXPECT_DOUBLE_EQ(bw_loss_cxl_standalone_ack(params), 0.1);
}

TEST(Bandwidth, Eq14RxlMatchesCxlPiggyback) {
  BandwidthParams params;
  EXPECT_DOUBLE_EQ(bw_loss_rxl_switched(params, 1),
                   bw_loss_cxl_switched(params, 1));
}

TEST(Bandwidth, LossGrowsWithLevels) {
  BandwidthParams params;
  EXPECT_LT(bw_loss_rxl_switched(params, 1), bw_loss_rxl_switched(params, 3));
}

TEST(Bandwidth, Section5BufferSizing) {
  // "a 16-lane CXL 3.0 link operating at 1 Tbps would require a 1 Gb
  // reassembly buffer" for 1 ms skew.
  EXPECT_NEAR(reorder_buffer_bits(1e12, 1e-3), 1e9, 1e3);
  // "a 1 Mb buffer to absorb in-flight flits" for 1 us stop latency.
  EXPECT_NEAR(selective_repeat_buffer_bits(1e12, 1e-6), 1e6, 1.0);
}

TEST(FecCombinatorics, LaneDistribution) {
  EXPECT_EQ(lanes_with_multi_errors(0), 0u);
  EXPECT_EQ(lanes_with_multi_errors(1), 0u);
  EXPECT_EQ(lanes_with_multi_errors(3), 0u);
  EXPECT_EQ(lanes_with_multi_errors(4), 1u);
  EXPECT_EQ(lanes_with_multi_errors(5), 2u);
  EXPECT_EQ(lanes_with_multi_errors(6), 3u);
  EXPECT_EQ(lanes_with_multi_errors(100), 3u);
}

TEST(FecCombinatorics, PaperDetectionFractions) {
  EXPECT_DOUBLE_EQ(burst_detection_probability(3), 1.0);
  EXPECT_NEAR(burst_detection_probability(4), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(burst_detection_probability(5), 8.0 / 9.0, 1e-12);
  EXPECT_NEAR(burst_detection_probability(6), 26.0 / 27.0, 1e-12);
  EXPECT_NEAR(burst_detection_probability(60), 26.0 / 27.0, 1e-12);
}

TEST(FecCombinatorics, Correctability) {
  EXPECT_TRUE(burst_correctable(1));
  EXPECT_TRUE(burst_correctable(3));
  EXPECT_FALSE(burst_correctable(4));
}

}  // namespace
}  // namespace rxl::analysis
