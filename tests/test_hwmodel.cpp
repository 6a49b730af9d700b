// §7.3 hardware-overhead claims, derived from the real CRC matrix.
#include "rxl/hwmodel/gate_model.hpp"

#include <gtest/gtest.h>

#include "rxl/common/types.hpp"

namespace rxl::hwmodel {
namespace {

constexpr std::size_t kFlitMessageBits = (kHeaderBytes + kPayloadBytes) * 8;

TEST(GateModel, CrcNetworkIsSubstantial) {
  const XorNetworkCost cost = crc_network_cost(kFlitMessageBits);
  // 64 outputs, ~half of 1936 inputs each: tens of thousands of XORs.
  EXPECT_GT(cost.xor_gates, 10'000u);
  EXPECT_GT(cost.max_fanin, 500u);
  EXPECT_GE(cost.logic_depth, 9u);  // ceil(log2(~1000))
  EXPECT_LE(cost.logic_depth, 11u);
}

TEST(GateModel, IsnAddsExactlyTenXorsAndOneLevel) {
  const CrcDatapathCost baseline = baseline_datapath_cost(kFlitMessageBits);
  const CrcDatapathCost isn = isn_datapath_cost(kFlitMessageBits);
  // Same CRC forest underneath.
  EXPECT_EQ(baseline.crc_network.xor_gates, isn.crc_network.xor_gates);
  // The paper's claim: +10 XOR gates, +1 logic depth.
  EXPECT_EQ(isn.isn_fold_gates, 10u);
  EXPECT_EQ(isn.crc_network.logic_depth + isn.isn_extra_depth,
            baseline.crc_network.logic_depth + 1);
}

TEST(GateModel, IsnRemovesTheComparator) {
  const CrcDatapathCost baseline = baseline_datapath_cost(kFlitMessageBits);
  const CrcDatapathCost isn = isn_datapath_cost(kFlitMessageBits);
  EXPECT_GT(baseline.comparator_gates, 0u);
  EXPECT_EQ(isn.comparator_gates, 0u);
  // Net overhead of ISN vs baseline: fold gates minus comparator — i.e.
  // FEWER total gates than the explicit-sequence design.
  EXPECT_LT(isn.total_gates(), baseline.total_gates());
}

TEST(GateModel, ComparatorCostIsXnorPlusAndTree) {
  const CrcDatapathCost baseline = baseline_datapath_cost(kFlitMessageBits, 10);
  EXPECT_EQ(baseline.comparator_gates, 19u);  // 10 XNOR + 9 AND
  EXPECT_EQ(baseline.comparator_depth, 1u + 4u);
}

TEST(GateModel, ScalesWithSeqWidth) {
  const CrcDatapathCost narrow = isn_datapath_cost(512, 8);
  const CrcDatapathCost wide = isn_datapath_cost(512, 16);
  EXPECT_EQ(narrow.isn_fold_gates, 8u);
  EXPECT_EQ(wide.isn_fold_gates, 16u);
}

TEST(GateModel, SmallMessageSanity) {
  // 8-bit message: every column nonzero, depth small but nonzero.
  const XorNetworkCost cost = crc_network_cost(8);
  EXPECT_GT(cost.xor_gates, 0u);
  EXPECT_GE(cost.logic_depth, 1u);
  EXPECT_LE(cost.max_fanin, 8u);
}

}  // namespace
}  // namespace rxl::hwmodel
