#include "rxl/link/link_layer.hpp"

#include <gtest/gtest.h>

namespace rxl::link {
namespace {

TEST(AckScheduler, CoalescesAtConfiguredFactor) {
  AckScheduler scheduler(4);
  for (std::uint16_t seq = 0; seq < 3; ++seq) {
    scheduler.on_delivered(seq);
    EXPECT_FALSE(scheduler.pending());
  }
  scheduler.on_delivered(3);
  EXPECT_TRUE(scheduler.pending());
  EXPECT_EQ(scheduler.consume(), 3);
  EXPECT_FALSE(scheduler.pending());
}

TEST(AckScheduler, CumulativeAckIsLatest) {
  AckScheduler scheduler(2);
  scheduler.on_delivered(10);
  scheduler.on_delivered(11);
  scheduler.on_delivered(12);  // still pending, counter not consumed
  EXPECT_EQ(scheduler.consume(), 12);
}

TEST(AckScheduler, FactorOneAcksEveryFlit) {
  AckScheduler scheduler(1);
  scheduler.on_delivered(5);
  EXPECT_TRUE(scheduler.pending());
  EXPECT_EQ(scheduler.consume(), 5);
  scheduler.on_delivered(6);
  EXPECT_TRUE(scheduler.pending());
}

TEST(AckScheduler, FactorZeroTreatedAsOne) {
  AckScheduler scheduler(0);
  EXPECT_EQ(scheduler.coalesce_factor(), 1u);
}

TEST(AckScheduler, ConsumeWithoutPendingIsEmpty) {
  AckScheduler scheduler(3);
  EXPECT_EQ(scheduler.consume(), std::nullopt);
}

TEST(AckScheduler, ForceOverridesCounter) {
  AckScheduler scheduler(100);
  scheduler.force(42);
  EXPECT_TRUE(scheduler.pending());
  EXPECT_EQ(scheduler.consume(), 42);
}

TEST(EndpointStats, ZeroInitialised) {
  EndpointStats stats;
  EXPECT_EQ(stats.data_flits_sent, 0u);
  EXPECT_EQ(stats.nacks_sent, 0u);
  EXPECT_EQ(stats.flits_delivered, 0u);
}

}  // namespace
}  // namespace rxl::link
