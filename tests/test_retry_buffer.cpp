#include "rxl/link/retry_buffer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rxl::link {
namespace {

flit::Flit tagged_flit(std::uint8_t tag) {
  flit::Flit flit;
  flit.payload()[0] = tag;
  return flit;
}

TEST(RetryBuffer, RejectsBadCapacity) {
  EXPECT_THROW(RetryBuffer(0), std::invalid_argument);
  EXPECT_THROW(RetryBuffer(513), std::invalid_argument);
  EXPECT_NO_THROW(RetryBuffer(512));
}

TEST(RetryBuffer, PushFindAck) {
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 0; seq < 5; ++seq)
    EXPECT_TRUE(buffer.push(seq, tagged_flit(static_cast<std::uint8_t>(seq))));
  EXPECT_EQ(buffer.size(), 5u);
  EXPECT_EQ(buffer.oldest_seq(), 0);
  ASSERT_NE(buffer.find(3), nullptr);
  EXPECT_EQ(buffer.find(3)->payload()[0], 3);
  EXPECT_EQ(buffer.find(7), nullptr);

  EXPECT_EQ(buffer.ack_up_to(2), 3u);  // frees 0,1,2
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.oldest_seq(), 3);
  EXPECT_EQ(buffer.find(1), nullptr);
}

TEST(RetryBuffer, FullBlocksPush) {
  RetryBuffer buffer(2);
  EXPECT_TRUE(buffer.push(0, tagged_flit(0)));
  EXPECT_TRUE(buffer.push(1, tagged_flit(1)));
  EXPECT_TRUE(buffer.full());
  EXPECT_FALSE(buffer.push(2, tagged_flit(2)));
  buffer.ack_up_to(0);
  EXPECT_TRUE(buffer.push(2, tagged_flit(2)));
}

TEST(RetryBuffer, StaleAckIgnored) {
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 10; seq < 14; ++seq)
    buffer.push(seq, tagged_flit(static_cast<std::uint8_t>(seq)));
  // Ack far behind the window: nothing released.
  EXPECT_EQ(buffer.ack_up_to(700), 0u);
  EXPECT_EQ(buffer.size(), 4u);
}

TEST(RetryBuffer, WrapAroundSequence) {
  RetryBuffer buffer(8);
  for (std::uint16_t i = 0; i < 6; ++i) {
    const std::uint16_t seq = seq_add(1021, i);  // 1021,1022,1023,0,1,2
    EXPECT_TRUE(buffer.push(seq, tagged_flit(static_cast<std::uint8_t>(i))));
  }
  EXPECT_NE(buffer.find(1023), nullptr);
  EXPECT_NE(buffer.find(0), nullptr);
  EXPECT_EQ(buffer.ack_up_to(1023), 3u);  // frees 1021..1023
  EXPECT_EQ(buffer.oldest_seq(), 0);
  EXPECT_EQ(buffer.ack_up_to(2), 3u);
  EXPECT_TRUE(buffer.empty());
}

TEST(RetryBuffer, ForEachFromVisitsTail) {
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 0; seq < 6; ++seq)
    buffer.push(seq, tagged_flit(static_cast<std::uint8_t>(seq)),
                /*user_tag=*/seq * 100u);
  std::vector<std::uint16_t> visited;
  std::vector<std::uint64_t> tags;
  buffer.for_each_from(3, [&](const RetryBuffer::Entry& entry) {
    visited.push_back(entry.seq);
    tags.push_back(entry.user_tag);
  });
  EXPECT_EQ(visited, (std::vector<std::uint16_t>{3, 4, 5}));
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{300, 400, 500}));
}

TEST(RetryBuffer, IndexedLookupMatchesLinearScan) {
  // find_entry indexes by window distance from the oldest entry. Compare it
  // with a scan over every held entry for all 1024 sequence numbers, with
  // windows that straddle the 1023 -> 0 wrap, at capacities 1 and 512, and
  // again after cumulative ACKs move the front.
  for (const std::size_t capacity : {1u, 8u, 512u}) {
    for (const std::uint16_t start : {0, 1020, 1023, 700}) {
      SCOPED_TRACE(testing::Message() << "window " << start << "+" << capacity);
      RetryBuffer buffer(capacity);
      for (std::size_t i = 0; i < capacity; ++i) {
        const auto seq = seq_add(start, static_cast<std::uint16_t>(i));
        ASSERT_TRUE(buffer.push(seq, tagged_flit(0), /*user_tag=*/i));
      }
      const auto step = static_cast<std::uint16_t>(capacity / 3);
      while (!buffer.empty()) {
        for (std::uint16_t seq = 0; seq < kSeqModulus; ++seq) {
          const RetryBuffer::Entry* scanned = nullptr;
          buffer.for_each([&](const RetryBuffer::Entry& entry) {
            if (entry.seq == seq) scanned = &entry;
          });
          ASSERT_EQ(buffer.find_entry(seq), scanned) << "seq " << seq;
        }
        buffer.ack_up_to(seq_add(*buffer.oldest_seq(), step));
      }
    }
  }
  // Both window ends and one past each, across the wrap.
  RetryBuffer buffer(8);
  for (std::uint16_t i = 0; i < 8; ++i)
    buffer.push(seq_add(1020, i), tagged_flit(static_cast<std::uint8_t>(i)));
  ASSERT_NE(buffer.find_entry(1020), nullptr);
  EXPECT_EQ(buffer.find_entry(1020)->flit.payload()[0], 0);
  ASSERT_NE(buffer.find_entry(3), nullptr);
  EXPECT_EQ(buffer.find_entry(3)->flit.payload()[0], 7);
  EXPECT_EQ(buffer.find_entry(1019), nullptr);
  EXPECT_EQ(buffer.find_entry(4), nullptr);
  // Bits above the 10-bit space are ignored, as the stored seq is masked.
  EXPECT_EQ(buffer.find_entry(3 + kSeqModulus), buffer.find_entry(3));
}

TEST(RetryBuffer, FindEntryExposesUserTag) {
  RetryBuffer buffer(4);
  buffer.push(0, tagged_flit(9), 1234);
  const auto* entry = buffer.find_entry(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->user_tag, 1234u);
  EXPECT_EQ(entry->flit.payload()[0], 9);
}

}  // namespace
}  // namespace rxl::link
