#include "rxl/link/retry_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <vector>

#include "rxl/common/rng.hpp"
#include "retry_buffer_probe.hpp"

namespace rxl::link {
namespace {

flit::Flit tagged_flit(std::uint8_t tag) {
  flit::Flit flit;
  flit.payload()[0] = tag;
  return flit;
}

/// Stores a copy of `flit` under `seq` through reserve and commit, as the
/// endpoint does; false (and nothing stored) when the buffer is full.
bool store(RetryBuffer& buffer, std::uint16_t seq, const flit::Flit& flit,
           std::uint64_t truth_index = 0, std::uint16_t flow_id = 0,
           std::uint8_t vc = 0) {
  if (buffer.full()) return false;
  buffer.reserve() = flit;
  buffer.commit(seq, sim::StreamTag{truth_index, nullptr, flow_id, vc});
  return true;
}

TEST(RetryBuffer, RejectsBadCapacity) {
  EXPECT_THROW(RetryBuffer(0), std::invalid_argument);
  EXPECT_THROW(RetryBuffer(513), std::invalid_argument);
  EXPECT_NO_THROW(RetryBuffer(512));
}

TEST(RetryBuffer, PushFindAck) {
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 0; seq < 5; ++seq)
    EXPECT_TRUE(
        store(buffer, seq, tagged_flit(static_cast<std::uint8_t>(seq))));
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
  EXPECT_TRUE(store(buffer, 0, tagged_flit(0)));
  EXPECT_TRUE(store(buffer, 1, tagged_flit(1)));
  EXPECT_TRUE(buffer.full());
  EXPECT_FALSE(store(buffer, 2, tagged_flit(2)));
  buffer.ack_up_to(0);
  EXPECT_TRUE(store(buffer, 2, tagged_flit(2)));
}

TEST(RetryBuffer, StaleAckIgnored) {
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 10; seq < 14; ++seq)
    store(buffer, seq, tagged_flit(static_cast<std::uint8_t>(seq)));
  // Ack far behind the window: nothing released.
  EXPECT_EQ(buffer.ack_up_to(700), 0u);
  EXPECT_EQ(buffer.size(), 4u);
}

TEST(RetryBuffer, WrapAroundSequence) {
  RetryBuffer buffer(8);
  for (std::uint16_t i = 0; i < 6; ++i) {
    const std::uint16_t seq = seq_add(1021, i);  // 1021,1022,1023,0,1,2
    EXPECT_TRUE(store(buffer, seq, tagged_flit(static_cast<std::uint8_t>(i))));
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
    store(buffer, seq, tagged_flit(static_cast<std::uint8_t>(seq)),
          /*truth_index=*/seq * 100u);
  std::vector<std::uint16_t> visited;
  std::vector<std::uint64_t> tags;
  buffer.for_each([&](const RetryBuffer::Entry& entry) {
    if (seq_distance(3, entry.seq) < 0) return;
    visited.push_back(entry.seq);
    tags.push_back(entry.truth_index);
  });
  EXPECT_EQ(visited, (std::vector<std::uint16_t>{3, 4, 5}));
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{300, 400, 500}));
}

/// Checks every read path of `buffer` against `model`, the held entries
/// oldest -> newest: lookup of all 1024 sequence numbers, the dead-hop
/// drain order (for_each), the go-back-N replay set from several resume
/// points (for_each, from the resume point on) and the reroute probe
/// (holds_flow).
void expect_matches_model(const RetryBuffer& buffer,
                          const std::deque<RetryBuffer::Entry>& model) {
  ASSERT_EQ(buffer.size(), model.size());
  ASSERT_EQ(buffer.empty(), model.empty());
  if (!model.empty()) {
    ASSERT_EQ(buffer.oldest_seq(), model.front().seq);
  }
  std::vector<std::uint64_t> drained;
  buffer.for_each([&](const RetryBuffer::Entry& entry) {
    drained.push_back(entry.truth_index);
  });
  std::vector<std::uint64_t> expected;
  for (const RetryBuffer::Entry& entry : model)
    expected.push_back(entry.truth_index);
  ASSERT_EQ(drained, expected);
  for (std::uint16_t seq = 0; seq < kSeqModulus; ++seq) {
    const RetryBuffer::Entry* scanned = nullptr;
    buffer.for_each([&](const RetryBuffer::Entry& entry) {
      if (entry.seq == seq) scanned = &entry;
    });
    const RetryBuffer::Entry* found = buffer.find_entry(seq);
    ASSERT_EQ(found, scanned) << "seq " << seq;
    const auto held = std::find_if(model.begin(), model.end(),
                                   [&](const auto& e) { return e.seq == seq; });
    ASSERT_EQ(found != nullptr, held != model.end()) << "seq " << seq;
    if (found != nullptr) {
      EXPECT_EQ(found->truth_index, held->truth_index);
      EXPECT_EQ(found->flow_id, held->flow_id);
      EXPECT_EQ(found->vc, held->vc);
      EXPECT_EQ(found->flit, held->flit);
    }
  }
  for (const std::uint16_t from :
       {std::uint16_t{0}, std::uint16_t{511}, std::uint16_t{1023},
        model.empty() ? std::uint16_t{5} : model.front().seq,
        model.empty() ? std::uint16_t{9} : seq_add(model.back().seq, 1000)}) {
    std::vector<std::uint64_t> replayed;
    buffer.for_each([&](const RetryBuffer::Entry& entry) {
      if (seq_distance(from, entry.seq) >= 0)
        replayed.push_back(entry.truth_index);
    });
    std::vector<std::uint64_t> want;
    for (const RetryBuffer::Entry& entry : model)
      if (seq_distance(from, entry.seq) >= 0) want.push_back(entry.truth_index);
    ASSERT_EQ(replayed, want) << "from " << from;
  }
  for (std::uint16_t flow = 0; flow < 6; ++flow) {
    const bool held =
        std::any_of(model.begin(), model.end(),
                    [&](const auto& e) { return e.flow_id == flow; });
    ASSERT_EQ(buffer.holds_flow(flow), held) << "flow " << flow;
  }
}

TEST(RetryBuffer, IndexedLookupMatchesLinearScan) {
  // find_entry indexes by window distance from the oldest entry, and the
  // entries live in fixed-size storage blocks. Compare every read path with
  // a deque model as the window moves across block boundaries and the
  // 1023 -> 0 wrap, at capacities from 1 to 512: first a full window
  // released in steps, then seeded pushes and cumulative ACKs with a
  // clear() in mid-window followed by a refill.
  for (const std::size_t capacity : {1u, 2u, 3u, 4u, 7u, 8u, 512u}) {
    for (const std::uint16_t start : {0, 1020, 1023, 700}) {
      SCOPED_TRACE(testing::Message() << "window " << start << "+" << capacity);
      Xoshiro256 rng(capacity * 1024 + start);
      RetryBuffer buffer(capacity);
      std::deque<RetryBuffer::Entry> model;
      std::uint16_t next = start;
      std::uint64_t tag = 0;
      auto push = [&] {
        RetryBuffer::Entry entry{};
        entry.seq = next;
        entry.flow_id = static_cast<std::uint16_t>(rng.bounded(6));
        entry.vc = static_cast<std::uint8_t>(rng.bounded(4));
        entry.truth_index = tag++;
        entry.flit = tagged_flit(static_cast<std::uint8_t>(entry.truth_index));
        const bool room = model.size() < capacity;
        ASSERT_EQ(store(buffer, next, entry.flit, entry.truth_index,
                        entry.flow_id, entry.vc),
                  room);
        if (!room) return;
        model.push_back(entry);
        next = seq_next(next);
      };
      auto release = [&](std::size_t released) {
        const std::uint16_t acked =
            seq_add(model.front().seq,
                    static_cast<std::uint16_t>(released + kSeqMask));  // -1
        ASSERT_EQ(buffer.ack_up_to(acked), released);
        model.erase(model.begin(),
                    model.begin() + static_cast<std::ptrdiff_t>(released));
      };
      // Fill to capacity (one more push is refused), then release the
      // front capacity / 3 + 1 entries at a time.
      for (std::size_t i = 0; i <= capacity; ++i) push();
      ASSERT_EQ(model.size(), capacity);
      while (!model.empty()) {
        expect_matches_model(buffer, model);
        if (HasFatalFailure()) return;
        release(std::min(capacity / 3 + 1, model.size()));
        if (HasFatalFailure()) return;
      }
      for (int round = 0; round < 24; ++round) {
        const std::size_t pushes = rng.bounded(capacity + 1);
        for (std::size_t i = 0; i < pushes; ++i) push();
        expect_matches_model(buffer, model);
        if (HasFatalFailure()) return;
        if (round == 12) {
          buffer.clear();  // dead-hop drain in mid-window, then refill
          model.clear();
          next = seq_add(next, static_cast<std::uint16_t>(rng.bounded(1024)));
        } else if (!model.empty()) {
          release(static_cast<std::size_t>(rng.bounded(model.size() + 1)));
        }
        expect_matches_model(buffer, model);
        if (HasFatalFailure()) return;
      }
    }
  }
  // Both window ends and one past each, across the wrap.
  RetryBuffer buffer(8);
  for (std::uint16_t i = 0; i < 8; ++i)
    store(buffer, seq_add(1020, i), tagged_flit(static_cast<std::uint8_t>(i)));
  ASSERT_NE(buffer.find_entry(1020), nullptr);
  EXPECT_EQ(buffer.find_entry(1020)->flit.payload()[0], 0);
  ASSERT_NE(buffer.find_entry(3), nullptr);
  EXPECT_EQ(buffer.find_entry(3)->flit.payload()[0], 7);
  EXPECT_EQ(buffer.find_entry(1019), nullptr);
  EXPECT_EQ(buffer.find_entry(4), nullptr);
  // Bits above the 10-bit space are ignored, as the stored seq is masked.
  EXPECT_EQ(buffer.find_entry(3 + kSeqModulus), buffer.find_entry(3));
}

TEST(RetryBuffer, UncommittedReservationIsInvisible) {
  // A source with nothing to send, or a credit- or ECN-blocked relay pull,
  // leaves its reserved slot uncommitted. Whatever the caller wrote into
  // it, size, find, find_entry, for_each, holds_flow and the
  // dead-hop drain see exactly the committed entries; a dropped slot is
  // handed out again, and a committed one is an ordinary entry.
  for (const std::size_t capacity : {1u, 2u, 3u, 4u, 8u, 512u}) {
    for (const std::uint16_t start : {0, 1022}) {
      SCOPED_TRACE(testing::Message() << "window " << start << "+" << capacity);
      Xoshiro256 rng(capacity * 7 + start);
      RetryBuffer buffer(capacity);
      std::deque<RetryBuffer::Entry> model;
      std::uint16_t next = start;
      std::uint64_t tag = 0;
      for (int round = 0; round < 48; ++round) {
        if (!buffer.full()) {
          flit::Flit& slot = buffer.reserve();
          slot.bytes()[0] = 0xEE;
          std::fill(slot.payload().begin(), slot.payload().end(),
                    std::uint8_t{0xEE});
          expect_matches_model(buffer, model);
          if (HasFatalFailure()) return;
          if (rng.bounded(3) == 0) {
            buffer.drop_reservation();
            expect_matches_model(buffer, model);
            if (HasFatalFailure()) return;
            // The dropped slot comes back on the next reservation.
            ASSERT_EQ(&buffer.reserve(), &slot);
          }
          RetryBuffer::Entry entry{};
          entry.seq = next;
          entry.flow_id = static_cast<std::uint16_t>(rng.bounded(6));
          entry.vc = static_cast<std::uint8_t>(rng.bounded(4));
          entry.truth_index = tag++;
          slot.payload()[0] = static_cast<std::uint8_t>(entry.truth_index);
          entry.flit = slot;
          buffer.commit(next, entry);
          ASSERT_EQ(&buffer.find_entry(next)->flit, &slot);
          model.push_back(entry);
          next = seq_next(next);
          expect_matches_model(buffer, model);
          if (HasFatalFailure()) return;
        }
        if (round % 16 == 15 && !buffer.full()) {
          // Dead-hop drain with a reservation outstanding: the drain holds
          // the committed entries only, and the reservation goes with it.
          (void)buffer.reserve();
          std::vector<std::uint64_t> drained;
          buffer.for_each([&](const RetryBuffer::Entry& entry) {
            drained.push_back(entry.truth_index);
          });
          ASSERT_EQ(drained.size(), model.size());
          buffer.clear();
          model.clear();
          expect_matches_model(buffer, model);
          if (HasFatalFailure()) return;
        } else if (!model.empty() && rng.bounded(2) == 0) {
          const auto released =
              static_cast<std::size_t>(rng.bounded(model.size() + 1));
          if (released > 0) {
            const std::uint16_t acked = seq_add(
                model.front().seq,
                static_cast<std::uint16_t>(released + kSeqMask));  // -1
            ASSERT_EQ(buffer.ack_up_to(acked), released);
            model.erase(model.begin(),
                        model.begin() + static_cast<std::ptrdiff_t>(released));
          }
        }
      }
    }
  }
}

TEST(RetryBuffer, SteadyWindowTakesNoFreshBlock) {
  // A block the window leaves goes back to the thread's pool and the next
  // block the window needs comes from there, so once the window has grown
  // to its size, sliding it allocates nothing.
  constexpr std::uint16_t kWindow = 30;
  RetryBuffer buffer(64);
  std::uint16_t next = 0;
  for (; next < kWindow; ++next) store(buffer, next, tagged_flit(1));
  const auto cycle = [&] {
    store(buffer, next, tagged_flit(2), next);
    next = seq_next(next);
    ASSERT_EQ(buffer.ack_up_to(*buffer.oldest_seq()), 1u);
  };
  for (int i = 0; i < 6; ++i) cycle();  // two blocks' worth
  const std::uint64_t warm = RetryBufferProbe::fresh_blocks(buffer);
  for (int i = 0; i < 10'000; ++i) {
    cycle();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(buffer.size(), kWindow);
  EXPECT_EQ(RetryBufferProbe::fresh_blocks(buffer), warm);
}

TEST(RetryBuffer, BuffersTradingPooledBlocksMatchTheModel) {
  // Two buffers on one thread share its pool: each grows into blocks the
  // other released, and each must still read back exactly its own
  // entries. A buffer that grows just after the other drained takes only
  // pooled blocks.
  struct Side {
    Side(std::uint16_t first_seq, std::uint64_t first_tag)
        : next(first_seq), tag(first_tag) {}
    RetryBuffer buffer{64};
    std::deque<RetryBuffer::Entry> model;
    std::uint16_t next;
    std::uint64_t tag;
  };
  std::array<Side, 2> sides{Side(0, 0), Side(700, 1'000'000)};
  Xoshiro256 rng(42);
  const auto grow = [&](Side& side, std::size_t pushes) {
    for (std::size_t i = 0; i < pushes && !side.buffer.full(); ++i) {
      RetryBuffer::Entry entry{};
      entry.seq = side.next;
      entry.flow_id = static_cast<std::uint16_t>(rng.bounded(6));
      entry.vc = static_cast<std::uint8_t>(rng.bounded(4));
      entry.truth_index = side.tag++;
      entry.flit = tagged_flit(static_cast<std::uint8_t>(rng.bounded(256)));
      ASSERT_TRUE(store(side.buffer, side.next, entry.flit, entry.truth_index,
                        entry.flow_id, entry.vc));
      side.model.push_back(entry);
      side.next = seq_next(side.next);
    }
  };
  const auto drain = [&](Side& side, std::size_t released) {
    released = std::min(released, side.model.size());
    if (released == 0) return;
    const std::uint16_t acked = seq_add(
        side.model.front().seq,
        static_cast<std::uint16_t>(released + kSeqMask));  // -1
    ASSERT_EQ(side.buffer.ack_up_to(acked), released);
    side.model.erase(side.model.begin(),
                     side.model.begin() + static_cast<std::ptrdiff_t>(released));
  };
  for (int round = 0; round < 64; ++round) {
    Side& growing = sides[round % 2];
    Side& draining = sides[1 - round % 2];
    grow(growing, rng.bounded(40));
    if (HasFatalFailure()) return;
    if (round % 16 == 7) {
      draining.buffer.clear();
      draining.model.clear();
    } else {
      drain(draining, rng.bounded(40));
      if (HasFatalFailure()) return;
    }
    for (const Side& side : sides) {
      expect_matches_model(side.buffer, side.model);
      if (HasFatalFailure()) return;
    }
  }
  // With both empty, the first grows by 30 entries and drains them; the
  // second then grows by 30 from empty and takes only pooled blocks.
  drain(sides[0], sides[0].model.size());
  sides[1].buffer.clear();
  sides[1].model.clear();
  grow(sides[0], 30);
  drain(sides[0], 30);
  const std::uint64_t before = RetryBufferProbe::fresh_blocks(sides[1].buffer);
  grow(sides[1], 30);
  EXPECT_EQ(RetryBufferProbe::fresh_blocks(sides[1].buffer), before);
  for (const Side& side : sides) expect_matches_model(side.buffer, side.model);
}

TEST(RetryBufferDeathTest, StaleEntryInAPooledBlockFaultsUnderAsan) {
  // A block the window left sits poisoned in its thread's pool, so a stale
  // Entry* into it faults under ASan instead of reading whatever a later
  // reserve wrote there.
#if defined(__SANITIZE_ADDRESS__)
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 0; seq < 3; ++seq)
    store(buffer, seq, tagged_flit(static_cast<std::uint8_t>(seq)), seq);
  const RetryBuffer::Entry* stale = buffer.find_entry(0);
  ASSERT_NE(stale, nullptr);
  ASSERT_EQ(buffer.ack_up_to(2), 3u);  // the whole block leaves the window
  EXPECT_DEATH(
      {
        const volatile std::uint64_t tag = stale->truth_index;
        static_cast<void>(tag);
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "pooled blocks are poisoned only under AddressSanitizer";
#endif
}

TEST(RetryBufferDeathTest, BufferOutlivingItsThreadsPoolFreesItsBlocks) {
  // A buffer in static storage is destroyed after the main thread's
  // thread-locals, its pool among them. It must free its blocks, not push
  // them into the destroyed pool: ASan would report the use after free,
  // and LeakSanitizer a block left in neither.
  EXPECT_EXIT(
      {
        static RetryBuffer buffer(8);
        for (std::uint16_t seq = 0; seq < 5; ++seq)
          store(buffer, seq, tagged_flit(1));
        std::exit(0);
      },
      testing::ExitedWithCode(0), "");
}

TEST(RetryBufferDeathTest, ReservingTwiceAbortsInEveryBuild) {
  // What a nested send on the same endpoint, from inside its own source
  // pull, would do. Checked in release builds too: a second reservation
  // would hand out the slot the first caller is still writing.
  RetryBuffer buffer(4);
  (void)buffer.reserve();
  EXPECT_DEATH((void)buffer.reserve(), "reserved again before the reservation");
}

TEST(RetryBufferDeathTest, CommitWithoutReservationAborts) {
  RetryBuffer buffer(4);
  (void)buffer.reserve();
  buffer.drop_reservation();
  EXPECT_DEATH(buffer.commit(0), "commit without a reservation");
}

TEST(RetryBuffer, FindEntryExposesUserTag) {
  RetryBuffer buffer(4);
  store(buffer, 0, tagged_flit(9), 1234);
  const auto* entry = buffer.find_entry(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->truth_index, 1234u);
  EXPECT_EQ(entry->flit.payload()[0], 9);
}

}  // namespace
}  // namespace rxl::link
