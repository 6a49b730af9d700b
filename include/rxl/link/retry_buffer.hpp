// Go-back-N replay buffer: flit images awaiting acknowledgment (endpoints
// keep them unsealed, header and payload only; see sim::SealState), each
// with the stream identity (sim::StreamTag) a replay or a dead hop's drain
// re-sends whole. A source's payload is held by reference
// (StreamTag::payload_of), so its slot holds a header and 240 B that were
// never written (or an earlier flit's).
//
// The transmitter keeps every sent-but-unacked flit so a NACK (or an ack
// timeout) can replay the stream from any in-window sequence number. The
// buffer is the resource whose size bounds ACK coalescing (§7.2.2): deeper
// coalescing means acks arrive later, which means more flits held here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "rxl/common/ring_queue.hpp"
#include "rxl/flit/flit.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/sim/payload_fn.hpp"

namespace rxl::link {

class RetryBuffer {
 public:
  /// @param capacity maximum unacked flits (<= 512 so window order is
  ///                 unambiguous in the 10-bit space).
  explicit RetryBuffer(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool full() const noexcept { return size_ >= capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// A held flit: its stream identity (the VC is the one its first
  /// transmission was charged on), hop-local sequence number and image.
  struct Entry : sim::StreamTag {
    std::uint16_t seq = 0;
    alignas(8) flit::Flit flit;  // word-aligned for whole-image copies
  };

  /// Sequence number of the oldest unacked flit (if any).
  [[nodiscard]] std::optional<std::uint16_t> oldest_seq() const noexcept;

  /// Reserves the slot the next flit will occupy and returns its image, so
  /// the caller can write the payload and header in place. The
  /// slot stays invisible (to size, find, find_entry, for_each, holds_flow
  /// and clear's drain) until commit(); drop_reservation() gives it back.
  /// The buffer must not be full, and reserving again before the last
  /// reservation is committed or dropped aborts, in every build.
  [[nodiscard]] flit::Flit& reserve();

  /// Makes the reserved slot the newest entry, under `seq` (sequence
  /// numbers must be committed consecutively), holding `stream`, so a
  /// replay re-sends the flit's identity and its payload reference as
  /// they were.
  void commit(std::uint16_t seq, const sim::StreamTag& stream = {});

  /// Releases an uncommitted reservation (the source had nothing to send).
  void drop_reservation() noexcept { reserved_ = nullptr; }

  /// Releases all entries up to and including `acked_seq` (cumulative ACK
  /// semantics). Out-of-window acks are ignored (stale duplicates).
  /// Returns the number of entries released.
  std::size_t ack_up_to(std::uint16_t acked_seq);

  /// Looks up the stored flit for `seq`; nullptr if not held.
  [[nodiscard]] const flit::Flit* find(std::uint16_t seq) const;

  /// Entry lookup including metadata; nullptr if not held. O(1): the
  /// entries hold consecutive sequence numbers from the oldest.
  [[nodiscard]] const Entry* find_entry(std::uint16_t seq) const;

  /// Visits every held entry oldest -> newest: the dead-hop drain order.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (std::size_t i = 0; i < size_; ++i) visit(entry_at(i));
  }

  /// True when any held entry belongs to `flow_id` (the fabric's reroute
  /// quiesce probe: a hop still replaying a flow's flits is not drained).
  [[nodiscard]] bool holds_flow(std::uint16_t flow_id) const noexcept {
    for (std::size_t i = 0; i < size_; ++i)
      if (entry_at(i).flow_id == flow_id) return true;
    return false;
  }

  /// Releases everything without acking (dead-hop drain: the entries have
  /// been handed off to the HopDownEvent and will never be replayed here),
  /// and drops any reservation.
  void clear() noexcept;

 private:
  friend struct RetryBufferProbe;  ///< unit tests: fresh block count

  /// Entries live in blocks of three (840 B), so a reserve is one in-place
  /// fill. A block the window leaves (on ACK, clear() or destruction) goes
  /// back to its thread's pool (retry_buffer.cpp), and a reserve that needs
  /// a block takes one from there: only a thread's peak window allocates,
  /// and a steady window allocates nothing. A deque would allocate a node
  /// per 280 B entry.
  static constexpr std::size_t kBlockEntries = 3;
  struct Block {
    std::array<Entry, kBlockEntries> entries;
  };
  static_assert(sizeof(Entry) == 280);
  class Pool;
  /// Returns a block to its thread's pool instead of freeing it.
  struct ToPool {
    void operator()(Block* block) const noexcept;
  };
  using BlockPtr = std::unique_ptr<Block, ToPool>;

  /// A block from this thread's pool, or a fresh one when it is empty.
  [[nodiscard]] BlockPtr take_block();

  /// The `index`-th held entry, 0 = oldest.
  [[nodiscard]] const Entry& entry_at(std::size_t index) const noexcept {
    const std::size_t slot = head_ + index;
    return blocks_.at(slot / kBlockEntries)->entries[slot % kBlockEntries];
  }

  void pop_oldest() noexcept;

  [[noreturn]] static void misuse(const char* what) noexcept;

  std::size_t capacity_;
  /// Oldest block first. Bounded by capacity_ (<= 512): reserve() requires
  /// room, so at most capacity_ / 3 + 2 blocks are held.
  RingQueue<BlockPtr> blocks_;
  std::size_t head_ = 0;  ///< oldest entry's slot in the front block
  std::size_t size_ = 0;
  /// The reserved slot, one past the newest entry, or null (see
  /// reserve()). Blocks never move, and an ACK releases only blocks in front
  /// of it, so the pointer stays valid until commit, drop or clear().
  Entry* reserved_ = nullptr;
  /// Blocks this buffer allocated because its thread's pool was empty.
  std::uint64_t fresh_blocks_ = 0;
};

}  // namespace rxl::link
