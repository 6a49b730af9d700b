// Minimal discrete-event simulation kernel.
//
// Picosecond-resolution event heap with deterministic tie-breaking: events
// scheduled for the same timestamp run in scheduling order (FIFO), so a
// simulation is a pure function of its seeds.
//
// The kernel is built for throughput: callbacks are non-allocating
// InlineEvents (no std::function, no per-event heap traffic), each written
// once into a slot table that recycles slots through a free list. The heap
// itself is an implicit 4-ary min-heap of 16-byte keys: the timestamp in
// the high word, and the FIFO order packed above the callback's slot index
// in the low word, so one unsigned 128-bit compare orders two keys by
// (when, order). Sifts move keys only; a callback never moves once written.
//
// Sift-down takes the least of four children without a branch (128-bit
// compares picked by conditional moves) because the key array is padded
// with max-key sentinels past its last live entry: every live node has four
// readable children, and a sentinel never wins. Most callbacks schedule
// something (a Timer's carrier re-push, a ParkedFifo's next head, an
// endpoint's next kick), so the first push made during a dispatch
// overwrites the spent top and sifts down once instead of a pop plus a push.
//
// The heap holds one entry per producer, not one per pending occurrence:
// a Timer keeps a single carrier entry however often it is re-armed, and a
// ParkedFifo (a channel's flits in flight, a switch's forwarding pipeline)
// keeps only its head. Both take each occurrence's (when, FIFO-order) key
// at the moment a plain schedule would have pushed it, and push that key
// once the entry ahead of it has popped, so dispatch order is exactly that
// of one event per occurrence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rxl/common/types.hpp"
#include "rxl/sim/inline_event.hpp"

namespace rxl::sim {

class EventQueue {
 public:
  using Event = InlineEvent;

  /// Bit split of a key's low word. A run may take 2^40 - 1 FIFO orders
  /// (one per schedule, Timer arm or ParkedFifo park) and hold 2^24
  /// callbacks at once; going past either aborts with a message in every
  /// build rather than misorder.
  static constexpr unsigned kOrderBits = 40;
  static constexpr unsigned kSlotBits = 24;

  /// Current simulation time.
  [[nodiscard]] TimePs now() const noexcept { return now_; }

  /// Schedules `event` to run at now() + delay.
  template <typename F>
  void schedule(TimePs delay, F&& fn) {
    push_keyed(now_ + delay, next_order_++, Event(std::forward<F>(fn)));
  }

  /// Schedules `event` at an absolute timestamp. Scheduling in the past is
  /// a model bug: it asserts in debug builds and clamps to now() in release
  /// builds (the event then runs after everything already pending at now(),
  /// per FIFO order — never "before" the present).
  template <typename F>
  void schedule_at(TimePs when, F&& fn) {
    push_keyed(when, next_order_++, Event(std::forward<F>(fn)));
  }

  /// Runs events until the queue is empty or `limit` events have executed.
  /// Returns the number of events executed. Called from inside a callback,
  /// it first retires that callback's own spent entry.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `until`. Time advances to `until` even
  /// if the queue drains early; a horizon already in the past asserts in
  /// debug builds and leaves now() untouched in release builds (time never
  /// rewinds). Returns events executed.
  std::size_t run_until(TimePs until);

  /// Events still to run; the one running now is not counted.
  [[nodiscard]] std::size_t pending() const noexcept {
    return size_ - static_cast<std::size_t>(spent_top_);
  }
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }

  /// Deterministic kernel counters (no clock involved). `dispatched` counts
  /// callbacks run; `rekeyed_in_place` counts pushes that took over the
  /// spent top of the dispatch they were made in; `peak_pending` is the
  /// high-water mark of pending().
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_;
  }
  [[nodiscard]] std::uint64_t rekeyed_in_place() const noexcept {
    return rekeyed_in_place_;
  }
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return peak_pending_;
  }

 private:
  friend class Timer;
  template <typename T>
  friend class ParkedFifo;
  friend struct EventQueueProbe;  ///< unit tests: fast-forwards next_order_

  /// (when << 64) | (order << kSlotBits) | slot. Orders are unique, so the
  /// integer order of keys is the (when, order) dispatch order.
  using Key = unsigned __int128;
  static_assert(kOrderBits + kSlotBits == 64);

  /// Takes the FIFO tie-break rank an event scheduled right now would get,
  /// for a push that happens later under push_keyed.
  [[nodiscard]] std::uint64_t reserve_order() noexcept { return next_order_++; }

  /// Pushes `event` under a (when, order) key; `order` comes from
  /// reserve_order() and is pushed at most once. A past `when` asserts and
  /// clamps to now(), as schedule_at documents.
  void push_keyed(TimePs when, std::uint64_t order, Event event);
  /// Runs the earliest event and leaves its key spent at the top until the
  /// callback's first push takes it over or the callback returns.
  void dispatch_earliest();
  /// Pops a spent top that no push took over.
  void retire_spent_top();
  void sift_down(std::size_t hole, Key key) noexcept;
  void sift_up(std::size_t hole, Key key) noexcept;

  TimePs now_ = 0;
  std::uint64_t next_order_ = 0;
  /// Implicit 4-ary min-heap: heap_[0, size_) are live keys, the rest are
  /// sentinels, and heap_.size() > 4 * size_ so that every live node's
  /// four children are readable.
  std::vector<Key> heap_;
  std::size_t size_ = 0;
  /// Callbacks by slot index, and the indices of free slots.
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// While spent_top_ is set, heap_[0] is the running event's own key and
  /// spent_slot_ its slot.
  std::uint32_t spent_slot_ = 0;
  bool spent_top_ = false;
  std::uint64_t dispatched_ = 0;
  std::uint64_t rekeyed_in_place_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace rxl::sim
