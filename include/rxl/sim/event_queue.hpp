// Minimal discrete-event simulation kernel.
//
// Picosecond-resolution event heap with deterministic tie-breaking: events
// scheduled for the same timestamp run in scheduling order (FIFO), so a
// simulation is a pure function of its seeds.
//
// The kernel is built for throughput: callbacks are non-allocating
// InlineEvents (no std::function, no per-event heap traffic) and the heap
// is an implicit 4-ary min-heap over trivially copyable 64-byte Items —
// shallower than a binary heap and sifted with plain block copies.
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
#include <type_traits>
#include <utility>
#include <vector>

#include "rxl/common/types.hpp"
#include "rxl/sim/inline_event.hpp"

namespace rxl::sim {

class EventQueue {
 public:
  using Event = InlineEvent;

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
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `until`. Time advances to `until` even
  /// if the queue drains early; a horizon already in the past asserts in
  /// debug builds and leaves now() untouched in release builds (time never
  /// rewinds). Returns events executed.
  std::size_t run_until(TimePs until);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

 private:
  friend class Timer;
  template <typename T>
  friend class ParkedFifo;

  struct Item {
    TimePs when;
    std::uint64_t order;  ///< FIFO tie-break
    Event event;
  };
  static_assert(std::is_trivially_copyable_v<Item>);
  static_assert(sizeof(Item) == 64,
                "heap items are sized to one cache line: 8 B timestamp + "
                "8 B FIFO order + 48 B InlineEvent");

  /// Strict total order: (when, order) with order unique per item.
  static bool earlier(TimePs when, std::uint64_t order, const Item& b) noexcept {
    return when != b.when ? when < b.when : order < b.order;
  }
  static bool earlier(const Item& a, const Item& b) noexcept {
    return earlier(a.when, a.order, b);
  }

  /// Takes the FIFO tie-break rank an event scheduled right now would get,
  /// for a push that happens later under push_keyed.
  [[nodiscard]] std::uint64_t reserve_order() noexcept { return next_order_++; }

  /// Pushes `event` under a (when, order) key; `order` comes from
  /// reserve_order() and is pushed at most once. A past `when` asserts and
  /// clamps to now(), as schedule_at documents.
  void push_keyed(TimePs when, std::uint64_t order, Event event);
  /// Pops the earliest item, advances now() to it and runs it.
  void dispatch_earliest();

  TimePs now_ = 0;
  std::uint64_t next_order_ = 0;
  std::vector<Item> heap_;  ///< implicit 4-ary min-heap on (when, order)
};

}  // namespace rxl::sim
