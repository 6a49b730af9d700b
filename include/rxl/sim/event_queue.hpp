// Minimal discrete-event simulation kernel.
//
// Picosecond-resolution event queue with deterministic tie-breaking: events
// scheduled for the same timestamp run in scheduling order (FIFO), so a
// simulation is a pure function of its seeds. Every pending event is a
// 16-byte key: the timestamp in the high word, and the FIFO order packed
// above the callback's slot index in the low word, so one unsigned 128-bit
// compare orders two keys by (when, order). Callbacks are non-allocating
// InlineEvents in a slot table; a key never carries one.
//
// Keys wait in one of two places. Most of a fabric's events fall at a
// constant delay from the moment they are posted: a channel's flit lands
// slot + latency after it was sent, a switch forwards a fixed pipeline
// latency after ingress, and a busy endpoint sends again one slot later.
// Such producers register their callback once (add_producer), in a slot
// that is never freed, and post keys into a delay lane: a RingQueue of keys
// for one delay. Time never runs backwards and orders only grow, so keys
// posted at one delay arrive sorted and a post is a ring append. Everything
// else (Timer carriers, arrival wake-ups, plain schedule calls) goes into
// an implicit 4-ary min-heap, which therefore holds the timers rather than
// one entry per channel, switch and endpoint. Dispatch runs the least of
// the lane heads and the heap top, so the order is exactly that of one
// heap entry per occurrence.
//
// Sift-down takes the least of four children without a branch (128-bit
// compares picked by conditional moves) because the key array is padded
// with max-key sentinels past its last live entry: every live node has four
// readable children, and a sentinel never wins. A heap callback usually
// schedules something (a Timer's carrier re-push), so the first push made
// during a heap dispatch overwrites the spent top and sifts down once
// instead of a pop plus a push.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rxl/common/ring_queue.hpp"
#include "rxl/common/types.hpp"
#include "rxl/sim/inline_event.hpp"

namespace rxl::sim {

class EventQueue {
 public:
  using Event = InlineEvent;

  /// Bit split of a key's low word. A run may take 2^40 - 1 FIFO orders
  /// (one per schedule, post or Timer arm) and hold 2^24 callbacks at once
  /// (pending heap events plus registered producers); going past either
  /// aborts with a message in every build rather than misorder.
  static constexpr unsigned kOrderBits = 40;
  static constexpr unsigned kSlotBits = 24;
  /// Delay lanes a queue creates at most, on first use; a post whose delay
  /// finds no lane goes to the heap.
  static constexpr std::size_t kMaxLanes = 8;

  /// A callback registered with add_producer.
  struct Producer {
    std::uint32_t slot = 0;
  };

  /// Current simulation time.
  [[nodiscard]] TimePs now() const noexcept { return now_; }

  /// Schedules `event` to run at now() + delay.
  template <typename F>
  void schedule(TimePs delay, F&& fn) {
    push_keyed(now_ + delay, reserve_order(), Event(std::forward<F>(fn)));
  }

  /// Schedules `event` at an absolute timestamp. Scheduling in the past is
  /// a model bug: it asserts in debug builds and clamps to now() in release
  /// builds (the event then runs after everything already pending at now(),
  /// per FIFO order — never "before" the present).
  template <typename F>
  void schedule_at(TimePs when, F&& fn) {
    push_keyed(when, reserve_order(), Event(std::forward<F>(fn)));
  }

  /// Registers `fn` for a component that posts itself over and over (a
  /// FIFO's next item, an endpoint's next send). It takes a slot that is
  /// never freed, and no FIFO order. The component must outlive any run
  /// that could dispatch one of its posts.
  template <typename F>
  [[nodiscard]] Producer add_producer(F&& fn) {
    return Producer{claim_slot(Event(std::forward<F>(fn)))};
  }

  /// Runs `producer` at `when`, ordered exactly as a schedule_at(when) made
  /// now would be. `delay` is the producer's constant delay and names its
  /// lane. A key at now() + delay is above every key posted on that lane
  /// before, so it is appended; a later one (a busy wire) is appended while
  /// it stays above the lane's tail. A key below its lane's tail, or one
  /// whose delay finds every lane taken by other delays, goes to the heap.
  void post(Producer producer, TimePs when, TimePs delay) {
    assert(when >= now_ && "EventQueue: event scheduled in the past");
    if (when < now_) [[unlikely]] when = now_;  // as schedule_at clamps
    const Key key = make_key(when, reserve_order(), producer.slot);
    for (std::size_t lane = 0; lane < lane_count_; ++lane) {
      if (lane_delays_[lane] != delay) continue;
      if (!(lane_tails_[lane] < key)) break;
      append(lane, key);
      return;
    }
    post_slow(key, delay);
  }

  /// Runs events until the queue is empty or `limit` events have executed.
  /// Returns the number of events executed. Called from inside a callback,
  /// it first retires that callback's own spent heap entry.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `until`. Time advances to `until` even
  /// if the queue drains early; a horizon already in the past asserts in
  /// debug builds and leaves now() untouched in release builds (time never
  /// rewinds). Returns events executed.
  std::size_t run_until(TimePs until);

  /// Events still to run, in the heap and the lanes; the one running now is
  /// not counted.
  [[nodiscard]] std::size_t pending() const noexcept {
    return size_ - static_cast<std::size_t>(spent_top_) + lane_keys_;
  }
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }

  /// Deterministic kernel counters (no clock involved). `dispatched` counts
  /// callbacks run; `rekeyed_in_place` counts heap pushes that took over the
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
  friend struct EventQueueProbe;  ///< unit tests: orders, lanes, heap size

  /// (when << 64) | (order << kSlotBits) | slot. Orders are unique, so the
  /// integer order of keys is the (when, order) dispatch order.
  using Key = unsigned __int128;
  static_assert(kOrderBits + kSlotBits == 64);

  static Key make_key(TimePs when, std::uint64_t order,
                      std::uint32_t slot) noexcept {
    return static_cast<Key>(when) << 64 |
           static_cast<Key>(order << kSlotBits | slot);
  }

  /// Takes the FIFO tie-break rank of an event scheduled, posted or armed
  /// right now (a Timer pushes under it later). A run that exhausts the
  /// order field aborts.
  [[nodiscard]] std::uint64_t reserve_order() {
    if (next_order_ >= kOrderLimit) [[unlikely]] overflow("order");
    return next_order_++;
  }

  /// Writes `event` into a free or new slot and returns its index.
  std::uint32_t claim_slot(const Event& event) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = event;
      return slot;
    }
    if (slots_.size() >> kSlotBits != 0) [[unlikely]] overflow("slot");
    slots_.push_back(event);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  /// Appends `key` to lane `lane`, whose tail it is above.
  void append(std::size_t lane, Key key) {
    lanes_[lane].push_back(key);
    if (lanes_[lane].size() == 1) {
      lane_heads_[lane] = key;
      if (key < lane_heads_[least_lane_]) least_lane_ = lane;
    }
    lane_tails_[lane] = key;
    ++lane_keys_;
    if (pending() > peak_pending_) peak_pending_ = pending();
  }
  /// A post that found no lane of its delay it could append to: opens one
  /// if the table has room, and otherwise pushes the key, with a copy of
  /// the producer's callback, into the heap.
  void post_slow(Key key, TimePs delay);

  /// Pushes `event` under a (when, order) key; `order` comes from
  /// reserve_order() and is pushed at most once. A past `when` asserts and
  /// clamps to now(), as schedule_at documents.
  void push_keyed(TimePs when, std::uint64_t order, Event event);
  /// Runs the earliest pending event, if it is due by `until`; returns
  /// whether it ran one.
  bool dispatch_next(TimePs until);
  /// Pops a spent top that no push took over.
  void retire_spent_top();
  void sift_down(std::size_t hole, Key key) noexcept;
  void sift_up(std::size_t hole, Key key) noexcept;
  [[noreturn]] static void overflow(const char* field) noexcept;

  /// Orders run up to one short of the field, so no live key is all ones.
  static constexpr std::uint64_t kOrderLimit =
      (std::uint64_t{1} << kOrderBits) - 1;

  TimePs now_ = 0;
  std::uint64_t next_order_ = 0;
  /// Implicit 4-ary min-heap: heap_[0, size_) are live keys, the rest are
  /// sentinels, and heap_.size() > 4 * size_ so that every live node's
  /// four children are readable.
  std::vector<Key> heap_;
  std::size_t size_ = 0;
  /// Callbacks by slot index, and the indices of free slots. A producer's
  /// slot is never freed.
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// While spent_top_ is set, heap_[0] is the running event's own key and
  /// spent_slot_ its slot.
  std::uint32_t spent_slot_ = 0;
  bool spent_top_ = false;
  /// Delay lanes [0, lane_count_): the delay each was opened for, its keys
  /// in dispatch order, its head (all ones while empty, so it never wins a
  /// dispatch) and its last key; lane_keys_ is their total size, and
  /// least_lane_ the lane with the least head, so that a heap dispatch
  /// compares one lane head.
  static constexpr std::array<Key, kMaxLanes> kNoHeads = [] {
    std::array<Key, kMaxLanes> heads{};
    heads.fill(~Key{0});
    return heads;
  }();
  std::size_t lane_count_ = 0;
  std::array<TimePs, kMaxLanes> lane_delays_{};
  std::array<RingQueue<Key>, kMaxLanes> lanes_;
  std::array<Key, kMaxLanes> lane_heads_ = kNoHeads;
  std::array<Key, kMaxLanes> lane_tails_{};
  std::size_t least_lane_ = 0;
  std::size_t lane_keys_ = 0;
  /// Posts that went to the heap (read by the unit tests' probe).
  std::uint64_t heap_posts_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t rekeyed_in_place_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace rxl::sim
