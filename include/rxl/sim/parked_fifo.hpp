// FIFO of component-owned items, each due at a timestamp, whose keys wait
// in the event queue's delay lanes.
//
// A channel's flits in flight and a switch's forwarding pipeline deliver
// strictly in order: every item is due no earlier than the one ahead of it,
// and most are due a constant delay after they were parked (a channel's
// slot plus latency, a switch's pipeline latency). The item itself stays in
// the FIFO's ring, so the 256 B envelope never rides inside an event; at
// park time the FIFO posts one key for it, under the (when, FIFO-order) key
// schedule_at would have pushed, on the lane of the shortest delay the FIFO
// has parked at. Keys rise strictly along the FIFO, so its k-th dispatch is
// its k-th item's, and each fires exactly where its own event would have.
// When one fires, its handler runs on the front item in place, and the slot
// is dropped.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "rxl/common/ring_queue.hpp"
#include "rxl/common/types.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/sim/inline_delegate.hpp"

namespace rxl::sim {

template <typename T>
class ParkedFifo {
 public:
  /// Runs once per item when it falls due. The item is handed over as an
  /// rvalue: the handler may consume it, and the slot is dropped afterwards.
  using Handler = InlineDelegate<void(T&&)>;

  explicit ParkedFifo(EventQueue& queue, Handler on_due = {})
      : queue_(queue),
        on_due_(std::move(on_due)),
        producer_(queue.add_producer([this] { fire_front(); })) {}

  /// The queue's producer slot holds this FIFO's address.
  ParkedFifo(const ParkedFifo&) = delete;
  ParkedFifo& operator=(const ParkedFifo&) = delete;

  void set_handler(Handler on_due) { on_due_ = std::move(on_due); }

  /// Appends an item due at `when`, no earlier than the last parked item,
  /// and returns its recycled slot for the caller to fill in place (every
  /// field must be assigned). Parking from inside the handler aborts.
  [[nodiscard]] T& park(TimePs when) {
    if (handling_) [[unlikely]] reentered("parked into");
    assert(when >= last_due_ &&
           "ParkedFifo: items must fall due in FIFO order");
    last_due_ = when;
    if (when - queue_.now() < lane_delay_) lane_delay_ = when - queue_.now();
    queue_.post(producer_, when, lane_delay_);
    return parked_.push_back_slot();
  }

 private:
  /// Parking from inside the handler could grow the ring and move the slot
  /// being handled, and a nested dispatch that reaches this FIFO's next key
  /// would hand over the item being handled a second time. Both are checked
  /// in every build: without the check, a release build would go on to
  /// read freed or consumed memory.
  [[noreturn]] static void reentered(const char* how) noexcept {
    std::fprintf(stderr, "ParkedFifo: %s while handling its head\n", how);
    std::abort();
  }

  void fire_front() {
    if (handling_) [[unlikely]] reentered("fired");
    if (on_due_) {
      handling_ = true;
      on_due_(std::move(parked_.front()));
      handling_ = false;
    }
    parked_.drop_front();
  }

  EventQueue& queue_;
  Handler on_due_;
  EventQueue::Producer producer_;
  RingQueue<T> parked_;
  TimePs last_due_ = 0;
  /// Only a busy wire parks later than this, so it is the FIFO's lane.
  TimePs lane_delay_ = ~TimePs{0};
  bool handling_ = false;
};

}  // namespace rxl::sim
