// FIFO of component-owned items, each due at a timestamp, that keeps only
// its head in the event heap.
//
// A channel's flits in flight and a switch's forwarding pipeline deliver
// strictly in order: every item is due no earlier than the one ahead of it.
// Scheduling an event per item would make the heap as deep as the number of
// items in flight. A ParkedFifo instead takes each item's (when, FIFO-order)
// key from the EventQueue when the item is parked — the key schedule_at
// would have pushed — and pushes only the head's key. When the head fires,
// its handler runs on the item in place, the slot is dropped, and the next
// item's key goes into the heap. Keys rise strictly along the FIFO, so
// every item fires exactly where its own event would have.
#pragma once

#include <cassert>
#include <cstdint>
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
      : queue_(queue), on_due_(std::move(on_due)) {}

  /// Heap entries hold this FIFO's address.
  ParkedFifo(const ParkedFifo&) = delete;
  ParkedFifo& operator=(const ParkedFifo&) = delete;

  void set_handler(Handler on_due) { on_due_ = std::move(on_due); }

  /// Appends an item due at `when`, no earlier than the last parked item,
  /// and returns its recycled slot for the caller to fill in place (every
  /// field must be assigned). Parking from inside the handler aborts.
  [[nodiscard]] T& park(TimePs when) {
    if (handling_) [[unlikely]] parked_while_handling();
    assert((parked_.empty() || when >= parked_.at(parked_.size() - 1).when) &&
           "ParkedFifo: items must fall due in FIFO order");
    const std::uint64_t order = queue_.reserve_order();
    Parked& slot = parked_.push_back_slot();
    slot.when = when;
    slot.order = order;
    if (parked_.size() == 1) push_head();
    return slot.item;
  }

 private:
  struct Parked {
    TimePs when;
    std::uint64_t order;
    T item;
  };

  /// Parking from inside the handler could grow the ring and move the slot
  /// being handled. That is checked in every build: without the check, a
  /// release build would go on to read freed memory.
  [[noreturn]] static void parked_while_handling() noexcept {
    std::fputs("ParkedFifo: parked into while handling its head\n", stderr);
    std::abort();
  }

  void push_head() {
    const Parked& head = parked_.front();
    queue_.push_keyed(head.when, head.order, [this] { fire_head(); });
  }

  void fire_head() {
    if (on_due_) {
      handling_ = true;
      on_due_(std::move(parked_.front().item));
      handling_ = false;
    }
    parked_.drop_front();
    if (!parked_.empty()) push_head();
  }

  EventQueue& queue_;
  Handler on_due_;
  RingQueue<Parked> parked_;
  bool handling_ = false;
};

}  // namespace rxl::sim
