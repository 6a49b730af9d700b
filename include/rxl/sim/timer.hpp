// First-class cancellable/reschedulable one-shot timer.
//
// Endpoint retry/ack/nack/credit deadlines are re-armed and cancelled far
// more often than they fire. A Timer stores its callback once at
// construction and keeps at most one live *carrier* entry in the event heap.
// Arming takes the deadline's (when, FIFO-order) key from the queue — the
// key a plain schedule_at would have pushed — but pushes nothing while the
// carrier is due no later than the new deadline. When the carrier pops
// before the deadline it re-pushes itself under the reserved key; cancel()
// only clears the armed flag, and the carrier then pops as a no-op. Only a
// re-arm to an earlier deadline pushes a new carrier; the one it replaces
// pops as a no-op. Live firings therefore keep their exact keys, and the
// heap holds one entry per timer instead of one per lapsed deadline.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "rxl/sim/event_queue.hpp"

namespace rxl::sim {

/// One-shot deadline bound to an EventQueue. Arming while armed reschedules
/// (the superseded deadline never fires). The Timer must outlive any queue
/// run that could pop one of its carrier entries.
class Timer {
 public:
  template <typename F>
  Timer(EventQueue& queue, F&& callback)
      : queue_(queue), callback_(std::forward<F>(callback)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms (or re-arms) the timer to fire at now() + delay.
  void arm(TimePs delay) { arm_at(queue_.now() + delay); }

  /// Arms (or re-arms) the timer to fire at an absolute timestamp. A past
  /// deadline asserts in debug builds and clamps to now() in release builds,
  /// as EventQueue::schedule_at does.
  void arm_at(TimePs when) {
    assert(when >= queue_.now() && "EventQueue: event scheduled in the past");
    armed_ = true;
    due_at_ = std::max(when, queue_.now());
    due_order_ = queue_.reserve_order();
    // The fresh order ranks after the carrier's, so only a strictly earlier
    // time needs a carrier of its own.
    if (due_at_ < carrier_at_) launch_carrier();
  }

  /// Disarms without firing. No-op when idle.
  void cancel() noexcept { armed_ = false; }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  /// Deadline of the last arm (clamped to its arm time); meaningful only
  /// while armed().
  [[nodiscard]] TimePs deadline() const noexcept { return due_at_; }

 private:
  struct Carrier {
    Timer* timer;
    std::uint64_t order;
    void operator()() const { timer->on_carrier(order); }
  };

  static_assert(std::is_trivially_copyable_v<Carrier> && sizeof(Carrier) == 16,
                "a carrier is a 16-byte {timer, order} record — re-arming "
                "must never allocate");

  void launch_carrier() {
    carrier_at_ = due_at_;
    carrier_order_ = due_order_;
    queue_.push_keyed(due_at_, due_order_, Carrier{this, due_order_});
  }

  void on_carrier(std::uint64_t order) {
    if (order != carrier_order_) return;  // replaced by an earlier re-arm
    carrier_at_ = kNoCarrier;
    if (!armed_) return;  // cancelled
    if (due_order_ != order) {
      launch_carrier();  // re-armed later: carry the deadline's own key
      return;
    }
    armed_ = false;  // cleared before the callback so it may re-arm
    callback_();
  }

  /// carrier_at_ while no live carrier is in the heap.
  static constexpr TimePs kNoCarrier = ~TimePs{0};

  EventQueue& queue_;
  InlineEvent callback_;
  TimePs due_at_ = 0;  ///< last armed deadline, clamped to its arm time
  std::uint64_t due_order_ = 0;
  TimePs carrier_at_ = kNoCarrier;
  std::uint64_t carrier_order_ = 0;
  bool armed_ = false;
};

}  // namespace rxl::sim
