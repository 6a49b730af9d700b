// Test-only window into sim::EventQueue's private state: fast-forwards its
// FIFO order counter, which a run would need ~10^12 schedules to exhaust,
// and reads where its pending keys wait.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rxl/common/types.hpp"
#include "rxl/sim/event_queue.hpp"

namespace rxl::sim {

struct EventQueueProbe {
  static void set_next_order(EventQueue& queue, std::uint64_t order) {
    queue.next_order_ = order;
  }
  /// Keys in the heap, not counting the spent top of a running event.
  static std::size_t heap_entries(const EventQueue& queue) {
    return queue.size_ - static_cast<std::size_t>(queue.spent_top_);
  }
  /// Lanes opened so far.
  static std::size_t lanes(const EventQueue& queue) {
    return queue.lane_count_;
  }
  /// Keys waiting in the lane opened for `delay`; 0 if there is none.
  static std::size_t lane_keys(const EventQueue& queue, TimePs delay) {
    for (std::size_t lane = 0; lane < queue.lane_count_; ++lane)
      if (queue.lane_delays_[lane] == delay) return queue.lanes_[lane].size();
    return 0;
  }
  /// Posts that went to the heap: below their lane's tail, or finding no
  /// lane of their delay with the table full.
  static std::uint64_t heap_posts(const EventQueue& queue) {
    return queue.heap_posts_;
  }
};

}  // namespace rxl::sim
