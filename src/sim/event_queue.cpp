#include "rxl/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace rxl::sim {

// 4-ary implicit heap: children of i are 4i+1 .. 4i+4. Half the depth of a
// binary heap, so hot schedule/dispatch paths touch fewer cache lines; the
// wider min-of-children scan stays within one or two lines because Items
// are exactly 64 bytes.
namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void EventQueue::push_keyed(TimePs when, std::uint64_t order, Event event) {
  assert(when >= now_ && "EventQueue: event scheduled in the past");
  if (when < now_) when = now_;  // release builds: clamp, never time-travel
  // Sift a hole up from a new last slot, then write the item into it once.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(when, order, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  Item& slot = heap_[hole];
  slot.when = when;
  slot.order = order;
  slot.event = event;
}

void EventQueue::dispatch_earliest() {
  // The key is read field by field: a just-pushed item's key was written
  // that way, and a wider load of it would wait for the stores to retire.
  now_ = heap_.front().when;
  Event event = heap_.front().event;
  const std::size_t size = heap_.size() - 1;
  if (size > 0) {
    // Sift the last item's key down from the root.
    const Item& last = heap_.back();
    const TimePs when = last.when;
    const std::uint64_t order = last.order;
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first_child = hole * kArity + 1;
      if (first_child >= size) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + kArity, size);
      for (std::size_t child = first_child + 1; child < end; ++child) {
        if (earlier(heap_[child], heap_[best])) best = child;
      }
      if (earlier(when, order, heap_[best])) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    Item& slot = heap_[hole];
    slot.when = when;
    slot.order = order;
    slot.event = last.event;
  }
  heap_.pop_back();
  event();
}

std::size_t EventQueue::run(std::size_t limit) {
  std::size_t executed = 0;
  while (!heap_.empty() && executed < limit) {
    dispatch_earliest();
    ++executed;
  }
  return executed;
}

std::size_t EventQueue::run_until(TimePs until) {
  assert(until >= now_ && "EventQueue: run_until into the past");
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= until) {
    dispatch_earliest();
    ++executed;
  }
  if (until > now_) now_ = until;  // never rewind (mirrors push_keyed)
  return executed;
}

}  // namespace rxl::sim
