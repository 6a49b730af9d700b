#include "rxl/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace rxl::sim {

// 4-ary implicit heap: children of i are 4i+1 .. 4i+4. Half the depth of a
// binary heap, and a node's four 16-byte child keys are 64 contiguous bytes.
namespace {

constexpr std::size_t kArity = 4;
constexpr std::uint64_t kSlotMask =
    (std::uint64_t{1} << EventQueue::kSlotBits) - 1;
/// Orders run up to one short of the field, so no live key is all ones.
constexpr std::uint64_t kOrderLimit =
    (std::uint64_t{1} << EventQueue::kOrderBits) - 1;

/// Fills the heap past its last live key; above every live key.
constexpr unsigned __int128 kSentinel = ~static_cast<unsigned __int128>(0);

[[noreturn]] void overflow(const char* field) noexcept {
  std::fprintf(stderr, "EventQueue: %s field of the heap key overflowed\n",
               field);
  std::abort();
}

}  // namespace

void EventQueue::push_keyed(TimePs when, std::uint64_t order, Event event) {
  assert(when >= now_ && "EventQueue: event scheduled in the past");
  if (when < now_) when = now_;  // release builds: clamp, never time-travel
  if (order >= kOrderLimit) [[unlikely]] overflow("order");
  const Key high = static_cast<Key>(when) << 64 |
                   static_cast<Key>(order << kSlotBits);
  if (spent_top_) {
    // The dispatch in progress left its key at the root: take over its slot
    // and sift the new key down from there.
    spent_top_ = false;
    ++rekeyed_in_place_;
    slots_[spent_slot_] = event;
    sift_down(0, high | spent_slot_);
    return;
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = event;
  } else {
    if (slots_.size() > kSlotMask) [[unlikely]] overflow("slot");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(event);
  }
  if (heap_.size() <= kArity * (size_ + 1)) {
    heap_.resize(std::max(kArity * (size_ + 1) + 1, 2 * heap_.size()),
                 kSentinel);
  }
  sift_up(size_++, high | slot);
  peak_pending_ = std::max(peak_pending_, size_);
}

void EventQueue::dispatch_earliest() {
  const Key top = heap_[0];
  now_ = static_cast<TimePs>(top >> 64);
  spent_slot_ = static_cast<std::uint32_t>(static_cast<std::uint64_t>(top) &
                                           kSlotMask);
  // A copy: a push made by the callback may reuse the slot or grow the table.
  Event event = slots_[spent_slot_];
  spent_top_ = true;
  ++dispatched_;
  event();
  if (spent_top_) retire_spent_top();
}

void EventQueue::retire_spent_top() {
  spent_top_ = false;
  free_slots_.push_back(spent_slot_);
  const Key last = heap_[--size_];
  heap_[size_] = kSentinel;
  if (size_ > 0) sift_down(0, last);
}

void EventQueue::sift_down(std::size_t hole, Key key) noexcept {
  Key* const heap = heap_.data();
  for (;;) {
    // Least of the four children as a two-round tournament. Each round's
    // pick is data-dependent and unpredictable, so it is written as selects
    // the compiler turns into conditional moves; sentinels fill the missing
    // children of the last nodes, so no bounds check is needed either.
    const std::size_t first = kArity * hole + 1;
    const Key a = heap[first];
    const Key b = heap[first + 1];
    const Key c = heap[first + 2];
    const Key d = heap[first + 3];
    const bool b_wins = b < a;
    const bool d_wins = d < c;
    const Key ab = b_wins ? b : a;
    const Key cd = d_wins ? d : c;
    const bool cd_wins = cd < ab;
    const Key least = cd_wins ? cd : ab;
    // The index is picked by mask arithmetic: as a select, GCC splits the
    // loop on cd_wins instead.
    const std::size_t ab_at = b_wins;
    const std::size_t cd_at = 2 + std::size_t{d_wins};
    const std::size_t cd_mask = std::size_t{0} - std::size_t{cd_wins};
    const std::size_t child = first + (ab_at ^ ((ab_at ^ cd_at) & cd_mask));
    if (!(least < key)) break;
    heap[hole] = least;
    hole = child;
  }
  heap[hole] = key;
}

void EventQueue::sift_up(std::size_t hole, Key key) noexcept {
  Key* const heap = heap_.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!(key < heap[parent])) break;
    heap[hole] = heap[parent];
    hole = parent;
  }
  heap[hole] = key;
}

std::size_t EventQueue::run(std::size_t limit) {
  if (spent_top_) retire_spent_top();  // started from inside a callback
  std::size_t executed = 0;
  while (size_ > 0 && executed < limit) {
    dispatch_earliest();
    ++executed;
  }
  return executed;
}

std::size_t EventQueue::run_until(TimePs until) {
  assert(until >= now_ && "EventQueue: run_until into the past");
  if (spent_top_) retire_spent_top();  // started from inside a callback
  std::size_t executed = 0;
  while (size_ > 0 && static_cast<TimePs>(heap_[0] >> 64) <= until) {
    dispatch_earliest();
    ++executed;
  }
  if (until > now_) now_ = until;  // never rewind (mirrors push_keyed)
  return executed;
}

}  // namespace rxl::sim
