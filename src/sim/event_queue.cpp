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

/// Fills the heap past its last live key, and stands for an empty lane's
/// head; above every live key.
constexpr unsigned __int128 kSentinel = ~static_cast<unsigned __int128>(0);

}  // namespace

void EventQueue::overflow(const char* field) noexcept {
  std::fprintf(stderr, "EventQueue: %s field of the heap key overflowed\n",
               field);
  std::abort();
}

void EventQueue::post_slow(Key key, TimePs delay) {
  std::size_t lane = 0;
  while (lane < lane_count_ && lane_delays_[lane] != delay) ++lane;
  if (lane == lane_count_ && lane_count_ < kMaxLanes) {
    ++lane_count_;
    lane_delays_[lane] = delay;
    append(lane, key);
    return;
  }
  // Below its lane's tail, or no lane left: the heap keeps the key's place
  // in the dispatch order, with a copy of the producer's callback.
  ++heap_posts_;
  const auto low = static_cast<std::uint64_t>(key);
  push_keyed(static_cast<TimePs>(key >> 64), low >> kSlotBits,
             slots_[low & kSlotMask]);
}

void EventQueue::push_keyed(TimePs when, std::uint64_t order, Event event) {
  assert(when >= now_ && "EventQueue: event scheduled in the past");
  if (when < now_) when = now_;  // release builds: clamp, never time-travel
  const Key key = make_key(when, order, 0);
  if (spent_top_) {
    // The dispatch in progress left its key at the root: take over its slot
    // and sift the new key down from there.
    spent_top_ = false;
    ++rekeyed_in_place_;
    slots_[spent_slot_] = event;
    sift_down(0, key | spent_slot_);
    return;
  }
  const std::uint32_t slot = claim_slot(event);
  if (heap_.size() <= kArity * (size_ + 1)) {
    heap_.resize(std::max(kArity * (size_ + 1) + 1, 2 * heap_.size()),
                 kSentinel);
  }
  sift_up(size_++, key | slot);
  peak_pending_ = std::max(peak_pending_, pending());
}

bool EventQueue::dispatch_next(TimePs until) {
  const Key top = size_ > 0 ? heap_[0] : kSentinel;
  const Key head = lane_heads_[least_lane_];
  const bool from_lane = head < top;
  const Key key = from_lane ? head : top;
  // Above every live key due by `until`, and below the sentinel: no live
  // key's low word is all ones.
  const Key last_due = static_cast<Key>(until) << 64 | (~std::uint64_t{0} - 1);
  if (key > last_due) return false;
  now_ = static_cast<TimePs>(key >> 64);
  const auto slot = static_cast<std::uint32_t>(static_cast<std::uint64_t>(key) &
                                               kSlotMask);
  // A copy: a push made by the callback may reuse the slot or grow the table.
  Event event = slots_[slot];
  ++dispatched_;
  if (from_lane) {
    RingQueue<Key>& lane = lanes_[least_lane_];
    lane.drop_front();
    lane_heads_[least_lane_] = lane.empty() ? kSentinel : lane.front();
    --lane_keys_;
    least_lane_ = 0;
    for (std::size_t next = 1; next < lane_count_; ++next)
      if (lane_heads_[next] < lane_heads_[least_lane_]) least_lane_ = next;
    event();
    return true;
  }
  spent_slot_ = slot;
  spent_top_ = true;
  event();
  if (spent_top_) retire_spent_top();
  return true;
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
  while (executed < limit && dispatch_next(~TimePs{0})) ++executed;
  return executed;
}

std::size_t EventQueue::run_until(TimePs until) {
  assert(until >= now_ && "EventQueue: run_until into the past");
  if (spent_top_) retire_spent_top();  // started from inside a callback
  std::size_t executed = 0;
  while (dispatch_next(until)) ++executed;
  if (until > now_) now_ = until;  // never rewind (mirrors push_keyed)
  return executed;
}

}  // namespace rxl::sim
