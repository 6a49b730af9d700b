// Minimal power-of-two ring-buffer FIFO.
//
// Holds bulky values (256 B flit envelopes, relay payloads) by slot so they
// never ride inside an event: sim::ParkedFifo keeps a channel's or switch's
// in-flight items here, and relays park their store-and-forward queues.
// Capacity grows geometrically and slots are reused, so steady-state
// traffic allocates nothing.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace rxl {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  void push_back(T value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(value);
    ++count_;
  }

  /// Appends a slot and returns it for the caller to fill in place, so a
  /// bulky element (a relay's 240 B payload) is written once instead of
  /// built on the stack and block-copied in. The slot is recycled: the
  /// caller must assign every field.
  [[nodiscard]] T& push_back_slot() {
    if (count_ == slots_.size()) grow();
    T& slot = slots_[(head_ + count_) & (slots_.size() - 1)];
    ++count_;
    return slot;
  }

  [[nodiscard]] T& front() noexcept {
    assert(count_ > 0);
    return slots_[head_];
  }

  /// Read-only access to the i-th queued element (0 = front). Lets
  /// management planes scan parked work (the relay reroute quiesce) without
  /// disturbing FIFO order.
  [[nodiscard]] const T& at(std::size_t i) const noexcept {
    assert(i < count_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  /// Pops and returns the front element. [[nodiscard]]: a dropped pop is a
  /// lost flit/credit — callers that intend to drop must say so explicitly.
  [[nodiscard]] T pop_front() {
    assert(count_ > 0);
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return value;
  }

  /// Removes the front element after the caller has read it via front().
  void drop_front() noexcept {
    assert(count_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

  /// Drops every element; the slots stay allocated for reuse.
  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    const std::size_t capacity = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> next(capacity);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< size is always zero or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace rxl
