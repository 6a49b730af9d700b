#include "rxl/link/retry_buffer.hpp"

#include <sanitizer/asan_interface.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

namespace rxl::link {
namespace {

/// Set once this thread's pool is destroyed. A buffer that outlives it (one
/// in static storage, destroyed after the main thread's thread-locals)
/// frees its blocks instead of pooling them.
constinit thread_local bool pool_closed = false;

}  // namespace

/// The blocks this thread's buffers released, for the thread's next
/// reserve() to take. One pool per thread, like link_channel.cpp's
/// error_pattern, since trial workers run fabrics in parallel; a pool per
/// buffer would keep every endpoint's peak window. A pooled block is
/// poisoned under ASan, so a stale Entry* into it faults.
class RetryBuffer::Pool {
 public:
  /// This thread's pool, or null once it has been destroyed.
  static Pool* local() noexcept {
    if (pool_closed) return nullptr;
    thread_local Pool pool;
    return &pool;
  }

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    pool_closed = true;
    while (Block* block = take()) delete block;
  }

  /// A pooled block, or null when the pool is empty.
  [[nodiscard]] Block* take() noexcept {
    if (spare_.empty()) return nullptr;
    Block* block = spare_.back();
    spare_.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(block, sizeof(Block));
    return block;
  }

  void give(Block* block) {
    ASAN_POISON_MEMORY_REGION(block, sizeof(Block));
    spare_.push_back(block);
  }

 private:
  std::vector<Block*> spare_;
};

void RetryBuffer::ToPool::operator()(Block* block) const noexcept {
  if (Pool* pool = Pool::local()) {
    pool->give(block);
  } else {
    delete block;
  }
}

RetryBuffer::BlockPtr RetryBuffer::take_block() {
  if (Pool* pool = Pool::local())
    if (Block* block = pool->take()) return BlockPtr(block);
  ++fresh_blocks_;
  // rxl-lint: allow(R3) the pool's refill: only a thread's peak window gets here
  return BlockPtr(new Block);
}

RetryBuffer::RetryBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0 || capacity_ > kSeqModulus / 2)
    throw std::invalid_argument(
        "RetryBuffer capacity must be in [1, 512] for unambiguous "
        "10-bit window arithmetic");
}

std::optional<std::uint16_t> RetryBuffer::oldest_seq() const noexcept {
  if (empty()) return std::nullopt;
  return entry_at(0).seq;
}

flit::Flit& RetryBuffer::reserve() {
  if (reserved_ != nullptr) [[unlikely]]
    misuse("RetryBuffer: reserved again before the reservation was committed "
           "or dropped");
  assert(!full());
  const std::size_t slot = head_ + size_;
  if (slot == blocks_.size() * kBlockEntries)
    blocks_.push_back(take_block());
  reserved_ = &blocks_.at(slot / kBlockEntries)->entries[slot % kBlockEntries];
  return reserved_->flit;
}

void RetryBuffer::commit(std::uint16_t seq, const sim::StreamTag& stream) {
  if (reserved_ == nullptr) [[unlikely]]
    misuse("RetryBuffer: commit without a reservation");
  assert(empty() || seq_next(entry_at(size_ - 1).seq) == (seq & kSeqMask));
  Entry& entry = *reserved_;
  reserved_ = nullptr;
  entry.seq = static_cast<std::uint16_t>(seq & kSeqMask);
  static_cast<sim::StreamTag&>(entry) = stream;
  ++size_;
}

void RetryBuffer::misuse(const char* what) noexcept {
  std::fputs(what, stderr);
  std::fputc('\n', stderr);
  std::abort();
}

void RetryBuffer::pop_oldest() noexcept {
  ++head_;
  --size_;
  if (head_ == kBlockEntries) {
    blocks_.pop_front().reset();
    head_ = 0;
  }
}

std::size_t RetryBuffer::ack_up_to(std::uint16_t acked_seq) {
  std::size_t released = 0;
  while (!empty() && seq_distance(entry_at(0).seq, acked_seq) >= 0 &&
         seq_distance(entry_at(0).seq, acked_seq) <
             static_cast<int>(kSeqModulus / 2)) {
    pop_oldest();
    ++released;
  }
  return released;
}

void RetryBuffer::clear() noexcept {
  while (!blocks_.empty()) blocks_.pop_front().reset();
  head_ = 0;
  size_ = 0;
  reserved_ = nullptr;
}

const flit::Flit* RetryBuffer::find(std::uint16_t seq) const {
  const Entry* entry = find_entry(seq);
  return entry == nullptr ? nullptr : &entry->flit;
}

const RetryBuffer::Entry* RetryBuffer::find_entry(std::uint16_t seq) const {
  // commit() keeps the held sequence numbers consecutive from the front, so
  // `seq` sits at its window distance from the oldest entry, if anywhere.
  if (empty()) return nullptr;
  const int index = seq_distance(entry_at(0).seq, seq);
  if (index < 0 || static_cast<std::size_t>(index) >= size_) return nullptr;
  const Entry& entry = entry_at(static_cast<std::size_t>(index));
  assert(entry.seq == (seq & kSeqMask));
  return &entry;
}

}  // namespace rxl::link
