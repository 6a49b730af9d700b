#include "rxl/link/retry_buffer.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

namespace rxl::link {

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
    blocks_.push_back(std::make_unique_for_overwrite<Block>());
  reserved_ = &blocks_.at(slot / kBlockEntries)->entries[slot % kBlockEntries];
  return reserved_->flit;
}

void RetryBuffer::commit(std::uint16_t seq, std::uint64_t user_tag,
                         std::uint16_t flow_tag, std::uint8_t vc,
                         sim::PayloadFn* payload_of) {
  if (reserved_ == nullptr) [[unlikely]]
    misuse("RetryBuffer: commit without a reservation");
  assert(empty() || seq_next(entry_at(size_ - 1).seq) == (seq & kSeqMask));
  Entry& entry = *reserved_;
  reserved_ = nullptr;
  entry.seq = static_cast<std::uint16_t>(seq & kSeqMask);
  entry.flow_tag = flow_tag;
  entry.vc = vc;
  entry.user_tag = user_tag;
  entry.payload_of = payload_of;
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
