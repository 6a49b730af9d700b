#include "rxl/link/retry_buffer.hpp"

#include <cassert>
#include <stdexcept>

namespace rxl::link {

RetryBuffer::RetryBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0 || capacity_ > kSeqModulus / 2)
    throw std::invalid_argument(
        "RetryBuffer capacity must be in [1, 512] for unambiguous "
        "10-bit window arithmetic");
}

std::optional<std::uint16_t> RetryBuffer::oldest_seq() const noexcept {
  if (entries_.empty()) return std::nullopt;
  return entries_.front().seq;
}

bool RetryBuffer::push(std::uint16_t seq, const flit::Flit& encoded,
                       std::uint64_t user_tag, std::uint16_t flow_tag,
                       std::uint8_t vc) {
  if (full()) return false;
  assert(entries_.empty() || seq_next(entries_.back().seq) == (seq & kSeqMask));
  entries_.push_back(Entry{static_cast<std::uint16_t>(seq & kSeqMask), flow_tag,
                           vc, user_tag, encoded});
  return true;
}

std::size_t RetryBuffer::ack_up_to(std::uint16_t acked_seq) {
  std::size_t released = 0;
  while (!entries_.empty() &&
         seq_distance(entries_.front().seq, acked_seq) >= 0 &&
         seq_distance(entries_.front().seq, acked_seq) <
             static_cast<int>(kSeqModulus / 2)) {
    entries_.pop_front();
    ++released;
  }
  return released;
}

const flit::Flit* RetryBuffer::find(std::uint16_t seq) const {
  const Entry* entry = find_entry(seq);
  return entry == nullptr ? nullptr : &entry->flit;
}

const RetryBuffer::Entry* RetryBuffer::find_entry(std::uint16_t seq) const {
  // push() keeps the held sequence numbers consecutive from the front, so
  // `seq` sits at its window distance from the oldest entry, if anywhere.
  if (entries_.empty()) return nullptr;
  const int index = seq_distance(entries_.front().seq, seq);
  if (index < 0 || static_cast<std::size_t>(index) >= entries_.size())
    return nullptr;
  const Entry& entry = entries_[static_cast<std::size_t>(index)];
  assert(entry.seq == (seq & kSeqMask));
  return &entry;
}

}  // namespace rxl::link
