#include "rxl/link/reorder_buffer.hpp"

#include <stdexcept>
#include <utility>

namespace rxl::link {

ReorderBuffer::ReorderBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0 || capacity_ > kSeqModulus / 2)
    throw std::invalid_argument(
        "ReorderBuffer capacity must be in [1, 512] for unambiguous "
        "10-bit window arithmetic");
}

bool ReorderBuffer::insert(std::uint16_t seq, sim::FlitEnvelope&& envelope) {
  const std::uint16_t key = seq & kSeqMask;
  if (entries_.count(key) != 0) return false;  // duplicate arrival
  if (full()) return false;
  entries_.emplace(key, std::move(envelope));
  return true;
}

std::optional<sim::FlitEnvelope> ReorderBuffer::take(std::uint16_t seq) {
  const auto it = entries_.find(seq & kSeqMask);
  if (it == entries_.end()) return std::nullopt;
  sim::FlitEnvelope envelope = std::move(it->second);
  entries_.erase(it);
  return envelope;
}

}  // namespace rxl::link
