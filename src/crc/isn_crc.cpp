#include "rxl/crc/isn_crc.hpp"

#include <algorithm>
#include <cassert>

namespace rxl::crc {

std::uint64_t IsnCrc::encode(std::span<const std::uint8_t> message,
                             std::uint16_t seq) const {
  assert(fold_offset_ + 2 <= message.size());
  // The reflected CRC state is XORed onto the next message bytes, low byte
  // first, so XORing the sequence number into the state after the header
  // equals XORing it into the two bytes at the fold offset. The rest then
  // streams through one update: the 240 B flit payload is 15 whole 16 B
  // blocks for the carry-less-multiply fold. A fold offset within two
  // bytes of the end (the assert fires in debug) folds only the bytes that
  // exist.
  const std::size_t head = std::min(fold_offset_, message.size());
  const std::size_t room = message.size() - head;
  std::uint64_t folded = static_cast<std::uint16_t>(seq & kSeqMask);
  if (room < 2) folded &= room == 1 ? 0xFFu : 0u;
  std::uint64_t state = engine_->update(Crc64::begin(), message.first(head));
  state ^= folded;
  state = engine_->update(state, message.subspan(head));
  return Crc64::finish(state);
}

}  // namespace rxl::crc
