// RX-side reorder buffer for selective-repeat retry (paper §5).
//
// Selective repeat resends only the missing flit, but the receiver must
// then hold every out-of-order arrival until the gap fills — the on-chip
// buffer whose cost §5 argues against (1 Mb for a 1 us stop window at
// 1 Tbps). Only protocols with EXPLICIT sequence numbers can use it: ISN's
// binary pass/fail check cannot identify where an out-of-order flit
// belongs, which is the trade-off the paper accepts for RXL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "rxl/link/sequence.hpp"
#include "rxl/sim/link_channel.hpp"

namespace rxl::link {

class ReorderBuffer {
 public:
  /// @param capacity maximum buffered out-of-order flits (<= 512).
  explicit ReorderBuffer(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool full() const noexcept { return entries_.size() >= capacity_; }

  /// Stores an out-of-order arrival under its sequence number. Returns
  /// false (and drops) when full or when the seq is already held.
  bool insert(std::uint16_t seq, sim::FlitEnvelope&& envelope);

  [[nodiscard]] bool contains(std::uint16_t seq) const {
    return entries_.count(seq & kSeqMask) != 0;
  }

  /// Removes and returns the flit for `seq`, if held.
  std::optional<sim::FlitEnvelope> take(std::uint16_t seq);

 private:
  std::size_t capacity_;
  std::unordered_map<std::uint16_t, sim::FlitEnvelope> entries_;
};

}  // namespace rxl::link
