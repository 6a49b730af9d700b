// Stream payloads as functions: the by-reference form of a data flit's
// 240 B payload.
//
// Every payload a fabric stream carries is a pure function of its stream
// position, so a flit can carry a pointer to that function instead of the
// bytes (StreamTag::payload_of, which every flit record carries). The
// bytes are written only where something reads them: a link error or hub
// flip that touches the flit, a dead hop's drain, and byte-reading
// application hooks. Scoreboards skip the regenerate-and-compare of a
// delivery that still references their own function, since no error
// touched it.
#pragma once

#include <cstdint>
#include <span>

#include "rxl/common/types.hpp"
#include "rxl/sim/inline_delegate.hpp"

namespace rxl::sim {

/// Writes the 240 B payload a stream carries at position `index` into
/// `out`. It must be a pure function of the index: a pointer to it stands
/// for the bytes wherever a flit's payload travels by reference, so it
/// must outlive every flit that references it.
using PayloadFn = InlineDelegate<void(
    std::uint64_t index, std::span<std::uint8_t, kPayloadBytes> out)>;

/// A data flit's end-to-end identity, which survives every hop while the
/// per-hop fields (sequence number, seal state, routing tag) change. The
/// source stamps it once; every record a flit passes through holds it as a
/// base and assigns it whole. Simulation metadata: the link protocol never
/// reads it.
struct StreamTag {
  std::uint64_t truth_index = 0;  ///< stream position, for scoreboards
  /// Non-null: the payload is held by reference, as
  /// (*payload_of)(truth_index), and the image's 240 payload bytes were
  /// never written.
  PayloadFn* payload_of = nullptr;
  std::uint16_t flow_id = 0;  ///< relays route on it, sinks demux by it
  std::uint8_t vc = 0;  ///< the VC it travels and bills credits on, per hop
};
// The default member initializers make StreamTag non-POD for layout, so a
// derived record packs its first small fields into the 5 tail bytes.
static_assert(sizeof(StreamTag) == 24);

}  // namespace rxl::sim
