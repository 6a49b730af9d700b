// Stream payloads as functions: the by-reference form of a data flit's
// 240 B payload.
//
// Every payload a fabric stream carries is a pure function of its stream
// position, so a flit can carry a pointer to that function instead of the
// bytes (FlitEnvelope::payload_of, RetryBuffer::Entry::payload_of, relay
// queue items). The bytes are written only where something reads them: a
// link error or hub flip that touches the flit, a dead hop's drain, and
// byte-reading application hooks. Scoreboards skip the regenerate-and-
// compare of a delivery that still references their own function, since
// no error touched it.
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

}  // namespace rxl::sim
