// Non-allocating, fixed-size event callback for the simulation kernel.
//
// Every simulated flit turns into a handful of scheduled events, so the
// callback representation is the hottest data structure in the Monte Carlo
// sweeps. std::function would heap-allocate any capture beyond its SSO
// buffer and needs a non-trivial move for every copy; InlineEvent is an
// InlineDelegate taking no arguments, which stores the callable inline and
// requires it to be trivially copyable, so the EventQueue writes it into
// its slot table, and copies it out to run it, as a plain 48-byte block.
//
// Its 40 B of storage fit, with headroom, the largest event lambda in the
// codebase (reference-capturing test callbacks and the 16-byte
// Timer::Carrier record). Capture-by-value of anything heavier (a
// FlitEnvelope, say) fails InlineDelegate's static_asserts instead of
// silently allocating: park bulky payloads in a component-owned ParkedFifo
// or RingQueue and capture only the component pointer (see LinkChannel).
#pragma once

#include <type_traits>

#include "rxl/sim/inline_delegate.hpp"

namespace rxl::sim {

using InlineEvent = InlineDelegate<void(), 40>;

static_assert(std::is_trivially_copyable_v<InlineEvent>);
static_assert(sizeof(InlineEvent) == 48);

}  // namespace rxl::sim
