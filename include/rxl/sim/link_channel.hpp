// Unidirectional link channel: serialisation slots, propagation latency,
// and physical-layer error injection.
//
// A x16 CXL 3.0 link serialises one 256 B flit per 2 ns (paper §7.2). The
// channel enforces that slot rate (senders queue when the wire is busy),
// applies an ErrorModel to the transiting image, and delivers to the
// receiver after the propagation latency.
//
// A sent flit is copied once, into its in-flight slot, and the receiver
// is handed that slot. Only the bytes some reader reads are copied
// (copy_readable): endpoints send flits unsealed, so the CRC and FEC
// fields are not computed and the envelope records the value the CRC
// folds in; a data flit's payload may travel by reference
// (FlitEnvelope::payload_of), its 240 B never written, so only its 2 B
// header is copied; and a control flit hops as its 24 B prefix
// (flit::ControlPrefix: header, credit words, ECN byte), the rest of its
// image zero. The slot's other bytes keep whatever an earlier flit left
// there. Error models XOR in a pattern that does not depend on the image
// (see phy::ErrorModel), so the channel draws the pattern onto zeros and,
// only when the pattern hits, widens the flit to its whole image
// (materialize: the payload written, or the control flit's tail zeroed),
// seals the slot and flips it; the flip then lands on exactly the codeword
// its sender's codec builds. A flit no error touched keeps its seal state
// and its extent, and its receiver takes the check's verdict from the
// metadata.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "rxl/common/rng.hpp"
#include "rxl/common/types.hpp"
#include "rxl/flit/flit.hpp"
#include "rxl/obs/trace.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/sim/fault_plan.hpp"
#include "rxl/sim/inline_delegate.hpp"
#include "rxl/sim/parked_fifo.hpp"
#include "rxl/sim/payload_fn.hpp"

namespace rxl::sim {

/// How much of a flit image's parity is real (see FlitEnvelope::seal).
enum class SealState : std::uint8_t {
  /// The CRC and FEC fields were never computed; the header and payload
  /// are exactly what the sender wrote. Receivers skip the FEC decode and
  /// take the CRC verdict from FlitEnvelope::crc_fold.
  kUnsealed,
  /// Bit-identical to what the last encoder wrote (a valid FEC codeword),
  /// so receivers skip the FEC decode but check the real CRC.
  kCodeword,
  /// Flipped since it was sealed: receivers run the real FEC decode and
  /// CRC check. An FEC correction leaves the state here; only a re-encode
  /// (a hub's egress regeneration) makes it a codeword again.
  kTouched,
};

/// What a sender stamps on a flit it transmits: the stream identity, which
/// survives every hop, plus the per-hop fields. Simulation-only ground
/// truth that no protocol logic may read (it exists so the simulator can
/// skip FEC/CRC work on untouched images and so scoreboards can classify
/// failures). A payload held by reference (payload_of) and a control flit
/// held as its prefix (control_prefix) are always unsealed: whatever seals
/// or flips them (a channel's error hit, a hub's internal flip) widens
/// them to their whole image first (materialize).
struct FlitTags : StreamTag {
  bool has_truth = false;  ///< a data flit, whose truth_index is real
  /// Destination routing tag consumed by multi-port switches. Stands in
  /// for the transaction-layer address lookup of a real CXL switch; the
  /// protocol logic never reads it.
  std::uint16_t dest_port = 0;
  /// The value flit::seal folds into the CRC: the SeqNum of an RXL data
  /// flit, 0 for CXL data and for every control flit.
  std::uint16_t crc_fold = 0;
  SealState seal = SealState::kCodeword;
  /// A control flit held as its flit::kControlPrefixBytes prefix: the rest
  /// of its image is zero, and the bytes there are not written.
  bool control_prefix = false;
};

/// A flit in flight: its wire image and its tags. Only the bytes a reader
/// reads are copied from slot to slot (copy_readable), so a recycled
/// slot's payload and parity may hold an earlier flit's bytes.
struct FlitEnvelope : FlitTags {
  alignas(8) flit::Flit flit;  // word-aligned for whole-image copies
};

// Envelopes park in ring slots (channel in-flight, switch forwarding,
// reorder buffers) and are moved by plain block copy: they must stay
// trivially copyable, and their footprint is budgeted at the 256 B wire
// image plus one cache line of simulation metadata.
static_assert(std::is_trivially_copyable_v<FlitEnvelope>,
              "FlitEnvelope rides ring slots as a block copy");
static_assert(sizeof(FlitTags) == 32);
static_assert(sizeof(FlitEnvelope) == 288,
              "FlitEnvelope metadata outgrew its one-cache-line budget");

/// Records a kDrop (`reason`, an obs::kDrop* value) of the flit `tags`
/// describe, at hop-local sequence number `seq`: a data flit (`has_truth`)
/// keeps its stream position, flow and VC; a control flit belongs to no
/// stream and is booked to obs::kTraceNoFlow. A null sink records nothing.
inline void trace_drop(obs::TraceSink* sink, std::uint16_t component,
                       TimePs at, const FlitTags& tags, std::uint16_t seq,
                       std::uint32_t reason) noexcept {
  if (sink == nullptr) return;
  if (tags.has_truth) {
    sink->emit(component, at, obs::TraceEventKind::kDrop, tags.truth_index,
               tags.flow_id, seq, tags.vc, reason);
  } else {
    sink->emit(component, at, obs::TraceEventKind::kDrop, 0,
               obs::kTraceNoFlow, seq, 0, reason);
  }
}

/// Widens the envelope's image to the whole flit before something seals
/// it: writes a payload held by reference and drops the reference, or
/// zero-fills the image behind a control flit's prefix (a recycled slot
/// holds an earlier flit's bytes there), so the seal covers exactly the
/// image the sender's codec builds. A flit held as its whole image is left
/// as it is.
inline void materialize(FlitEnvelope& envelope) {
  if (envelope.payload_of != nullptr) {
    (*envelope.payload_of)(envelope.truth_index, envelope.flit.payload());
    envelope.payload_of = nullptr;
  } else if (envelope.control_prefix) {
    const std::span<std::uint8_t, kFlitBytes> bytes = envelope.flit.bytes();
    std::fill(bytes.begin() + flit::kControlPrefixBytes, bytes.end(),
              std::uint8_t{0});
    envelope.control_prefix = false;
  }
}

/// Copies the bytes of the flit `tags` describe that a reader may read,
/// from `from` (its image, or a control flit's prefix) into `to`: the 2 B
/// header when the payload is held by reference (`payload_of` set; its
/// payload and parity were never written), the flit::kControlPrefixBytes
/// of a control flit held as its prefix (`control_prefix`), and the whole
/// image otherwise. A partial copy leaves the rest of `to` as it was.
inline void copy_readable(flit::Flit& to, std::span<const std::uint8_t> from,
                          const FlitTags& tags) noexcept {
  std::uint8_t* const out = to.bytes().data();
  if (tags.payload_of != nullptr) {
    std::memcpy(out, from.data(), kHeaderBytes);
  } else if (tags.control_prefix) {
    assert(from.size() >= flit::kControlPrefixBytes);
    std::memcpy(out, from.data(), flit::kControlPrefixBytes);
  } else {
    assert(from.size() == kFlitBytes);
    std::memcpy(out, from.data(), kFlitBytes);
  }
}

/// The envelope's payload bytes, for readers that need them (a byte-level
/// transaction scoreboard, a test): the image's own, or `scratch` filled
/// from the reference.
inline std::span<const std::uint8_t, kPayloadBytes> payload_bytes(
    const FlitEnvelope& envelope,
    std::array<std::uint8_t, kPayloadBytes>& scratch) {
  if (envelope.payload_of == nullptr) return envelope.flit.payload();
  (*envelope.payload_of)(envelope.truth_index, scratch);
  return scratch;
}

/// Fills a recycled ring slot (a channel's in-flight ring, a hub's
/// forwarding pipeline) with the flit `tags` describe, copying only the
/// bytes of `from` a reader may read (copy_readable).
inline void fill_slot(FlitEnvelope& slot, std::span<const std::uint8_t> from,
                      const FlitTags& tags) noexcept {
  copy_readable(slot.flit, from, tags);
  static_cast<FlitTags&>(slot) = tags;
}

/// Per-channel occupancy and error statistics.
struct ChannelStats {
  std::uint64_t flits_carried = 0;
  std::uint64_t flits_corrupted = 0;  ///< images touched by the error model
  std::uint64_t bits_flipped = 0;
  std::uint64_t flits_blackholed = 0;  ///< sent into a fault-plan down window
  TimePs busy_time = 0;  ///< total serialisation time consumed
};

class LinkChannel {
 public:
  /// Non-allocating receiver hook: one delivery per simulated flit makes
  /// this a hot-path callable, so captures must be trivially copyable and
  /// fit inline (rxl-lint R3: no std::function here). The receiver gets the
  /// in-flight slot itself, which is dropped once it returns; it must not
  /// send on this same channel meanwhile (that aborts, in every build).
  using DeliverFn = ParkedFifo<FlitEnvelope>::Handler;

  /// @param queue    shared simulation kernel.
  /// @param errors   error process applied per transiting flit (owned).
  /// @param rng_seed per-channel deterministic error stream.
  /// @param slot     serialisation time per flit (default: 2 ns).
  /// @param latency  propagation delay sender -> receiver.
  LinkChannel(EventQueue& queue, std::unique_ptr<phy::ErrorModel> errors,
              std::uint64_t rng_seed, TimePs slot = kFlitSlotPs,
              TimePs latency = kFlitSlotPs);

  /// Connects the receive side.
  void set_receiver(DeliverFn deliver) {
    in_flight_.set_handler(std::move(deliver));
  }

  /// Attaches a fault-plan timeline (not owned; must outlive the channel).
  /// While the timeline says the link is down, transmitted flits are
  /// black-holed: they still occupy their serialisation slot (the TX MAC
  /// cannot tell a dead wire from a lossy one) but are never delivered and
  /// never touch the error model or its RNG stream. With no schedule — or
  /// an empty one — the channel behaves bit-identically to one built
  /// before fault injection existed.
  void set_fault_schedule(const LinkFaultSchedule* faults) noexcept {
    faults_ = (faults != nullptr && !faults->empty()) ? faults : nullptr;
  }

  /// Queues `image`, stamped with `tags` (its seal state, CRC fold and
  /// payload reference among them), for transmission: the bytes a reader
  /// may read (the header alone when `tags.payload_of` is set; see
  /// copy_readable) are copied once, straight into its in-flight slot. The
  /// channel serialises flits back-to-back: if the wire is busy the flit
  /// starts when it frees up.
  /// Returns the time at which the flit's slot *ends* (when the sender may
  /// push the next flit without queueing).
  TimePs send(const flit::Flit& image, const FlitTags& tags) {
    return transmit(image.bytes(), tags);
  }

  /// Control-flit form: the same for a control flit held as its prefix
  /// (`tags.control_prefix` set), of which the prefix alone is copied.
  TimePs send(const flit::ControlPrefix& prefix, const FlitTags& tags) {
    assert(tags.control_prefix && tags.payload_of == nullptr);
    return transmit(prefix.bytes, tags);
  }

  /// Envelope form (a hub forwarding a parked envelope): the same, keeping
  /// the envelope's seal state, CRC fold and extent.
  TimePs send(const FlitEnvelope& envelope) {
    return transmit(envelope.flit.bytes(), envelope);
  }

  /// Earliest time a newly offered flit would start serialising.
  [[nodiscard]] TimePs next_free() const noexcept { return next_free_; }

  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] TimePs slot() const noexcept { return slot_; }

  /// Attaches the channel to a flit-lifecycle trace sink as `component`.
  /// The only channel-originated event is kDrop/kDropBlackhole (a flit sent
  /// into a fault-plan down window); normal transit is traced by the
  /// endpoints on either side.
  void set_trace(obs::TraceSink* sink, std::uint16_t component) noexcept {
    trace_ = sink;
    trace_component_ = component;
  }

 private:
  TimePs transmit(std::span<const std::uint8_t> readable, const FlitTags& tags);

  EventQueue& queue_;
  std::unique_ptr<phy::ErrorModel> errors_;
  Xoshiro256 rng_;
  TimePs slot_;
  TimePs latency_;
  TimePs next_free_ = 0;
  const LinkFaultSchedule* faults_ = nullptr;  ///< not owned; may be null
  /// Completed down windows already acknowledged by an errors_->reset();
  /// compared against the schedule so each revival re-equalizes exactly
  /// once, on the first transmit after the link comes back.
  std::size_t fault_windows_seen_ = 0;
  /// Flits on the wire, in delivery order; each one's key waits in the
  /// event queue's lane for slot + latency. Delivery times never decrease
  /// (slot end is monotonic, latency constant), and the 256 B envelope
  /// never rides inside an event.
  ParkedFifo<FlitEnvelope> in_flight_;
  ChannelStats stats_;
  obs::TraceSink* trace_ = nullptr;  ///< flit-lifecycle sink (null = off)
  std::uint16_t trace_component_ = 0;
};

}  // namespace rxl::sim
