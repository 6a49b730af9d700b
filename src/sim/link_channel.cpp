#include "rxl/sim/link_channel.hpp"

#include <array>
#include <cassert>
#include <utility>

namespace rxl::sim {
namespace {

/// The error model draws its pattern onto this buffer, which is all zeros
/// between transmits. One per thread, since trial workers run channels in
/// parallel, rather than one per channel: a transmit uses it only until it
/// returns.
alignas(64) thread_local std::array<std::uint8_t, kFlitBytes> error_pattern{};

}  // namespace

LinkChannel::LinkChannel(EventQueue& queue,
                         std::unique_ptr<phy::ErrorModel> errors,
                         std::uint64_t rng_seed, TimePs slot, TimePs latency)
    : queue_(queue),
      errors_(std::move(errors)),
      rng_(rng_seed),
      slot_(slot),
      latency_(latency),
      in_flight_(queue) {
  assert(errors_ != nullptr);
}

TimePs LinkChannel::transmit(std::span<const std::uint8_t> readable,
                             const FlitTags& tags) {
  const TimePs start = std::max(queue_.now(), next_free_);
  const TimePs end = start + slot_;
  next_free_ = end;
  stats_.busy_time += slot_;

  if (faults_ != nullptr) {
    // Revival: the link finished a down window since the last transmit, so
    // the re-equalized channel starts from a known error-model state.
    const std::size_t ended = faults_->windows_ended_by(start);
    if (ended > fault_windows_seen_) {
      fault_windows_seen_ = ended;
      errors_->reset();
    }
    if (faults_->down_at_time(start)) {
      // Dead wire: the slot is spent but the flit vanishes — no delivery
      // event, no error-model draw (the RNG stream stays aligned with the
      // flits that actually transit).
      stats_.flits_blackholed += 1;
      trace_drop(trace_, trace_component_, start, tags, 0,
                 obs::kDropBlackhole);
      return end;
    }
  }
  stats_.flits_carried += 1;

  // Delivery happens once the last bit has propagated.
  FlitEnvelope& slot = in_flight_.park(end + latency_);
  fill_slot(slot, readable, tags);
  assert((slot.payload_of == nullptr && !slot.control_prefix) ||
         slot.seal == SealState::kUnsealed);
  // The pattern does not depend on the image (the ErrorModel contract), so
  // drawing it onto zeros takes the same RNG draws as corrupting the slot,
  // and only a hit pays for the whole image and the seal. The hit widens
  // the flit (its payload written, or its control tail zeroed) and seals
  // before it flips, so a recycled slot's stale bytes never reach a check.
  const std::size_t flipped = errors_->corrupt(error_pattern, rng_);
  if (flipped > 0) {
    materialize(slot);
    if (slot.seal == SealState::kUnsealed) flit::seal(slot.flit, slot.crc_fold);
    const std::span<std::uint8_t, kFlitBytes> bytes = slot.flit.bytes();
    for (std::size_t i = 0; i < kFlitBytes; ++i) bytes[i] ^= error_pattern[i];
    error_pattern.fill(0);
    slot.seal = SealState::kTouched;
    stats_.flits_corrupted += 1;
    stats_.bits_flipped += flipped;
  }
  return end;
}

}  // namespace rxl::sim
