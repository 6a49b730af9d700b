// Trace-capture export and analysis: Chrome-trace/Perfetto JSON, CSV, text
// summaries, and single-flit journey reconstruction.
//
// All output is a pure function of the capture (itself a pure function of
// the config/seed), with integer-only timestamp formatting — byte-identical
// across runs and sim::run_trials worker counts, which is what the CI
// trace-capture diff pins.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rxl/common/types.hpp"
#include "rxl/obs/trace.hpp"

namespace rxl::obs {

/// Chrome-trace ("Trace Event Format") JSON, loadable by chrome://tracing
/// and Perfetto: one document, capture (trial) i as pid i. Components map
/// to tids (with thread_name metadata); ts is microseconds with the full
/// picosecond value preserved in six fractional digits.
[[nodiscard]] std::string chrome_trace_json(
    std::span<const TraceCapture> captures);

/// "component,name,at_ps,kind,flow,truth,seq,vc,arg" lines, components in
/// registration order, events oldest first.
[[nodiscard]] std::string trace_csv(const TraceCapture& capture);

/// Per-component event-kind counts as a text table (includes overruns: a
/// truncated ring is visible, never silent).
[[nodiscard]] std::string trace_summary(const TraceCapture& capture);

/// One hop of a reconstructed flit journey. The four attribution buckets
/// partition [ready, delivered] exactly:
///   queue_wait + credit_stall + retry_time + wire_time
///     == delivered - ready
/// so summing hops telescopes to the end-to-end latency.
struct JourneyHop {
  std::uint16_t tx_component = 0;  ///< id of the transmitting component
  std::uint16_t rx_component = 0;  ///< id of the delivering component
  TimePs ready = 0;     ///< inject due time / upstream delivery time
  TimePs first_tx = 0;  ///< first transmission attempt
  TimePs last_tx = 0;   ///< attempt that got through
  TimePs delivered = 0;
  std::uint32_t tx_attempts = 0;
  TimePs queue_wait = 0;    ///< waiting for the wire, window open
  TimePs credit_stall = 0;  ///< waiting on an empty credit window
  TimePs retry_time = 0;    ///< first_tx -> last_tx (loss recovery)
  TimePs wire_time = 0;     ///< last_tx -> delivered (serialisation + wire)
};

/// A single flit's reconstructed lifecycle across its per-hop ISN domains.
struct FlitJourney {
  std::uint16_t flow = kTraceNoFlow;
  std::uint64_t truth_index = 0;
  bool complete = false;  ///< inject seen and >= 1 full tx->deliver hop
  /// The flit left the system without ever being delivered. Drop events
  /// alone do not imply loss: CRC-dropped attempts that retry recovered
  /// and stale-discarded duplicate replays trail successful lifecycles.
  bool dropped = false;
  TimePs inject = 0;      ///< arrival due time (= latency-sampling origin)
  TimePs delivered = 0;   ///< final delivery time
  std::vector<JourneyHop> hops;
  std::vector<TraceEvent> events;  ///< the flit's raw events, time-ordered

  /// End-to-end latency: equals the histogram-recorded sample exactly
  /// (both measure inject due time -> sink delivery in sim time).
  [[nodiscard]] TimePs total() const noexcept { return delivered - inject; }
  [[nodiscard]] TimePs total_queue_wait() const noexcept;
  [[nodiscard]] TimePs total_credit_stall() const noexcept;
  [[nodiscard]] TimePs total_retry_time() const noexcept;
  [[nodiscard]] TimePs total_wire_time() const noexcept;
};

/// Reconstructs flit (flow, truth_index) from the capture. Hops are built
/// by walking the flit's events in time order: tx/retry attempts between
/// two deliveries belong to one hop, credit-stall attribution comes from
/// the transmitting component's stall/clear event windows. Returns
/// complete == false when the ring overran the flit's early events.
[[nodiscard]] FlitJourney reconstruct_journey(const TraceCapture& capture,
                                              std::uint16_t flow,
                                              std::uint64_t truth_index);

/// Per-hop breakdown as a text table (component names resolved).
[[nodiscard]] std::string journey_table(const FlitJourney& journey,
                                        const TraceCapture& capture);

}  // namespace rxl::obs
