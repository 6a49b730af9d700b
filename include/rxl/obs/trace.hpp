// Flit-lifecycle tracing: fixed-footprint per-component event rings.
//
// Every traced component (endpoint, relay switch, wire, reroute controller)
// owns one ring of trivially-copyable 32 B TraceEvents inside a shared
// TraceSink. Emission is a single predictable branch when tracing is off
// (component holds a null sink pointer) and a bounded ring write when on:
// no allocation, no wall-clock reads, no RNG draws anywhere on the
// emission path (rxl-lint R7 pins this for the whole obs/ subsystem), so
// enabling tracing cannot perturb simulated trajectories — the traced and
// untraced runs of the same config produce bit-identical reports, and a
// traced capture is bit-identical at any sim::run_trials worker count.
//
// Rings overwrite oldest-first when full and count every overwrite in
// `overruns()`: a capture is never silently truncated, the loss is part of
// the exported record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "rxl/common/types.hpp"

namespace rxl::obs {

/// Lifecycle stages of a flit, across all per-hop ISN domains.
enum class TraceEventKind : std::uint8_t {
  kInject = 0,    ///< source arrival became eligible (at = arrival due time)
  kEnqueue,       ///< relay parked the flit in a per-VC egress queue
  kTx,            ///< endpoint put a new data flit on the wire
  kRetry,         ///< endpoint re-transmitted (arg: replay cause, see below)
  kNack,          ///< RX emitted a NACK (seq = last good)
  kAck,           ///< TX consumed a cumulative ACK (seq = acknum, arg = freed)
  kCreditStall,   ///< TX credit window state change (arg 0 = stall, 1 = clear)
  kEcnMark,       ///< TX observed a new remote ECN mark bitmap (arg = bitmap)
  kRerouteDrain,  ///< dead-hop drain / reroute re-injection (arg = flit count)
  kDeliver,       ///< RX delivered the flit upward (terminal or relay ingress)
  kDrop,          ///< flit left the system (arg = drop reason, see below)
};
inline constexpr std::size_t kTraceEventKindCount = 11;

[[nodiscard]] const char* trace_event_kind_name(TraceEventKind kind) noexcept;

/// `arg` values for kRetry.
inline constexpr std::uint32_t kRetryGoBackN = 0;
inline constexpr std::uint32_t kRetrySelective = 1;
inline constexpr std::uint32_t kRetryTimeout = 2;  ///< episode marker, no flit

/// `arg` values for kDrop.
inline constexpr std::uint32_t kDropCrc = 1;
inline constexpr std::uint32_t kDropFec = 2;
inline constexpr std::uint32_t kDropStale = 3;
inline constexpr std::uint32_t kDropSeqWindow = 4;
inline constexpr std::uint32_t kDropNoRoute = 5;
inline constexpr std::uint32_t kDropBlackhole = 6;

/// Flow id stamped on events that are not tied to one flow (credit stalls,
/// ECN marks, ACK bookkeeping).
inline constexpr std::uint16_t kTraceNoFlow = 0xFFFF;

/// One lifecycle observation. 32 bytes, trivially copyable, no padding:
/// rings are flat memcpy-able arrays and captures compare bytewise.
struct TraceEvent {
  TimePs at = 0;                  ///< sim time, picoseconds — never wall-clock
  std::uint64_t truth_index = 0;  ///< ground-truth stream position (0 if n/a)
  std::uint16_t component = 0;    ///< TraceSink component id (hop/domain)
  std::uint16_t flow = kTraceNoFlow;
  std::uint16_t seq = 0;  ///< hop-local ISN / FSN
  std::uint8_t vc = 0;
  TraceEventKind kind = TraceEventKind::kInject;
  std::uint32_t arg = 0;  ///< kind-specific detail (see constants above)
  std::uint32_t spare = 0;

  [[nodiscard]] bool operator==(const TraceEvent&) const = default;
};
static_assert(sizeof(TraceEvent) == 32);
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// Fixed-capacity event ring: overwrites oldest when full, counting every
/// overwrite. Capacity is set once at construction (setup time); `record`
/// never allocates.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  void record(const TraceEvent& event) noexcept {
    slots_[head_] = event;
    head_ += 1;
    if (head_ == slots_.size()) head_ = 0;
    if (size_ < slots_.size())
      size_ += 1;
    else
      overruns_ += 1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Overwritten (lost) events — never silently dropped.
  [[nodiscard]] std::uint64_t overruns() const noexcept { return overruns_; }

  /// i-th retained event, oldest first.
  [[nodiscard]] const TraceEvent& at(std::size_t i) const noexcept {
    const std::size_t base = size_ == slots_.size() ? head_ : 0;
    std::size_t index = base + i;
    if (index >= slots_.size()) index -= slots_.size();
    return slots_[index];
  }

  /// Oldest-first copy of the retained events (export path, not emission).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t overruns_ = 0;
};

/// Snapshot of one component's ring: the consistent `snapshot()` shape the
/// exporters and `rxl_trace` consume.
struct TraceComponentCapture {
  std::string name;
  std::uint64_t overruns = 0;
  std::vector<TraceEvent> events;  ///< oldest first

  [[nodiscard]] bool operator==(const TraceComponentCapture&) const = default;
};

/// Whole-fabric snapshot, components in registration order (deterministic:
/// registration follows the fabric's fixed build order).
struct TraceCapture {
  std::vector<TraceComponentCapture> components;

  [[nodiscard]] bool empty() const noexcept { return components.empty(); }
  [[nodiscard]] std::uint64_t total_events() const noexcept;
  [[nodiscard]] std::uint64_t total_overruns() const noexcept;

  [[nodiscard]] bool operator==(const TraceCapture&) const = default;
};

/// Owns one ring per registered component. Components register at fabric
/// build time (allocation happens there, never on the emission path) and
/// then record through a stable id.
class TraceSink {
 public:
  explicit TraceSink(std::size_t ring_capacity)
      : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

  /// Registers a component and returns its id. Setup path only.
  std::uint16_t add_component(std::string name);

  void record(std::uint16_t component, TraceEvent event) noexcept {
    event.component = component;
    rings_[component].record(event);
  }

  /// Records one lifecycle event stamped with sim time `at`: the writer
  /// every emission site calls after its own inline null-sink check.
  void emit(std::uint16_t component, TimePs at, TraceEventKind kind,
            std::uint64_t truth, std::uint16_t flow, std::uint16_t seq,
            std::uint8_t vc, std::uint32_t arg) noexcept {
    TraceEvent event;
    event.at = at;
    event.truth_index = truth;
    event.flow = flow;
    event.seq = seq;
    event.vc = vc;
    event.kind = kind;
    event.arg = arg;
    record(component, event);
  }

  /// Snapshot every ring, components in registration order.
  [[nodiscard]] TraceCapture capture() const;

 private:
  std::size_t ring_capacity_;
  std::vector<std::string> names_;
  std::vector<TraceRing> rings_;
};

/// The `DagConfig::trace` knob. Default-constructed = tracing off: every
/// emission site reduces to one null-pointer branch and pinned bench
/// tables stay byte-identical.
struct TraceSpec {
  bool enabled = false;
  /// Events retained per component (32 B each).
  std::size_t ring_depth = 4096;
  /// Occupancy/goodput time-series sample period; 0 disables the sampler.
  TimePs sample_period = 0;
};

/// One sample of the optional sim-time-driven time series.
struct TimeSeriesPoint {
  TimePs at = 0;
  std::uint64_t delivered = 0;  ///< cumulative in-order terminal deliveries
  std::uint64_t queued = 0;     ///< relay egress occupancy across the fabric

  [[nodiscard]] bool operator==(const TimeSeriesPoint&) const = default;
};

}  // namespace rxl::obs
