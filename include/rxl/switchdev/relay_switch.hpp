// Hop-terminating multi-port relay: the DNP-style scale-out switch.
//
// Unlike PortSwitch — which forwards flits transparently and leaves the
// ISN/retry domain end-to-end — a RelaySwitch TERMINATES the link
// protocol on every port. Each port owns a full transport::Endpoint, so each
// incident hop is its own ISN/CRC + retry domain with per-output-port
// sequence state: a retry storm on one hop is invisible to every other hop
// (the property the DAG test layer pins). Payloads accepted in order by an
// ingress port are routed by flow and queued store-and-forward on the egress
// port, where they are re-originated with fresh sequence numbers; the
// flit's stream identity (sim::StreamTag: truth_index, payload reference,
// flow_id, vc) is queued and re-originated whole, so scoreboards still
// observe the original stream and every hop queues and bills the flit on
// the VC its source stamped. A queue entry is a 32 B descriptor: the
// stream tag, the ingress port that holds its credit, and a slab index. A
// payload held by reference (sim::PayloadFn) is queued and re-originated
// as the reference; only a payload held as bytes (one an error touched on
// the way in, or an injected one) is copied into a 240 B slot of the
// relay's slab, recycled through a free list, and out of it again when the
// egress port re-originates it.
//
// Accepting a flit transfers responsibility to this relay (the upstream hop
// is ACKed and may free its replay buffer). The store-and-forward buffering
// is BOUNDED when the ingress hop runs credit flow control: the upstream
// transmitter holds one credit per slot of this relay's buffer, each
// accepted payload occupies one slot until the egress port re-originates it,
// and the freed slot is returned as a credit on the ingress hop's reverse
// control path (piggybacked on its ACK stream; see link/credit.hpp). With
// credits disabled the queues are unbounded, modelling a relay provisioned
// for the offered load. Per-port occupancy high-water marks and credit
// stalls are reported for buffer sizing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "rxl/common/ring_queue.hpp"
#include "rxl/link/credit.hpp"
#include "rxl/obs/trace.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/switchdev/egress_scheduler.hpp"
#include "rxl/transport/config.hpp"
#include "rxl/transport/endpoint.hpp"

namespace rxl::switchdev {

/// Per-port relay counters, beyond the port endpoint's own link statistics.
struct RelayPortStats {
  std::uint64_t relayed_in = 0;   ///< payloads accepted by this port's RX
  std::uint64_t relayed_out = 0;  ///< payloads re-originated by this port's TX
  std::uint64_t dropped_no_route = 0;  ///< accepted flits with no flow route
  std::uint64_t max_queue_depth = 0;   ///< egress store-and-forward high water
  /// Peak count of payloads accepted by this INGRESS port still waiting in
  /// some egress queue — the occupancy the ingress hop's credit window
  /// bounds (<= the port's receive depth whenever flow control is on).
  std::uint64_t ingress_high_water = 0;
  std::uint64_t queue_occupancy = 0;  ///< egress queue depth at capture time
  /// The port endpoint's TX credit-stall episodes (next hop's buffer full),
  /// mirrored from its EndpointExtraStats for one-stop congestion reports.
  std::uint64_t credit_stalls = 0;
  /// Per-VC split of ingress_high_water: peak occupancy each VC partition
  /// reached (<= the receive depth per VC whenever flow control is on).
  std::array<std::uint64_t, link::kMaxVcs> vc_ingress_high_water{};
  /// ECN hysteresis transitions on this ingress port's VCs.
  std::uint64_t ecn_mark_events = 0;   ///< occupancy crossed the threshold
  std::uint64_t ecn_clear_events = 0;  ///< occupancy fell to threshold/2
};

class RelaySwitch {
 public:
  /// `scheduler` serves every egress port; an ingress VC is ECN-marked at
  /// `ecn_threshold` occupancy and cleared at half of it (0 = never).
  RelaySwitch(sim::EventQueue& queue, std::string name,
              EgressScheduler scheduler = {}, std::size_t ecn_threshold = 0);

  /// Adds a port with its own link-termination endpoint, provisioned with
  /// `credits`; returns its index. The caller wires the port endpoint's
  /// channels (set_output + the inbound channel's receiver). `credits.rx`
  /// is the bounded store-and-forward depth offered to the ingress hop per
  /// VC (0 = unbounded). Ports must all be added before traffic starts.
  std::size_t add_port(const transport::ProtocolConfig& config,
                       link::HopCredits credits = {});

  /// Routes `flow_id` out of `egress_port` (deterministic table routing).
  /// Also used mid-run by the fabric's reroute controller to swap a flow
  /// onto its backup path after a hop death.
  void set_route(std::uint16_t flow_id, std::size_t egress_port);

  /// Re-injects a management-plane payload (a flit drained from a dead
  /// hop's retry buffer, on the VC it carries) at the tail of
  /// `egress_port`'s store-and-forward queue; a payload held as bytes is
  /// copied into the slab. Unlike relayed traffic it occupies no ingress
  /// buffer slot — its original slot was already refunded when the dead
  /// hop drained — so no credit is returned when it leaves.
  void inject(std::size_t egress_port, const transport::Endpoint::TxItem& item);

  /// Moves every parked payload of `flow_id` from one egress queue to
  /// another (reroute switchover), preserving FIFO order, each payload's
  /// ingress-slot attribution and its slab slot. Returns the number moved.
  std::size_t migrate_pending(std::size_t from_port, std::size_t to_port,
                              std::uint16_t flow_id);

  /// True when any egress queue parks a payload of `flow_id` (the reroute
  /// quiesce probe, paired with Endpoint::tx_holds_flow).
  [[nodiscard]] bool has_flow_queued(std::uint16_t flow_id) const;

  [[nodiscard]] transport::Endpoint& port(std::size_t i) {
    return *ports_[i].endpoint;
  }
  [[nodiscard]] const transport::Endpoint& port(std::size_t i) const {
    return *ports_[i].endpoint;
  }
  [[nodiscard]] std::size_t ports() const noexcept { return ports_.size(); }
  /// Snapshot of the port's counters (live occupancy and endpoint credit
  /// stalls are sampled at call time).
  [[nodiscard]] RelayPortStats port_stats(std::size_t i) const;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// --- Test instrumentation (not used by the relay's logic) ---
  /// Payloads parked as bytes in the slab right now.
  [[nodiscard]] std::size_t debug_slab_in_use() const noexcept {
    return slab_.size() - slab_free_.size();
  }

  /// Attaches the relay's routing fabric (enqueue/no-route decisions) to a
  /// flit-lifecycle trace sink as `component`. Port endpoints are traced
  /// separately via their own Endpoint::set_trace. Null detaches; emission
  /// is a no-op branch when detached.
  void set_trace(obs::TraceSink* sink, std::uint16_t component) noexcept {
    trace_ = sink;
    trace_component_ = component;
  }

 private:
  /// A payload parked between acceptance and re-origination, remembering
  /// the ingress port whose buffer slot (credit) it occupies and, for a
  /// payload held as bytes, the slab slot that holds them. Injected
  /// (drained-and-rerouted) payloads carry kNoIngress: they own no slot.
  static constexpr std::uint32_t kNoIngress = UINT32_MAX;
  static constexpr std::uint32_t kNoSlab = UINT32_MAX;  ///< by reference
  struct Pending {
    sim::StreamTag tag;
    std::uint32_t ingress = 0;
    std::uint32_t slab = kNoSlab;
  };
  static_assert(std::is_trivially_copyable_v<Pending> &&
                    sizeof(Pending) == 32,
                "parked payloads ride RingQueues as a 32 B block copy");
  using PayloadBytes = std::array<std::uint8_t, kPayloadBytes>;
  struct Port {
    std::unique_ptr<transport::Endpoint> endpoint;
    /// Per-VC store-and-forward queues. kFifo parks everything in
    /// queues[0] in arrival order (the legacy shared queue, HOL blocking
    /// and all); kRoundRobin/kDrr park per VC and let the scheduler drain.
    std::array<RingQueue<Pending>, link::kMaxVcs> queues;
    DrrState drr;
    /// Payloads accepted by this port still queued on some egress port —
    /// the credit-bounded occupancy (distinct from `queues`, which hold
    /// what this port will transmit regardless of where it entered) —
    /// total and split by the VC whose partition each slot bills.
    std::size_t in_queue = 0;
    std::array<std::size_t, link::kMaxVcs> in_queue_by_vc{};
    std::uint8_t ecn_marks = 0;  ///< bitmap pushed into the ingress endpoint
    RelayPortStats stats;
  };

  void on_delivered(std::size_t ingress, const sim::FlitEnvelope& envelope);
  transport::Endpoint::RelayPull pull_next(
      std::size_t egress, transport::Endpoint::PayloadOut out);
  [[nodiscard]] static std::size_t total_pending(const Port& port) noexcept;
  void dequeue_front(Port& port, RingQueue<Pending>& queue,
                     transport::Endpoint::PayloadOut out,
                     transport::Endpoint::RelayPull& pull);
  void update_ecn(Port& in_port, std::size_t vc);
  /// Parks a payload held as bytes at the tail of `queue`, its bytes in a
  /// free slab slot, or one held by reference as the reference.
  void park(RingQueue<Pending>& queue, const sim::StreamTag& tag,
            std::uint32_t ingress,
            std::span<const std::uint8_t, kPayloadBytes> bytes);

  // Flit-lifecycle tracing: an inline null check, so a disabled trace
  // costs one predictable branch at each emission site.
  void trace(obs::TraceEventKind kind, std::uint64_t truth,
             std::uint16_t flow, std::uint16_t seq, std::uint8_t vc,
             std::uint32_t arg) noexcept {
    if (trace_ == nullptr) return;
    trace_->emit(trace_component_, queue_.now(), kind, truth, flow, seq, vc,
                 arg);
  }

  sim::EventQueue& queue_;
  std::string name_;
  std::vector<Port> ports_;
  const EgressScheduler scheduler_;
  const std::size_t ecn_threshold_;
  static constexpr std::uint32_t kNoRoute = UINT32_MAX;
  std::vector<std::uint32_t> routes_;    ///< flow_id -> egress port
  /// Payloads held as bytes while they are queued, one slot each; a slot
  /// returns to the free list when its payload is re-originated.
  std::vector<PayloadBytes> slab_;
  std::vector<std::uint32_t> slab_free_;
  obs::TraceSink* trace_ = nullptr;      ///< flit-lifecycle sink (null = off)
  std::uint16_t trace_component_ = 0;
};

}  // namespace rxl::switchdev
