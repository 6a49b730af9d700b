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
// end-to-end ground truth (truth_index, flow_id) rides the envelope across
// the re-origination so scoreboards still observe the original stream.
//
// Accepting a flit transfers responsibility to this relay (the upstream hop
// is ACKed and may free its replay buffer). The store-and-forward buffering
// is BOUNDED when the ingress hop runs credit flow control: the upstream
// transmitter holds `rx_credits` credits for this relay's buffer, each
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
  /// bounds (<= the hop's rx_credits whenever flow control is on).
  std::uint64_t ingress_high_water = 0;
  std::uint64_t queue_occupancy = 0;  ///< egress queue depth at capture time
  /// The port endpoint's TX credit-stall episodes (next hop's buffer full),
  /// mirrored from its EndpointExtraStats for one-stop congestion reports.
  std::uint64_t credit_stalls = 0;
  /// Per-VC split of ingress_high_water: peak occupancy each VC partition
  /// reached (<= rx_credits per VC whenever flow control is on).
  std::array<std::uint64_t, link::kMaxVcs> vc_ingress_high_water{};
  /// ECN hysteresis transitions on this ingress port's VCs.
  std::uint64_t ecn_mark_events = 0;   ///< occupancy crossed the threshold
  std::uint64_t ecn_clear_events = 0;  ///< occupancy fell to threshold/2
};

class RelaySwitch {
 public:
  RelaySwitch(sim::EventQueue& queue, std::string name);

  /// Adds a port with its own link-termination endpoint; returns its index.
  /// The caller wires the port endpoint's channels (set_output + the inbound
  /// channel's receiver). The port config's rx_credits is the bounded
  /// store-and-forward depth offered to the ingress hop (0 = unbounded).
  /// Ports must all be added before traffic starts.
  std::size_t add_port(const transport::ProtocolConfig& config);

  /// Routes `flow_id` out of `egress_port` (deterministic table routing).
  /// Also used mid-run by the fabric's reroute controller to swap a flow
  /// onto its backup path after a hop death.
  void set_route(std::uint16_t flow_id, std::size_t egress_port);

  /// Maps `flow_id` onto a virtual channel (default: VC 0). The VC decides
  /// which per-VC queue parks the flow's payloads, which credit partition
  /// they bill, and which ECN mark throttles them.
  void set_flow_vc(std::uint16_t flow_id, std::uint8_t vc);

  /// Egress scheduling policy for every port of this relay (default kFifo,
  /// the legacy-identical shared queue).
  void set_egress_policy(EgressPolicy policy) noexcept {
    scheduler_.set_policy(policy);
  }
  [[nodiscard]] EgressPolicy egress_policy() const noexcept {
    return scheduler_.policy();
  }

  /// DRR weight for `vc` (default 1). The scheduler's quantum floor serves
  /// even weight-0 VCs one flit per round.
  void set_vc_weight(std::size_t vc, std::uint32_t weight) noexcept {
    scheduler_.set_weight(vc, weight);
  }

  /// Re-injects a management-plane payload (a flit drained from a dead
  /// hop's retry buffer) at the tail of `egress_port`'s store-and-forward
  /// queue. Unlike relayed traffic it occupies no ingress buffer slot —
  /// its original slot was already refunded when the dead hop drained —
  /// so no credit is returned when it leaves.
  void inject(std::size_t egress_port, transport::Endpoint::TxItem item);

  /// Moves every parked payload of `flow_id` from one egress queue to
  /// another (reroute switchover), preserving FIFO order and each
  /// payload's ingress-slot attribution. Returns the number moved.
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
  /// Unified snapshot API — the name every stats producer shares (see
  /// Endpoint::snapshot / LinkChannel::snapshot); alias of port_stats.
  [[nodiscard]] RelayPortStats snapshot(std::size_t i) const {
    return port_stats(i);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Attaches the relay's routing fabric (enqueue/no-route decisions) to a
  /// flit-lifecycle trace sink as `component`. Port endpoints are traced
  /// separately via their own Endpoint::set_trace. Null detaches; emission
  /// is a no-op branch when detached.
  void set_trace(obs::TraceSink* sink, std::uint16_t component) noexcept {
    trace_ = sink;
    trace_component_ = component;
  }
  [[nodiscard]] std::uint16_t trace_component() const noexcept {
    return trace_component_;
  }

 private:
  /// A payload parked between acceptance and re-origination, remembering
  /// the ingress port whose buffer slot (credit) it occupies. Injected
  /// (drained-and-rerouted) payloads carry kNoIngress: they own no slot.
  static constexpr std::uint32_t kNoIngress = UINT32_MAX;
  struct Pending {
    transport::Endpoint::TxItem item;
    std::uint32_t ingress = 0;
  };
  static_assert(std::is_trivially_copyable_v<Pending>,
                "parked payloads ride RingQueues as a block copy");
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

  void on_delivered(std::size_t ingress, std::span<const std::uint8_t> payload,
                    const sim::FlitEnvelope& envelope);
  transport::Endpoint::RelayPull pull_next(
      std::size_t egress, transport::Endpoint::PayloadOut out);
  [[nodiscard]] std::uint8_t vc_of(std::uint16_t flow_id) const noexcept;
  [[nodiscard]] static std::size_t total_pending(const Port& port) noexcept;
  void dequeue_front(Port& port, RingQueue<Pending>& queue,
                     transport::Endpoint::PayloadOut out,
                     transport::Endpoint::RelayPull& pull);
  void update_ecn(Port& in_port, std::size_t vc);

  // Flit-lifecycle tracing (see transport/endpoint.hpp for the pattern:
  // inline null check, out-of-line record path).
  void trace(obs::TraceEventKind kind, std::uint64_t truth,
             std::uint16_t flow, std::uint16_t seq, std::uint8_t vc,
             std::uint32_t arg) noexcept {
    if (trace_ == nullptr) return;
    trace_record(kind, truth, flow, seq, vc, arg);
  }
  void trace_record(obs::TraceEventKind kind, std::uint64_t truth,
                    std::uint16_t flow, std::uint16_t seq, std::uint8_t vc,
                    std::uint32_t arg) noexcept;

  sim::EventQueue& queue_;
  std::string name_;
  std::vector<Port> ports_;
  EgressScheduler scheduler_;
  static constexpr std::uint32_t kNoRoute = UINT32_MAX;
  std::vector<std::uint32_t> routes_;    ///< flow_id -> egress port
  std::vector<std::uint8_t> flow_vcs_;   ///< flow_id -> VC (default 0)
  obs::TraceSink* trace_ = nullptr;      ///< flit-lifecycle sink (null = off)
  std::uint16_t trace_component_ = 0;
};

}  // namespace rxl::switchdev
