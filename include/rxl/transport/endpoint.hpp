// Protocol endpoint: transmit pipeline (sequence numbering, replay buffer,
// go-back-N retry, ACK piggybacking/coalescing) and receive pipeline
// (per-hop FEC, CRC/ECRC validation, in-order delivery, NACK generation).
//
// One class serves both stacks; the differences are confined to the flit
// codec and the receive-side sequence check:
//  * CXL  (paper §4.1): a data flit is sequence-checked ONLY when its FSN
//    field carries the explicit SeqNum. Ack-carrying data flits are
//    delivered after a data-integrity check alone, so a silent drop
//    immediately before such a flit produces an undetected ordering
//    violation — reproduced faithfully here.
//  * RXL  (paper §6): every data flit is validated against the receiver's
//    expected sequence number through the ISN ECRC; drops are detected on
//    the next arriving flit, whatever its header carries.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rxl/common/ring_queue.hpp"
#include "rxl/link/credit.hpp"
#include "rxl/link/link_layer.hpp"
#include "rxl/link/reorder_buffer.hpp"
#include "rxl/link/retry_buffer.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/obs/trace.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/sim/inline_delegate.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/sim/payload_fn.hpp"
#include "rxl/sim/timer.hpp"
#include "rxl/transport/config.hpp"
#include "rxl/transport/flit_codec.hpp"

namespace rxl::transport {

/// Extra endpoint counters beyond link::EndpointStats.
struct EndpointExtraStats {
  std::uint64_t unchecked_deliveries = 0;  ///< CXL: ack-carrying data accepted
  std::uint64_t stale_discards = 0;        ///< replayed flits behind ESeq
  std::uint64_t retry_timeouts = 0;        ///< TX timeout-driven replays
  std::uint64_t ack_timeout_flushes = 0;   ///< coalesced ACK sent standalone
  /// CXL only: the receiver abandoned a flit the transmitter no longer held
  /// (its replay buffer entry was freed by an ack inflated through unchecked
  /// deliveries) and skipped forward. The flit is lost — an application-
  /// visible Fail_order consequence of the §4.1 design.
  std::uint64_t forward_resyncs = 0;
  /// --- Credit flow control (all zero on hops without credits) ---
  /// Stall episodes: the TX wanted to transmit and found the window empty.
  /// The gate runs before the (side-effecting) source is consulted, so the
  /// window emptying exactly on a stream's final flit can record one extra
  /// end-of-stream episode; the probes that follow are intentional — they
  /// restore the window even when the stream is done, which is what closes
  /// the lost-final-return conservation hole.
  std::uint64_t credit_stalls = 0;
  std::uint64_t credits_consumed = 0; ///< first transmissions charged
  std::uint64_t credits_granted = 0;  ///< returns that reached this TX
  std::uint64_t credits_returned = 0; ///< RX buffer slots freed upstream
  std::uint64_t credit_adverts = 0;   ///< standalone credit-return flits
  std::uint64_t credit_probes = 0;    ///< stalled-TX re-advertise requests
  /// --- ECN-style early backpressure (zero unless the peer relay marks) ---
  std::uint64_t ecn_marks_seen = 0;   ///< VC mark transitions observed at TX
  std::uint64_t ecn_stalls = 0;       ///< TX throttle episodes (marked VCs)
  /// --- Failure detection (all zero unless fault injection is enabled) ---
  std::uint64_t hops_declared_dead = 0;  ///< retry budget exhausted (0 or 1)
  std::uint64_t dead_flits_drained = 0;  ///< entries handed to HopDownEvent
  std::uint64_t credits_refunded = 0;    ///< window slots refunded at drain
  std::uint64_t flap_recoveries = 0;     ///< ACK progress after >=1 silent episode
};

class Endpoint {
 public:
  /// Application delivery of an accepted flit. The envelope carries the
  /// simulation ground truth scoreboards match on, and the payload: held by
  /// reference (`payload_of` non-null) unless an error touched the flit on
  /// some hop, so a hook that reads bytes takes them from
  /// sim::payload_bytes. Called once per delivered flit, so it must not
  /// allocate: captures are trivially copyable and inline.
  using DeliverFn =
      sim::InlineDelegate<void(const sim::FlitEnvelope& envelope)>;
  /// The 240 B payload area of the retry-buffer slot a new flit will
  /// occupy. A relay source writes a payload it holds as bytes straight
  /// into it; the endpoint then writes the header around it in place.
  using PayloadOut = std::span<std::uint8_t, kPayloadBytes>;
  /// Pull-model traffic source gate: true when stream position
  /// `truth_index` is offered now, false when (currently) out of data. The
  /// payload is never written: the flit carries the PayloadFn given to
  /// set_source by reference. Called once per new flit, so it must not
  /// allocate: captures are trivially copyable and inline.
  using SourceFn = sim::InlineDelegate<bool(std::uint64_t truth_index)>;
  /// A relayed payload with the stream identity that must survive the hop
  /// (DAG relays route on flow_id and queue by vc; scoreboards match on
  /// truth_index). A dead hop's drain hands these to the reroute
  /// controller, which injects them into a relay (whose queues park the
  /// stream tag alone, and the bytes of a payload held as bytes in a slab).
  struct TxItem : sim::StreamTag {
    /// The bytes, unwritten while the payload is held by reference.
    alignas(8) std::array<std::uint8_t, kPayloadBytes> payload{};
  };
  /// Result of one relay-source pull. `pulled` says whether a payload was
  /// handed over, and the stream tag then describes it (`out` was written
  /// only if the payload is held as bytes). Otherwise the flags say WHY, so
  /// the endpoint can distinguish an empty queue (go idle) from a blocked
  /// one (record the stall and arm the probe that guarantees the unblock
  /// signal cannot be lost).
  struct RelayPull : sim::StreamTag {
    bool pulled = false;
    bool credit_blocked = false;  ///< a queued VC's window partition is empty
    bool ecn_blocked = false;     ///< queued VCs blocked only by ECN marks
  };
  static_assert(sizeof(TxItem) == 264 && sizeof(RelayPull) == 24);
  /// Pull-model relay source (exclusive with SourceFn): hands over the
  /// next schedulable payload (the relay's egress scheduler picks the VC),
  /// writing it into `out` only if it is held as bytes, or returns an empty
  /// pull with the blocked flags set.
  using RelaySourceFn = sim::InlineDelegate<RelayPull(PayloadOut out)>;

  /// Raised at most once, when the TX exhausts its retry budget
  /// (ProtocolConfig::max_retry_episodes) and declares its hop dead.
  /// Carries every sent-but-unacked flit, oldest first, so a management
  /// plane (DagFabric's reroute controller) can re-originate the stream on
  /// a surviving path. After the event the endpoint is inert: it never
  /// transmits again and ignores late arrivals.
  struct HopDownEvent {
    TimePs at = 0;  ///< detection time (not the underlying fault time)
    struct DrainedFlit {
      std::uint16_t seq = 0;  ///< hop-local sequence number (reconciliation)
      TxItem item;  ///< payload (as bytes) + ground truth, ready to re-send
    };
    std::vector<DrainedFlit> drained;  ///< oldest -> newest
  };
  /// Fires at most once per hop, at its death. Like every hook, its
  /// captures are trivially copyable and inline.
  using HopDownFn = sim::InlineDelegate<void(HopDownEvent&&)>;

  /// `credits` is this termination's flow-control provisioning (plan_dag
  /// decides it per fabric hop); the default is no flow control on one VC.
  Endpoint(sim::EventQueue& queue, const ProtocolConfig& config,
           std::string name, link::HopCredits credits = {});

  void set_output(sim::LinkChannel* output) noexcept { output_ = output; }
  /// Destination routing tag stamped on every outgoing envelope (consumed
  /// by multi-port switches; stands in for address-based routing).
  void set_dest_port(std::uint16_t port) noexcept { dest_port_ = port; }
  void set_deliver(DeliverFn deliver) { deliver_ = deliver; }
  /// Installs a stream source: `gate` says whether a stream position is
  /// offered, and every flit it admits carries `stream` (its flow, its VC
  /// and its payload by reference, which must outlive every flit of the
  /// stream, retries and relay queues included), numbered on from
  /// `stream.truth_index`.
  void set_source(SourceFn gate, const sim::StreamTag& stream) {
    assert(stream.payload_of != nullptr);
    source_ = gate;
    stamp_ = stream;
  }
  /// Installs a relay source. Exclusive with set_source: an endpoint either
  /// originates a stream or re-originates a relayed one, never both.
  void set_relay_source(RelaySourceFn source) { relay_source_ = source; }

  /// Installs the hop-death handler (fault injection's management plane).
  void set_hop_down(HopDownFn handler) { hop_down_ = handler; }

  /// True once this TX has declared its hop dead and gone inert.
  [[nodiscard]] bool hop_dead() const noexcept { return hop_dead_; }

  /// Management-plane probe: does the replay buffer still hold any flit of
  /// `flow`? The fabric's reroute quiesce waits for downstream hops to
  /// answer no before swapping a flow onto its backup path.
  [[nodiscard]] bool tx_holds_flow(std::uint16_t flow) const noexcept {
    return retry_buffer_.holds_flow(flow);
  }

  /// Defers credit return: received payloads enter an external bounded
  /// buffer (a relay's store-and-forward queue) whose owner calls
  /// return_credits() when slots free, instead of the default terminal
  /// behaviour of returning each credit at delivery (instant consumption).
  void set_deferred_credit_return(bool deferred) noexcept {
    deferred_credit_return_ = deferred;
  }

  /// Returns `n` of `vc`'s receive-buffer credits to the upstream
  /// transmitter (no-op when the hop runs without flow control). Called by
  /// the bounded-buffer owner when payloads leave the buffer.
  void return_credits(std::uint8_t vc, std::size_t n);

  /// True when a NEW data flit may be injected on `vc` right now: the VC's
  /// window partition has a credit and the peer has not ECN-marked it.
  /// Replays are exempt from both gates. The relay's egress scheduler polls
  /// this to skip blocked VCs instead of head-of-line blocking on them.
  [[nodiscard]] bool vc_send_ready(std::size_t vc) const noexcept;

  /// Sets the absolute per-VC ECN mark bitmap this receive side carries on
  /// every outbound control flit (the relay owns the occupancy thresholds).
  /// A changed bitmap is pushed out promptly on a standalone advert so the
  /// upstream transmitter throttles (or resumes) without waiting for the
  /// next ACK.
  void set_ecn_marks(std::uint8_t marks);

  /// Starts the transmit loop (idempotent; also used to re-kick after the
  /// source gains data).
  void kick();

  /// Receive entry point; wire as the inbound channel's receiver.
  void on_flit(sim::FlitEnvelope&& envelope);

  /// Attaches this endpoint to a flit-lifecycle trace sink as `component`.
  /// Null (the default) keeps every emission site a single no-op branch —
  /// trajectories and pinned bench tables are untouched.
  void set_trace(obs::TraceSink* sink, std::uint16_t component) noexcept {
    trace_ = sink;
    trace_component_ = component;
  }
  [[nodiscard]] std::uint16_t trace_component() const noexcept {
    return trace_component_;
  }

  [[nodiscard]] const link::EndpointStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const EndpointExtraStats& extra_stats() const noexcept {
    return extra_;
  }
  /// Consistent counter-snapshot shape (the metrics registry's endpoint
  /// surface): both counter structs, copied by value at capture time.
  struct Snapshot {
    link::EndpointStats link;
    EndpointExtraStats extra;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept { return {stats_, extra_}; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const link::HopCredits& credits() const noexcept {
    return credits_;
  }

  /// The receive side's expected sequence number (ESeqNum): the reroute
  /// controller reconciles a dead hop's drained flits against it.
  [[nodiscard]] std::uint16_t expected_seq() const noexcept {
    return expected_seq_;
  }

  /// --- Test instrumentation (not used by protocol logic) ---
  /// Forces a pending cumulative ACK so the next data flit piggybacks it
  /// (deterministic reproduction of the paper's Fig. 4/5 traces).
  void debug_arm_ack(std::uint16_t acknum);
  [[nodiscard]] std::uint16_t debug_next_seq() const noexcept {
    return next_seq_;
  }
  [[nodiscard]] std::size_t debug_retry_buffer_size() const noexcept {
    return retry_buffer_.size();
  }
  [[nodiscard]] std::size_t debug_credit_balance() const noexcept {
    return credit_windows_.vc(0).balance();
  }
  /// Per-VC transmit windows / return ledgers, for the conservation
  /// invariants (consumed == returned per VC) asserted by tests.
  [[nodiscard]] const link::VcCreditWindows& credit_windows() const noexcept {
    return credit_windows_;
  }
  [[nodiscard]] const link::VcCreditReturnLedgers& credit_ledgers()
      const noexcept {
    return credit_returns_;
  }

 private:
  // TX path.
  bool send_one();
  bool send_new_data();
  void send_data_flit(flit::Flit& canonical, const sim::StreamTag& stream);
  void send_replay(const link::RetryBuffer::Entry& entry, std::uint32_t how);
  void note_credit_stall();
  void note_ecn_stall();
  void enqueue_control(flit::ReplayCmd command, std::uint16_t fsn);
  void begin_replay_from(std::uint16_t seq);
  void arm_retry_timer();
  void on_retry_timer();
  void arm_ack_timer();
  void on_ack_timer();

  // Credit flow control (see link/credit.hpp for the scheme).
  /// Owed credits that trigger a standalone return flit when no ACK/NACK
  /// has carried the count first.
  [[nodiscard]] unsigned credit_advert_batch() const noexcept;
  /// Sends the counts and marks on a standalone credit-advert flit.
  void advertise_credits();
  void flush_credit_returns();
  void on_credit_timer();
  void on_credit_probe_timer();
  void process_vc_credit_word(std::size_t vc, std::uint16_t credit_word);
  void process_ecn_marks(std::uint8_t marks);

  // Failure detection (fault injection).
  [[nodiscard]] bool hop_death_due() const noexcept;
  void note_silent_episode();
  void declare_hop_dead();

  // Flit-lifecycle tracing. The null check lives inline so a disabled
  // trace costs one predictable branch at each emission site.
  void trace(obs::TraceEventKind kind, std::uint64_t truth,
             std::uint16_t flow, std::uint16_t seq, std::uint8_t vc,
             std::uint32_t arg) noexcept {
    if (trace_ == nullptr) return;
    trace_->emit(trace_component_, queue_.now(), kind, truth, flow, seq, vc,
                 arg);
  }
  /// A received flit's drop, attributed from its tags (sim::trace_drop).
  void trace_drop(const sim::FlitTags& tags, std::uint16_t seq,
                  std::uint32_t reason) noexcept {
    sim::trace_drop(trace_, trace_component_, queue_.now(), tags, seq, reason);
  }

  // RX path.
  void rx_data(sim::FlitEnvelope&& envelope);
  void rx_control(const sim::FlitEnvelope& envelope);
  void process_acknum(std::uint16_t acknum);
  void process_nack(std::uint16_t last_good);
  void send_nack();
  void arm_nack_timer();
  void on_nack_timer();
  /// Hands an accepted flit up, then frees its receive slot (unless the
  /// relay owns the buffer) and schedules its ACK.
  void deliver(const sim::FlitEnvelope& envelope);

  sim::EventQueue& queue_;
  ProtocolConfig config_;
  link::HopCredits credits_;
  std::string name_;
  FlitCodec codec_;

  // TX state.
  sim::LinkChannel* output_ = nullptr;
  std::uint16_t dest_port_ = 0;
  std::uint16_t next_seq_ = 0;  ///< sequence number of the next new flit
  link::RetryBuffer retry_buffer_;
  std::optional<std::uint16_t> replay_cursor_;
  RingQueue<std::uint16_t> single_resends_;  ///< selective-repeat requests
  /// Control flits waiting to go out, each as its 24 B prefix.
  RingQueue<flit::ControlPrefix> control_queue_;
  /// The wire copy of a first transmission that piggybacks an AckNum (the
  /// retry slot keeps the canonical, ack-free image).
  flit::Flit piggyback_image_;
  SourceFn source_;
  sim::StreamTag stamp_;  ///< identity of the next flit SourceFn admits
  RelaySourceFn relay_source_;
  bool kick_scheduled_ = false;
  sim::EventQueue::Producer rekick_;  ///< clears kick_scheduled_, kicks
  sim::Timer retry_timer_;
  TimePs last_ack_progress_ = 0;
  link::VcCreditWindows credit_windows_;
  bool credit_stalled_ = false;  ///< TX wanted a new flit, window was empty
  bool ecn_stalled_ = false;     ///< TX blocked only by an ECN mark
  std::uint8_t ecn_remote_marks_ = 0;  ///< peer's mark bitmap, absolute
  sim::Timer credit_probe_timer_;
  // Failure detection state. A "silent episode" is a retry or credit-probe
  // timeout that fired while the peer had sent NOTHING for a full
  // retry_timeout — consecutive silent episodes are the death budget.
  HopDownFn hop_down_;
  bool hop_dead_ = false;
  unsigned silent_episodes_ = 0;
  TimePs last_peer_activity_ = 0;  ///< any arrival on this hop's RX side

  // RX state.
  std::uint16_t expected_seq_ = 0;   ///< ESeqNum
  std::uint16_t last_verified_ = kSeqMask;  ///< CXL: last explicit-seq match
  link::AckScheduler ack_scheduler_;
  sim::Timer ack_timer_;
  bool nack_active_ = false;
  std::uint32_t nack_key_ = 0;
  sim::Timer nack_timer_;
  TimePs last_rx_progress_ = 0;
  /// Ahead-of-window discards within the current resync episode; past a
  /// threshold the expected flit is declared unrecoverable (see
  /// forward_resyncs above).
  unsigned episode_ahead_discards_ = 0;
  link::VcCreditReturnLedgers credit_returns_;
  bool deferred_credit_return_ = false;
  std::uint8_t ecn_local_marks_ = 0;  ///< bitmap stamped on control flits
  sim::Timer credit_timer_;
  /// Allocated only in kSelectiveRepeat mode (CXL only).
  std::optional<link::ReorderBuffer> reorder_buffer_;
  DeliverFn deliver_;

  link::EndpointStats stats_;
  EndpointExtraStats extra_;

  // Flit-lifecycle tracing (null = off; see obs/trace.hpp).
  obs::TraceSink* trace_ = nullptr;
  std::uint16_t trace_component_ = 0;
};

}  // namespace rxl::transport
