#include "rxl/transport/endpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace rxl::transport {
namespace {

constexpr std::uint16_t seq_prev(std::uint16_t seq) noexcept {
  return link::seq_add(seq, kSeqMask);  // -1 mod 1024
}

/// RX reorder buffer depth under kSelectiveRepeat (the §5 buffer cost).
constexpr std::size_t kReorderBufferCapacity = 256;

/// RX-side: unadvertised credits below the batch threshold go out as a
/// standalone return flit if no control flit has carried them within this
/// window.
constexpr TimePs kCreditReturnTimeout = 1'000'000;  // 1 us

}  // namespace

Endpoint::Endpoint(sim::EventQueue& queue, const ProtocolConfig& config,
                   std::string name, link::HopCredits credits)
    : queue_(queue),
      config_(config),
      credits_(credits),
      name_(std::move(name)),
      codec_(config.protocol),
      retry_buffer_(config.retry_buffer_capacity),
      rekick_(queue.add_producer([this] {
        kick_scheduled_ = false;
        kick();
      })),
      retry_timer_(queue, [this] { on_retry_timer(); }),
      credit_windows_(credits.tx, credits.vcs),
      credit_probe_timer_(queue, [this] { on_credit_probe_timer(); }),
      last_verified_(kSeqMask),  // "-1": nothing verified yet
      ack_scheduler_(config.coalesce_factor),
      ack_timer_(queue, [this] { on_ack_timer(); }),
      nack_timer_(queue, [this] { on_nack_timer(); }),
      credit_returns_(credits.rx > 0, credits.vcs),
      credit_timer_(queue, [this] { on_credit_timer(); }) {
  if (credits.vcs == 0 || credits.vcs > link::kMaxVcs)
    throw std::invalid_argument(
        "a hop's VC count must be in [1, 8]: each VC's credit word occupies "
        "two CRC-covered control-flit payload bytes");
  if (config_.retry_mode == RetryMode::kSelectiveRepeat) {
    // §5: selective repeat needs explicit sequence numbers to place
    // out-of-order flits; ISN's pass/fail check cannot. This is the
    // trade-off RXL accepts by design.
    if (config_.protocol == Protocol::kRxl)
      throw std::invalid_argument(
          "RXL cannot use selective repeat: ISN carries no explicit "
          "sequence numbers to reorder by (paper §5)");
    reorder_buffer_.emplace(kReorderBufferCapacity);
  }
}

// --------------------------------------------------------------------------
// TX path
// --------------------------------------------------------------------------

void Endpoint::kick() {
  if (output_ == nullptr || kick_scheduled_ || hop_dead_) return;
  // A free wire takes one flit, and then the next kick is due one slot
  // later; a busy wire is waited out. With nothing to send the endpoint
  // idles: ACK arrivals, NACKs and new source data re-kick it.
  if (output_->next_free() <= queue_.now() && !send_one()) return;
  kick_scheduled_ = true;
  queue_.post(rekick_, output_->next_free(), output_->slot());
}

bool Endpoint::send_one() {
  if (hop_dead_) return false;
  // Priority 1: control flits (NACKs must reach the peer promptly).
  if (!control_queue_.empty()) {
    stats_.control_flits_sent += 1;
    output_->send(control_queue_.front(),
                  sim::FlitTags{{}, false, dest_port_, 0,
                                sim::SealState::kUnsealed,
                                /*control_prefix=*/true});
    control_queue_.drop_front();
    return true;
  }
  // Priority 2: selective-repeat single-flit resends.
  while (!single_resends_.empty()) {
    const link::RetryBuffer::Entry* entry =
        retry_buffer_.find_entry(single_resends_.front());
    single_resends_.drop_front();
    if (entry == nullptr) continue;  // already acked/freed; skip
    send_replay(*entry, obs::kRetrySelective);
    return true;
  }
  // Priority 3: go-back-N replay.
  if (replay_cursor_.has_value()) {
    const link::RetryBuffer::Entry* entry =
        retry_buffer_.find_entry(*replay_cursor_);
    if (entry == nullptr) {
      replay_cursor_.reset();
    } else {
      const std::uint16_t next = link::seq_next(entry->seq);
      replay_cursor_ =
          retry_buffer_.find(next) ? std::optional<std::uint16_t>(next)
                                   : std::nullopt;
      send_replay(*entry, obs::kRetryGoBackN);
      return true;
    }
  }
  // Priority 4: new application data (or the relay's store-and-forward
  // queue), window permitting.
  return send_new_data();
}

bool Endpoint::send_new_data() {
  if (!source_ && !relay_source_) return false;
  assert(!(source_ && relay_source_));
  if (retry_buffer_.full()) {
    stats_.tx_stalls += 1;
    return false;
  }
  if (!credit_windows_.any_available()) {
    // Every VC's downstream partition is full as far as the windows know:
    // only a credit return may unblock new data. Replays above are exempt —
    // a replayed flit's slot was charged at first transmission. The probe
    // timer recovers the hop if the peer's final return was corrupted.
    note_credit_stall();
    return false;
  }
  // The slot the flit will occupy is reserved first, so a relay source
  // can write a payload it holds as bytes straight into it; the slot is
  // committed only if a payload came back.
  if (relay_source_) {
    flit::Flit& slot = retry_buffer_.reserve();
    const RelayPull pull = relay_source_(slot.payload());
    if (pull.pulled) {
      send_data_flit(slot, pull);
      return true;
    }
    retry_buffer_.drop_reservation();
    // Nothing schedulable. An empty queue goes idle; a blocked one records
    // the stall and arms the probe so the unblocking signal (a credit
    // return or a mark clear) cannot be lost forever.
    if (pull.credit_blocked) {
      note_credit_stall();
    } else if (pull.ecn_blocked) {
      note_ecn_stall();
    }
    return false;
  }
  if (!credit_windows_.vc(stamp_.vc).available()) {
    note_credit_stall();
    return false;
  }
  if (((ecn_remote_marks_ >> stamp_.vc) & 1u) != 0) {
    note_ecn_stall();
    return false;
  }
  flit::Flit& slot = retry_buffer_.reserve();
  if (!source_(stamp_.truth_index)) {
    retry_buffer_.drop_reservation();
    return false;
  }
  send_data_flit(slot, stamp_);
  stamp_.truth_index += 1;
  return true;
}

void Endpoint::send_replay(const link::RetryBuffer::Entry& entry,
                           std::uint32_t how) {
  stats_.data_flits_retransmitted += 1;
  trace(obs::TraceEventKind::kRetry, entry.truth_index, entry.flow_id,
        entry.seq, entry.vc, how);
  output_->send(entry.flit,
                sim::FlitTags{entry, true, dest_port_,
                              codec_.data_crc_fold(entry.seq),
                              sim::SealState::kUnsealed});
}

void Endpoint::note_credit_stall() {
  if (credit_stalled_) return;
  extra_.credit_stalls += 1;
  credit_stalled_ = true;
  trace(obs::TraceEventKind::kCreditStall, 0, obs::kTraceNoFlow, 0, 0, 0);
  if (config_.retry_timeout > 0 && !credit_probe_timer_.armed())
    credit_probe_timer_.arm(config_.retry_timeout);
}

void Endpoint::note_ecn_stall() {
  if (ecn_stalled_) return;
  extra_.ecn_stalls += 1;
  ecn_stalled_ = true;
  // The probe doubles as the mark-clear liveness net: a fully drained peer
  // with no reverse traffic re-advertises (carrying the cleared bitmap)
  // when probed, so a lost clear can never wedge the VC.
  if (config_.retry_timeout > 0 && !credit_probe_timer_.armed())
    credit_probe_timer_.arm(config_.retry_timeout);
}

void Endpoint::send_data_flit(flit::Flit& canonical,
                              const sim::StreamTag& stream) {
  const std::uint16_t seq = next_seq_;
  const sim::FlitTags tags{stream, true, dest_port_, codec_.data_crc_fold(seq),
                           sim::SealState::kUnsealed};
  // The canonical (replayable) image in its retry slot always carries the
  // explicit/implicit SeqNum with no piggybacked ACK; the wire image on
  // first transmission may substitute an AckNum into the FSN field, and is
  // then a copy with its own header (the header alone when the payload is
  // held by reference; see sim::copy_readable). Both leave unsealed, and a
  // payload held by reference stays unwritten: the channel writes it and
  // seals the flit only if an error hits it.
  codec_.write_data_header(canonical, seq, std::nullopt);

  const flit::Flit* wire = &canonical;
  if (config_.ack_policy == link::AckPolicy::kPiggyback &&
      ack_scheduler_.pending()) {
    if (const std::optional<std::uint16_t> acknum = ack_scheduler_.consume()) {
      sim::copy_readable(piggyback_image_, canonical.bytes(), tags);
      codec_.write_data_header(piggyback_image_, seq, acknum);
      wire = &piggyback_image_;
      stats_.acks_piggybacked += 1;
    }
  }

  retry_buffer_.commit(seq, stream);
  if (credit_windows_.enabled()) {
    assert(credit_windows_.vc(stream.vc).available());  // gated by send_one
    credit_windows_.vc(stream.vc).consume();
    extra_.credits_consumed += 1;
  }
  if (retry_buffer_.size() == 1) last_ack_progress_ = queue_.now();
  arm_retry_timer();

  next_seq_ = link::seq_next(next_seq_);
  stats_.data_flits_sent += 1;
  trace(obs::TraceEventKind::kTx, stream.truth_index, stream.flow_id, seq,
        stream.vc, 0);
  output_->send(*wire, tags);
}

void Endpoint::enqueue_control(flit::ReplayCmd command, std::uint16_t fsn) {
  // Every control flit carries the receive side's cumulative freed-slot
  // counts — one CRC-covered word per VC — plus the absolute ECN mark
  // bitmap, so ACKs and NACKs double as credit returns and mark carriers.
  // Hops without flow control stamp all-zero, keeping their wire image
  // unchanged from the pre-credit encoding. The codec writes the flit's
  // prefix straight into its control-queue slot.
  std::array<std::uint16_t, link::kMaxVcs> words{};
  std::size_t stamped = 0;
  if (credit_returns_.enabled()) {
    stamped = credit_returns_.vcs();
    for (std::size_t vc = 0; vc < stamped; ++vc)
      words[vc] = credit_returns_.vc(vc).returned_total();
    credit_returns_.mark_advertised();
  }
  const ControlCreditStamp stamp{
      std::span<const std::uint16_t>(words.data(), stamped), ecn_local_marks_};
  FlitCodec::write_control(control_queue_.push_back_slot(), command, fsn,
                           stamp);
}

void Endpoint::begin_replay_from(std::uint16_t seq) {
  if (retry_buffer_.find(seq) != nullptr) {
    replay_cursor_ = seq;
  } else if (auto oldest = retry_buffer_.oldest_seq()) {
    // The requested resume point was already released (a premature ACK —
    // possible in baseline CXL when unchecked deliveries inflate the
    // receiver's AckNum). Best effort: replay what we still hold.
    replay_cursor_ = *oldest;
  } else {
    replay_cursor_.reset();
  }
}

void Endpoint::arm_retry_timer() {
  if (retry_timer_.armed() || config_.retry_timeout == 0) return;
  retry_timer_.arm(config_.retry_timeout);
}

void Endpoint::on_retry_timer() {
  if (hop_dead_ || retry_buffer_.empty()) return;
  if (queue_.now() - last_ack_progress_ >= config_.retry_timeout) {
    // No ACK progress for a full timeout: assume a lost ACK/NACK and replay
    // everything outstanding.
    extra_.retry_timeouts += 1;
    stats_.retry_rounds += 1;
    trace(obs::TraceEventKind::kRetry, 0, obs::kTraceNoFlow, 0, 0,
          obs::kRetryTimeout);
    note_silent_episode();
    if (hop_death_due()) {
      declare_hop_dead();
      return;
    }
    last_ack_progress_ = queue_.now();
    if (auto oldest = retry_buffer_.oldest_seq()) begin_replay_from(*oldest);
    kick();
  }
  arm_retry_timer();
}

void Endpoint::arm_ack_timer() {
  if (ack_timer_.armed() || config_.ack_timeout == 0) return;
  ack_timer_.arm(config_.ack_timeout);
}

void Endpoint::on_ack_timer() {
  if (!ack_scheduler_.pending()) return;
  // No reverse data flit picked the ACK up in time: flush it standalone so
  // the peer's replay buffer does not stall.
  if (auto acknum = ack_scheduler_.consume()) {
    extra_.ack_timeout_flushes += 1;
    enqueue_control(flit::ReplayCmd::kAck, *acknum);
    kick();
  }
}

// --------------------------------------------------------------------------
// Credit flow control
// --------------------------------------------------------------------------

unsigned Endpoint::credit_advert_batch() const noexcept {
  // Deep buffers piggyback on the regular ACK cadence; shallow ones return
  // after half a window so a stop-and-wait hop keeps moving.
  const std::size_t half_window = std::max<std::size_t>(1, credits_.rx / 2);
  return static_cast<unsigned>(std::min<std::size_t>(
      ack_scheduler_.coalesce_factor(), half_window));
}

void Endpoint::return_credits(std::uint8_t vc, std::size_t n) {
  if (!credit_returns_.enabled() || n == 0) return;
  for (std::size_t i = 0; i < n; ++i) credit_returns_.vc(vc).on_slot_freed();
  extra_.credits_returned += n;
  flush_credit_returns();
}

bool Endpoint::vc_send_ready(std::size_t vc) const noexcept {
  return credit_windows_.vc(vc).available() &&
         ((ecn_remote_marks_ >> vc) & 1u) == 0;
}

void Endpoint::set_ecn_marks(std::uint8_t marks) {
  if (marks == ecn_local_marks_) return;
  ecn_local_marks_ = marks;
  if (hop_dead_) return;
  // A changed bitmap is worth a standalone advert: throttling late defeats
  // the "before credit exhaustion" purpose, and resuming late strands
  // bandwidth. The advert is the standard credit-return flit — marks ride
  // the same CRC-covered control payload as the cumulative counts.
  if (credit_returns_.enabled()) advertise_credits();
}

void Endpoint::advertise_credits() {
  extra_.credit_adverts += 1;
  enqueue_control(flit::ReplayCmd::kSeqNum, kCreditAdvertFsn);
  kick();
}

void Endpoint::flush_credit_returns() {
  const std::size_t owed = credit_returns_.unadvertised();
  if (owed == 0) return;
  if (owed >= credit_advert_batch()) {
    advertise_credits();
  } else if (!credit_timer_.armed()) {
    credit_timer_.arm(kCreditReturnTimeout);
  }
}

void Endpoint::on_credit_timer() {
  // Stragglers below the batch threshold that no ACK/NACK picked up in
  // time: return them standalone so the peer's window cannot strand.
  if (credit_returns_.unadvertised() == 0) return;
  advertise_credits();
}

void Endpoint::on_credit_probe_timer() {
  if (hop_dead_ || (!credit_stalled_ && !ecn_stalled_)) return;
  // Still starved a full retry timeout after the stall began: the peer's
  // latest return may have been corrupted in transit and nothing else is
  // flowing to heal the cumulative count. Ask it to re-advertise.
  // A probe that goes unanswered by a completely silent peer also counts
  // against the death budget — a dead wire can starve a window with an
  // EMPTY retry buffer (everything acked, returns lost), and without this
  // the retry timer would never run to notice.
  note_silent_episode();
  if (hop_death_due()) {
    declare_hop_dead();
    return;
  }
  extra_.credit_probes += 1;
  enqueue_control(flit::ReplayCmd::kSeqNum, kCreditProbeFsn);
  kick();
  if (config_.retry_timeout > 0) credit_probe_timer_.arm(config_.retry_timeout);
}

void Endpoint::process_vc_credit_word(std::size_t vc,
                                      std::uint16_t credit_word) {
  if (!credit_windows_.enabled()) return;
  const std::size_t granted =
      credit_windows_.vc(vc).on_advertisement(credit_word);
  if (granted == 0) return;
  extra_.credits_granted += granted;
  if (credit_stalled_) {
    credit_stalled_ = false;
    trace(obs::TraceEventKind::kCreditStall, 0, obs::kTraceNoFlow, 0, 0, 1);
    if (!ecn_stalled_) credit_probe_timer_.cancel();
  }
  kick();  // window space opened
}

void Endpoint::process_ecn_marks(std::uint8_t marks) {
  if (marks == ecn_remote_marks_) return;
  const auto newly = static_cast<std::uint8_t>(marks & ~ecn_remote_marks_);
  extra_.ecn_marks_seen +=
      static_cast<std::uint64_t>(std::popcount(static_cast<unsigned>(newly)));
  ecn_remote_marks_ = marks;
  trace(obs::TraceEventKind::kEcnMark, 0, obs::kTraceNoFlow, 0, 0, marks);
  if (ecn_stalled_) {
    ecn_stalled_ = false;
    if (!credit_stalled_) credit_probe_timer_.cancel();
  }
  kick();  // a cleared mark may have opened a VC (a set one costs a no-op)
}

// --------------------------------------------------------------------------
// Failure detection
// --------------------------------------------------------------------------

bool Endpoint::hop_death_due() const noexcept {
  return config_.max_retry_episodes > 0 &&
         silent_episodes_ >= config_.max_retry_episodes;
}

void Endpoint::note_silent_episode() {
  // An episode only counts toward the death budget when the peer sent
  // NOTHING for a whole timeout — a zero-progress ACK or a NACK storm
  // proves the wire and peer are alive (e.g. deep congestion), and must
  // never be escalated into a hop death.
  if (queue_.now() - last_peer_activity_ >= config_.retry_timeout) {
    silent_episodes_ += 1;
  } else {
    silent_episodes_ = 0;
  }
}

void Endpoint::declare_hop_dead() {
  assert(!hop_dead_);
  hop_dead_ = true;
  extra_.hops_declared_dead += 1;
  retry_timer_.cancel();
  ack_timer_.cancel();
  nack_timer_.cancel();
  credit_timer_.cancel();
  credit_probe_timer_.cancel();
  if (credit_stalled_)
    trace(obs::TraceEventKind::kCreditStall, 0, obs::kTraceNoFlow, 0, 0, 1);
  credit_stalled_ = false;
  replay_cursor_.reset();
  single_resends_.clear();
  control_queue_.clear();

  HopDownEvent event;
  event.at = queue_.now();
  event.drained.reserve(retry_buffer_.size());
  retry_buffer_.for_each([&](const link::RetryBuffer::Entry& entry) {
    HopDownEvent::DrainedFlit drained;
    drained.seq = entry.seq;
    static_cast<sim::StreamTag&>(drained.item) = entry;
    // The management plane gets bytes: a payload held by reference is
    // written out here.
    if (entry.payload_of != nullptr) {
      (*entry.payload_of)(entry.truth_index, drained.item.payload);
      drained.item.payload_of = nullptr;
    } else {
      const auto payload = entry.flit.payload();
      std::copy(payload.begin(), payload.end(), drained.item.payload.begin());
    }
    event.drained.push_back(std::move(drained));
  });
  extra_.dead_flits_drained += event.drained.size();
  trace(obs::TraceEventKind::kRerouteDrain, 0, obs::kTraceNoFlow, 0, 0,
        static_cast<std::uint32_t>(event.drained.size()));
  retry_buffer_.clear();
  // Satellite of the same fix as PR 5's no-route drop: every window slot
  // still reserved on this hop (drained flits AND flits delivered whose
  // return can no longer arrive) is refunded, so the conservation ledger
  // closes as consumed == granted + refunded even across a link death.
  extra_.credits_refunded += credit_windows_.refund_outstanding();
  if (hop_down_) hop_down_(std::move(event));
}

// --------------------------------------------------------------------------
// RX path
// --------------------------------------------------------------------------

void Endpoint::on_flit(sim::FlitEnvelope&& envelope) {
  stats_.flits_received += 1;
  // Any arrival — even a corrupted one — proves the wire delivers and the
  // peer transmits: it resets the silent-peer death budget.
  last_peer_activity_ = queue_.now();
  if (hop_dead_) return;  // inert: late arrivals are dropped unprocessed
  // Whatever sealed or flipped a flit widened it to its whole image first,
  // so the real FEC decode and CRC check below only ever read real bytes.
  assert((envelope.payload_of == nullptr && !envelope.control_prefix) ||
         envelope.seal == sim::SealState::kUnsealed);

  // Link-layer FEC at the endpoint's own ingress. Only a touched image can
  // have nonzero syndromes (unsealed images have no FEC to check until an
  // error seals them), so decode is skipped without changing behaviour.
  if (envelope.seal == sim::SealState::kTouched) {
    const rs::FecDecodeResult fec = codec_.fec().decode(envelope.flit.bytes());
    if (!fec.accepted()) {
      stats_.flits_discarded_fec += 1;
      trace_drop(envelope, 0, obs::kDropFec);
      send_nack();
      return;
    }
    if (fec.status == rs::DecodeStatus::kCorrected)
      stats_.fec_corrected_flits += 1;
  }

  const flit::FlitHeader header = envelope.flit.header();
  if (header.type == flit::FlitType::kData) {
    rx_data(std::move(envelope));
  } else {
    // Control, idle, or a data flit whose Type bits were corrupted: the
    // CRC decides (rx_control NACKs on mismatch so no gap goes
    // unsignalled).
    rx_control(envelope);
  }
}

void Endpoint::rx_data(sim::FlitEnvelope&& envelope) {
  const RxCheck check =
      envelope.seal == sim::SealState::kUnsealed
          ? codec_.check_data_unsealed(envelope.flit, envelope.crc_fold,
                                       expected_seq_)
          : codec_.check_data(envelope.flit, expected_seq_);
  if (!check.crc_ok) {
    // RXL: corruption OR sequence mismatch (drop/stale) — same response.
    // CXL: corruption only.
    stats_.flits_discarded_crc += 1;
    trace_drop(envelope, 0, obs::kDropCrc);
    send_nack();
    return;
  }

  if (codec_.protocol() == Protocol::kRxl) {
    // ISN check passed: payload intact AND sequence aligned. The header is
    // covered by the ECRC, so a piggybacked AckNum is trustworthy.
    const flit::FlitHeader header = envelope.flit.header();
    if (header.replay_cmd == flit::ReplayCmd::kAck) process_acknum(header.fsn);
    nack_active_ = false;
    expected_seq_ = link::seq_next(expected_seq_);
    deliver(envelope);
    return;
  }

  // ----- Baseline CXL -----
  if (check.explicit_seq.has_value()) {
    const std::uint16_t seq = *check.explicit_seq;
    if (seq == expected_seq_) {
      last_verified_ = seq;
      nack_active_ = false;
      episode_ahead_discards_ = 0;
      expected_seq_ = link::seq_next(expected_seq_);
      deliver(envelope);
      // Selective repeat: the gap just filled; drain every consecutive
      // buffered successor in order.
      if (reorder_buffer_.has_value()) {
        while (auto buffered = reorder_buffer_->take(expected_seq_)) {
          last_verified_ = expected_seq_;
          expected_seq_ = link::seq_next(expected_seq_);
          deliver(*buffered);
        }
        // Buffered flits beyond ANOTHER gap remain: request the next
        // missing flit right away instead of waiting for a fresh arrival.
        if (reorder_buffer_->size() > 0) send_nack();
      }
    } else if (link::seq_distance(expected_seq_, seq) < 0) {
      // Behind the window: a stale replay of something already delivered.
      extra_.stale_discards += 1;
      trace_drop(envelope, seq, obs::kDropStale);
    } else {
      // Ahead of the window: a gap — some flit was silently dropped.
      if (reorder_buffer_.has_value()) {
        // Selective repeat: hold the arrival and NACK the gap. The NACK is
        // the same kNackGoBackN flit as ever; the transmitter, also in
        // selective-repeat mode, resends only the missing flit.
        reorder_buffer_->insert(seq, std::move(envelope));
        send_nack();
        return;
      }
      stats_.flits_discarded_seq += 1;
      trace_drop(envelope, seq, obs::kDropSeqWindow);
      // Threshold: if the transmitter still held our expected flit, its
      // go-back-N window could put at most `capacity` flits ahead of it on
      // the wire before stalling (and its retry timeout would then replay
      // from the expected flit). Seeing more ahead-flits than that proves
      // the entry is gone (freed by an inflated AckNum).
      const unsigned threshold =
          static_cast<unsigned>(config_.retry_buffer_capacity) + 32;
      if (nack_active_ && ++episode_ahead_discards_ > threshold) {
        // The transmitter has been replaying past our expected flit for a
        // whole window: it no longer holds it (its replay-buffer entry was
        // freed by an AckNum inflated through unchecked deliveries). Real
        // hardware would escalate to link recovery; we skip forward and
        // count the loss so the stream — and the failure statistics —
        // keep flowing.
        extra_.forward_resyncs += 1;
        last_verified_ = seq;
        nack_active_ = false;
        episode_ahead_discards_ = 0;
        expected_seq_ = link::seq_next(seq);
        deliver(envelope);
        return;
      }
      send_nack();
    }
    return;
  }

  // Ack-carrying data flit: NO sequence information on the wire (§4.1).
  process_acknum(envelope.flit.header().fsn);
  if (nack_active_) {
    // The receiver KNOWS it is waiting for a replay (it detected the error
    // itself), so it discards everything until the expected flit returns —
    // standard link-layer replay behaviour. The §4.1 hole below only opens
    // when the loss was SILENT (a switch drop the endpoint never saw).
    extra_.stale_discards += 1;
    trace_drop(envelope, 0, obs::kDropStale);
    return;
  }
  // No error has been *observed*: the receiver forwards the flit and
  // advances ESeqNum even if a silently dropped flit should have come
  // first. This is the ordering vulnerability the paper quantifies.
  extra_.unchecked_deliveries += 1;
  expected_seq_ = link::seq_next(expected_seq_);
  deliver(envelope);
}

void Endpoint::rx_control(const sim::FlitEnvelope& envelope) {
  const flit::Flit& flit = envelope.flit;
  const bool crc_ok =
      envelope.seal == sim::SealState::kUnsealed
          ? codec_.check_control_unsealed(flit, envelope.crc_fold)
          : codec_.check_control(flit);
  if (!crc_ok) {
    // A CRC-failed flit of ANY apparent type triggers a retry request: the
    // header (and with it the Type field) is untrustworthy, so this may
    // have been a data flit whose type bits were corrupted. Without the
    // NACK the gap would be unsignalled and an ack-carrying successor
    // could mask it (§4.1).
    stats_.flits_discarded_crc += 1;
    trace_drop(envelope, 0, obs::kDropCrc);
    send_nack();
    return;
  }
  const flit::FlitHeader header = flit.header();
  for (std::size_t vc = 0; vc < credit_windows_.vcs(); ++vc)
    process_vc_credit_word(vc, control_vc_credit_word(flit, vc));
  // ECN marks only exist on top of credit flow control (they throttle BEFORE
  // window exhaustion), so with credits off the mark byte is ignored — a
  // CXL-resigned corrupted control flit must not conjure phantom marks.
  // Masking to the configured VC count drops corrupt high bits the same way.
  if (credit_windows_.enabled()) {
    const auto vc_mask = static_cast<std::uint8_t>(
        (1u << credit_windows_.vcs()) - 1u);
    process_ecn_marks(static_cast<std::uint8_t>(control_ecn_marks(flit) &
                                                vc_mask));
  }
  switch (header.replay_cmd) {
    case flit::ReplayCmd::kAck:
      process_acknum(header.fsn);
      break;
    case flit::ReplayCmd::kNackGoBackN:
    case flit::ReplayCmd::kNackSingle:
      process_nack(header.fsn);
      break;
    case flit::ReplayCmd::kSeqNum:
      // Credit-management control flit: the credit word above already
      // delivered any return; a probe additionally asks this side to
      // re-advertise its cumulative count (its last return may be lost).
      if (header.fsn == kCreditProbeFsn && credit_returns_.enabled())
        advertise_credits();
      break;
  }
}

void Endpoint::process_acknum(std::uint16_t acknum) {
  const std::size_t released = retry_buffer_.ack_up_to(acknum);
  if (released > 0) {
    trace(obs::TraceEventKind::kAck, 0, obs::kTraceNoFlow, acknum, 0,
          static_cast<std::uint32_t>(released));
    last_ack_progress_ = queue_.now();
    if (silent_episodes_ > 0) {
      // The link flapped (or the peer was wedged) long enough to burn part
      // of the death budget, and real ACK progress resumed: a recovery.
      extra_.flap_recoveries += 1;
      silent_episodes_ = 0;
    }
    // If an in-progress replay now points at released entries, realign it.
    if (replay_cursor_.has_value() &&
        retry_buffer_.find(*replay_cursor_) == nullptr) {
      if (auto oldest = retry_buffer_.oldest_seq()) {
        replay_cursor_ = *oldest;
      } else {
        replay_cursor_.reset();
      }
    }
    kick();  // window space may have opened
  }
}

void Endpoint::process_nack(std::uint16_t last_good) {
  stats_.retry_rounds += 1;
  // A NACK acknowledges everything up to last_good and requests replay of
  // last_good + 1 (and, for go-back-N, everything after it).
  retry_buffer_.ack_up_to(last_good);
  last_ack_progress_ = queue_.now();
  if (config_.retry_mode == RetryMode::kSelectiveRepeat) {
    single_resends_.push_back(link::seq_next(last_good));
  } else {
    begin_replay_from(link::seq_next(last_good));
  }
  kick();
}

void Endpoint::send_nack() {
  const std::uint16_t last_good = (codec_.protocol() == Protocol::kCxl)
                                      ? last_verified_
                                      : seq_prev(expected_seq_);
  if (codec_.protocol() == Protocol::kCxl) {
    // Resynchronise ESeqNum to the resume point: replayed flits will carry
    // explicit SeqNums starting at last_verified_ + 1.
    expected_seq_ = link::seq_next(last_good);
  }
  const std::uint32_t key =
      (static_cast<std::uint32_t>(last_good) << kSeqBits) | expected_seq_;
  if (nack_active_ && key == nack_key_) return;  // one NACK per episode
  if (!nack_active_ || key != nack_key_) episode_ahead_discards_ = 0;
  nack_active_ = true;
  nack_key_ = key;
  last_rx_progress_ = queue_.now();
  stats_.nacks_sent += 1;
  trace(obs::TraceEventKind::kNack, 0, obs::kTraceNoFlow, last_good, 0, 0);
  enqueue_control(flit::ReplayCmd::kNackGoBackN, last_good);
  arm_nack_timer();
  kick();
}

void Endpoint::arm_nack_timer() {
  if (nack_timer_.armed() || config_.nack_retransmit_timeout == 0) return;
  nack_timer_.arm(config_.nack_retransmit_timeout);
}

void Endpoint::on_nack_timer() {
  if (!nack_active_) return;
  if (queue_.now() - last_rx_progress_ >= config_.nack_retransmit_timeout) {
    // Still waiting and nothing accepted since the NACK went out: the NACK
    // or the head of the replay was lost in transit. Re-issue the replay
    // request — this is why real link layers run a replay-request timer.
    const std::uint16_t last_good =
        static_cast<std::uint16_t>((nack_key_ >> kSeqBits) & kSeqMask);
    stats_.nacks_sent += 1;
    trace(obs::TraceEventKind::kNack, 0, obs::kTraceNoFlow, last_good, 0, 1);
    enqueue_control(flit::ReplayCmd::kNackGoBackN, last_good);
    last_rx_progress_ = queue_.now();
    kick();
  }
  arm_nack_timer();
}

void Endpoint::deliver(const sim::FlitEnvelope& envelope) {
  stats_.flits_delivered += 1;
  trace(obs::TraceEventKind::kDeliver, envelope.truth_index, envelope.flow_id,
        seq_prev(expected_seq_), envelope.vc, 0);
  last_rx_progress_ = queue_.now();
  if (deliver_) deliver_(envelope);
  // Terminal consumption frees the notional one-deep receive buffer at
  // once; count the free BEFORE scheduling the ACK so an ACK due this very
  // delivery carries the freshest cumulative count (piggybacked return).
  // The free is attributed to the VC the delivered flit rode in on.
  const bool auto_return =
      credit_returns_.enabled() && !deferred_credit_return_;
  if (auto_return) {
    credit_returns_.vc(envelope.vc).on_slot_freed();
    extra_.credits_returned += 1;
  }
  ack_scheduler_.on_delivered(seq_prev(expected_seq_));
  if (config_.ack_policy == link::AckPolicy::kStandalone) {
    if (auto acknum = ack_scheduler_.consume()) {
      enqueue_control(flit::ReplayCmd::kAck, *acknum);
      kick();
    }
  } else if (ack_scheduler_.pending()) {
    arm_ack_timer();
  }
  if (auto_return) flush_credit_returns();
}

void Endpoint::debug_arm_ack(std::uint16_t acknum) {
  ack_scheduler_.force(acknum);
}

}  // namespace rxl::transport
