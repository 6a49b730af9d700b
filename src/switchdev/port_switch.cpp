#include "rxl/switchdev/port_switch.hpp"

#include <cassert>

#include "rxl/common/bytes.hpp"

namespace rxl::switchdev {

PortSwitch::PortSwitch(sim::EventQueue& queue, const Config& config,
                       std::uint64_t rng_seed)
    : queue_(queue),
      config_(config),
      codec_(config.protocol),
      rng_(rng_seed),
      outputs_(config.ports, nullptr),
      forwarding_(queue, [](PendingForward&& pending) {
        pending.output->send(pending.envelope);
      }) {}

void PortSwitch::set_output(std::size_t port, sim::LinkChannel* output) {
  assert(port < outputs_.size());
  outputs_[port] = output;
}

void PortSwitch::on_flit(sim::FlitEnvelope&& envelope) {
  stats_.flits_in += 1;
  // Only an unsealed flit may hold its payload by reference or a control
  // flit as its prefix: whatever sealed a flit widened it to its whole
  // image first, so the FEC decode and CRC check below read real bytes.
  assert((envelope.payload_of == nullptr && !envelope.control_prefix) ||
         envelope.seal == sim::SealState::kUnsealed);

  // --- Ingress FEC. Only a touched image can have nonzero syndromes, so
  // the decode is skipped on the rest without changing behaviour.
  if (envelope.seal == sim::SealState::kTouched) {
    const rs::FecDecodeResult fec = codec_.fec().decode(envelope.flit.bytes());
    if (!fec.accepted()) {
      stats_.dropped_fec += 1;  // the silent drop at the heart of the paper
      return;
    }
    // A corrected image stays touched, so egress regeneration runs. A true
    // correction restores the exact encoded image: the CXL CRC check below
    // passes, and the re-encode writes the same CRC and FEC bytes. A
    // miscorrection (a different but internally consistent codeword) meets
    // the CRC check like any other touched image.
    if (fec.status == rs::DecodeStatus::kCorrected) stats_.fec_corrected += 1;
  }

  // --- CXL only: the switch terminates the link-layer CRC (data and
  // control flits both carry the plain link CRC in CXL). An untouched image
  // passes it by construction.
  if (codec_.protocol() == transport::Protocol::kCxl &&
      envelope.seal == sim::SealState::kTouched) {
    if (!codec_.check_control(envelope.flit)) {
      stats_.dropped_crc += 1;
      return;
    }
  }

  // --- Internal corruption (buffer upset / switching-logic error) strikes
  // between ingress checks and egress regeneration, on the data path only.
  // The flit is widened to its whole image (a payload held by reference
  // written out, a control flit's tail zeroed) and an unsealed flit is
  // sealed first, so the flip lands on the codeword its sender would have
  // sent.
  if (config_.internal_error_rate > 0.0 &&
      rng_.bernoulli(config_.internal_error_rate)) {
    stats_.internal_corruptions += 1;
    sim::materialize(envelope);
    if (envelope.seal == sim::SealState::kUnsealed)
      flit::seal(envelope.flit, envelope.crc_fold);
    flip_bit(envelope.flit.bytes(),
             rng_.bounded((kHeaderBytes + kPayloadBytes) * 8));
    envelope.seal = sim::SealState::kTouched;
  }

  // --- Egress regeneration. CXL re-signs whatever the switch now holds with
  // a fresh link CRC, which is what makes internal corruption invisible to
  // the endpoint; RXL's ECRC passes through untouched, so only the FEC is
  // refreshed. Either way the image is a valid codeword for the next hop's
  // FEC again; the endpoint always evaluates the real (E)CRC on the real
  // bytes. An unsealed flit crosses the hub unsealed, held the way it
  // arrived: by reference, as a control prefix, or as its image.
  if (envelope.seal == sim::SealState::kTouched) {
    if (codec_.protocol() == transport::Protocol::kCxl)
      codec_.regenerate_link_crc(envelope.flit);
    codec_.apply_fec(envelope.flit);
    envelope.seal = sim::SealState::kCodeword;
  }

  // --- Routing stage.
  const std::size_t port = envelope.dest_port;
  if (port >= outputs_.size() || outputs_[port] == nullptr) {
    stats_.dropped_no_route += 1;
    return;
  }
  stats_.flits_forwarded += 1;
  // The recycled slot takes only the bytes a reader reads: the header of a
  // flit whose payload is held by reference, a control flit's prefix
  // (sim::copy_readable).
  PendingForward& pending =
      forwarding_.park(queue_.now() + config_.forward_latency);
  sim::fill_slot(pending.envelope, envelope.flit.bytes(), envelope);
  pending.output = outputs_[port];
}

}  // namespace rxl::switchdev
