#include "rxl/switchdev/switch_device.hpp"

#include "rxl/common/bytes.hpp"

namespace rxl::switchdev {

SwitchDevice::SwitchDevice(sim::EventQueue& queue, const Config& config,
                           std::uint64_t rng_seed)
    : queue_(queue),
      config_(config),
      codec_(config.protocol),
      rng_(rng_seed),
      forwarding_(queue, [this](sim::FlitEnvelope&& envelope) {
        output_->send(envelope);
      }) {}

void SwitchDevice::on_flit(sim::FlitEnvelope&& envelope) {
  stats_.flits_in += 1;

  // --- Ingress FEC. Pristine images are valid codewords by construction
  // (zero syndromes), so the decode is skipped without changing behaviour.
  if (!envelope.pristine) {
    const rs::FecDecodeResult fec = codec_.fec().decode(envelope.flit.bytes());
    if (!fec.accepted()) {
      stats_.dropped_fec += 1;  // the silent drop at the heart of the paper
      return;
    }
    // A corrected image stays non-pristine, so egress regeneration runs. A
    // true correction restores the exact encoded image: the CXL CRC check
    // below passes, and the re-encode writes the same CRC and FEC bytes. A
    // miscorrection (a different but internally consistent codeword) meets
    // the CRC check like any other non-pristine image.
    if (fec.status == rs::DecodeStatus::kCorrected) stats_.fec_corrected += 1;
  }

  // --- CXL only: the switch terminates the link-layer CRC.
  if (codec_.protocol() == transport::Protocol::kCxl && !envelope.pristine) {
    // Data and control flits both carry the plain link CRC in CXL.
    if (!codec_.check_control(envelope.flit)) {
      stats_.dropped_crc += 1;
      return;
    }
  }

  // --- Internal corruption (buffer upset / switching-logic error) strikes
  // between ingress checks and egress regeneration.
  if (config_.internal_error_rate > 0.0 &&
      rng_.bernoulli(config_.internal_error_rate)) {
    stats_.internal_corruptions += 1;
    const std::size_t bit =
        rng_.bounded((kHeaderBytes + kPayloadBytes) * 8);  // data path only
    flip_bit(envelope.flit.bytes(), bit);
    envelope.pristine = false;
  }

  // --- Egress regeneration.
  if (codec_.protocol() == transport::Protocol::kCxl) {
    if (!envelope.pristine) {
      // Link-layer CRC is regenerated over whatever the switch now holds —
      // this is what makes internal corruption invisible to the endpoint.
      codec_.regenerate_link_crc(envelope.flit);
      codec_.apply_fec(envelope.flit);
      envelope.pristine = true;
    }
  } else {
    // RXL: ECRC passes through untouched; only the FEC is refreshed when the
    // image changed (a corrected image is already a valid codeword, but an
    // internally corrupted one is not).
    if (!envelope.pristine) {
      codec_.apply_fec(envelope.flit);
      // The image is now a valid codeword again for the next hop's FEC —
      // pristine in the FEC sense — but the ECRC may no longer match the
      // originator's. Mark pristine so the next hop skips FEC decode; the
      // endpoint always evaluates the real ECRC on the real bytes.
      envelope.pristine = true;
    }
  }

  stats_.flits_forwarded += 1;
  if (output_ == nullptr) return;
  forwarding_.park(queue_.now() + config_.forward_latency) = envelope;
}

}  // namespace rxl::switchdev
