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

  // Ingress pipeline: identical error handling to the single-port switch.
  if (!envelope.pristine) {
    const rs::FecDecodeResult fec = codec_.fec().decode(envelope.flit.bytes());
    if (!fec.accepted()) {
      stats_.dropped_fec += 1;  // silent drop
      return;
    }
    // A corrected image stays non-pristine and is re-encoded at egress, as
    // in SwitchDevice.
    if (fec.status == rs::DecodeStatus::kCorrected) stats_.fec_corrected += 1;
  }
  if (codec_.protocol() == transport::Protocol::kCxl && !envelope.pristine) {
    if (!codec_.check_control(envelope.flit)) {
      stats_.dropped_crc += 1;
      return;
    }
  }

  if (config_.internal_error_rate > 0.0 &&
      rng_.bernoulli(config_.internal_error_rate)) {
    stats_.internal_corruptions += 1;
    flip_bit(envelope.flit.bytes(),
             rng_.bounded((kHeaderBytes + kPayloadBytes) * 8));
    envelope.pristine = false;
  }

  // Egress regeneration, as in SwitchDevice.
  if (!envelope.pristine) {
    if (codec_.protocol() == transport::Protocol::kCxl)
      codec_.regenerate_link_crc(envelope.flit);
    codec_.apply_fec(envelope.flit);
    envelope.pristine = true;
  }

  // Routing stage.
  const std::size_t port = envelope.dest_port;
  if (port >= outputs_.size() || outputs_[port] == nullptr) {
    stats_.dropped_no_route += 1;
    return;
  }
  stats_.flits_forwarded += 1;
  PendingForward& pending =
      forwarding_.park(queue_.now() + config_.forward_latency);
  pending.envelope = envelope;
  pending.output = outputs_[port];
}

}  // namespace rxl::switchdev
