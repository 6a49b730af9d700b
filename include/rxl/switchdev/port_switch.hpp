// Transparent multi-port switching device: the paper's switch model and
// the scale-out building block.
//
// Per the paper (§2.3, §6.4) a switch decodes each incoming flit's FEC,
// discards it silently if uncorrectable, and otherwise re-encodes and
// forwards it. The protocol mode controls what happens to the CRC:
//  * CXL  — the CRC is a link-layer field, so the switch terminates it:
//           it checks the CRC (dropping on mismatch) and *regenerates* it
//           when forwarding. Corruption inside the switch is therefore
//           re-signed and becomes undetectable downstream.
//  * RXL  — the CRC is end-to-end (ECRC): the switch forwards it untouched,
//           so switch-internal corruption is still caught at the endpoint.
// Switches never track sequence numbers in either mode (RXL's design goal).
//
// A PortSwitch is N independent ingress pipelines (FEC decode -> silent
// drop -> regenerate) feeding a routing stage that forwards each surviving
// flit to the egress port selected by the envelope's destination. Real CXL
// switches route on transaction-layer addresses; this model abstracts that
// lookup as simulation metadata (`FlitEnvelope::dest_port`) — the
// reliability behaviour under study is unaffected because routing happens
// after (and independently of) the error handling.
//
// Egress contention is modelled by the output LinkChannels themselves:
// concurrent flits to one port serialise in its slot queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rxl/common/rng.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/sim/parked_fifo.hpp"
#include "rxl/transport/flit_codec.hpp"

namespace rxl::switchdev {

struct PortSwitchStats {
  std::uint64_t flits_in = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t dropped_fec = 0;
  std::uint64_t dropped_crc = 0;       ///< CXL mode only
  std::uint64_t dropped_no_route = 0;  ///< destination port not connected
  std::uint64_t fec_corrected = 0;
  std::uint64_t internal_corruptions = 0;
};

class PortSwitch {
 public:
  struct Config {
    transport::Protocol protocol = transport::Protocol::kRxl;
    double internal_error_rate = 0.0;
    TimePs forward_latency = 10'000;  // 10 ns
    std::size_t ports = 4;
  };

  PortSwitch(sim::EventQueue& queue, const Config& config,
             std::uint64_t rng_seed);

  /// Connects egress port `port` to a channel.
  void set_output(std::size_t port, sim::LinkChannel* output);

  /// Ingress entry point. The ingress port is implicit (stateless
  /// pipelines are identical); routing uses envelope.dest_port.
  void on_flit(sim::FlitEnvelope&& envelope);

  [[nodiscard]] const PortSwitchStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t ports() const noexcept { return outputs_.size(); }

 private:
  /// A routed flit in the forwarding pipeline; the egress channel is
  /// resolved at routing time.
  struct PendingForward {
    sim::FlitEnvelope envelope;
    sim::LinkChannel* output = nullptr;
  };

  sim::EventQueue& queue_;
  Config config_;
  transport::FlitCodec codec_;
  Xoshiro256 rng_;
  std::vector<sim::LinkChannel*> outputs_;
  /// FIFO: constant forward latency.
  sim::ParkedFifo<PendingForward> forwarding_;
  PortSwitchStats stats_;
};

}  // namespace rxl::switchdev
