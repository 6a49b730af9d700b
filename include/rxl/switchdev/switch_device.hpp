// Stateless switching device (one direction of one switch stage).
//
// Per the paper (§2.3, §6.4) a switch decodes the incoming flit's FEC,
// discards it silently if uncorrectable, and otherwise re-encodes and
// forwards it. The protocol mode controls what happens to the CRC:
//  * CXL  — the CRC is a link-layer field, so the switch terminates it:
//           it checks the CRC (dropping on mismatch) and *regenerates* it
//           when forwarding. Corruption inside the switch is therefore
//           re-signed and becomes undetectable downstream.
//  * RXL  — the CRC is end-to-end (ECRC): the switch forwards it untouched,
//           so switch-internal corruption is still caught at the endpoint.
// Switches never track sequence numbers in either mode (RXL's design goal).
#pragma once

#include <cstdint>

#include "rxl/common/rng.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/sim/parked_fifo.hpp"
#include "rxl/transport/flit_codec.hpp"

namespace rxl::switchdev {

struct SwitchStats {
  std::uint64_t flits_in = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t dropped_fec = 0;       ///< FEC detected-uncorrectable
  std::uint64_t dropped_crc = 0;       ///< link CRC mismatch (CXL mode only)
  std::uint64_t fec_corrected = 0;     ///< flits repaired in place
  std::uint64_t internal_corruptions = 0;
};

class SwitchDevice {
 public:
  struct Config {
    transport::Protocol protocol = transport::Protocol::kRxl;
    /// Probability that a transiting flit suffers internal corruption
    /// (buffer bit-flip between ingress FEC decode and egress re-encode).
    double internal_error_rate = 0.0;
    /// Ingress-to-egress processing delay.
    TimePs forward_latency = 10'000;  // 10 ns
  };

  SwitchDevice(sim::EventQueue& queue, const Config& config,
               std::uint64_t rng_seed);

  /// Connects the egress channel.
  void set_output(sim::LinkChannel* output) noexcept { output_ = output; }

  /// Ingress entry point (wired as the upstream channel's receiver).
  void on_flit(sim::FlitEnvelope&& envelope);

  [[nodiscard]] const SwitchStats& stats() const noexcept { return stats_; }

 private:
  sim::EventQueue& queue_;
  Config config_;
  transport::FlitCodec codec_;
  Xoshiro256 rng_;
  sim::LinkChannel* output_ = nullptr;
  /// Flits in the forwarding pipeline, in egress order (forward_latency is
  /// constant, so they fall due in FIFO order).
  sim::ParkedFifo<sim::FlitEnvelope> forwarding_;
  SwitchStats stats_;
};

}  // namespace rxl::switchdev
