// Protocol configuration shared by endpoints, switches, and the fabric. A
// hop's own credit provisioning is a link::HopCredits given at construction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rxl/common/types.hpp"
#include "rxl/link/link_layer.hpp"

namespace rxl::transport {

/// Which protocol stack the endpoints (and switches) run.
enum class Protocol : std::uint8_t {
  /// Baseline CXL 3.0: CRC at the link layer (switches check and
  /// regenerate it), explicit FSN multiplexed with AckNum — vulnerable to
  /// silent drops when a flit carries an AckNum (paper §4.1).
  kCxl = 0,
  /// RXL: FEC per hop, 64-bit ECRC with ISN end-to-end; switches never
  /// touch the CRC (paper §6).
  kRxl = 1,
};

/// Retry discipline (paper §5's trade-off discussion).
enum class RetryMode : std::uint8_t {
  /// Replay everything from the loss point. No receiver buffering; the
  /// scheme PCIe/CXL favour and the one RXL uses.
  kGoBackN = 0,
  /// Resend only the missing flit; the receiver holds out-of-order
  /// arrivals in a reorder buffer until the gap fills. Requires EXPLICIT
  /// sequence numbers — ISN's binary pass/fail cannot place an
  /// out-of-order flit, so RXL rejects this mode (the paper's stated
  /// limitation, §5).
  kSelectiveRepeat = 1,
};

struct ProtocolConfig {
  Protocol protocol = Protocol::kRxl;
  link::AckPolicy ack_policy = link::AckPolicy::kPiggyback;
  RetryMode retry_mode = RetryMode::kGoBackN;
  /// One cumulative ACK per this many delivered data flits; the paper's
  /// p_coalescing equals 1/coalesce_factor for symmetric traffic.
  unsigned coalesce_factor = 10;
  /// Replay buffer depth (<= 512). Must exceed bandwidth x RTT in flits.
  std::size_t retry_buffer_capacity = 256;
  /// TX-side timeout: if the oldest unacked flit exceeds this age, replay
  /// everything (recovers lost ACKs/NACKs).
  TimePs retry_timeout = 4'000'000;  // 4 us
  /// RX-side: flush a pending coalesced ACK as a standalone flit if no
  /// reverse data flit has carried it within this window.
  TimePs ack_timeout = 1'000'000;  // 1 us
  /// RX-side: while waiting for a replay (NACK outstanding), re-issue the
  /// NACK if no forward progress happens within this window — the standard
  /// recovery for a NACK (or the replay's head) lost in transit.
  TimePs nack_retransmit_timeout = 1'000'000;  // 1 us

  /// --- Failure detection (sim/fault_plan.hpp fault injection) ---
  /// Consecutive timeout-driven retry (or credit-probe) episodes during
  /// which the peer stayed COMPLETELY silent — no ACK, NACK, advert, or
  /// data arrival — before the TX declares the hop dead, drains its retry
  /// buffer into a HopDownEvent, and stops transmitting. 0 = never give up
  /// (the pre-fault behaviour, byte-identical).
  unsigned max_retry_episodes = 0;
};

[[nodiscard]] constexpr const char* protocol_name(Protocol protocol) noexcept {
  return protocol == Protocol::kCxl ? "CXL" : "RXL";
}

}  // namespace rxl::transport
