// Shared link-layer machinery: the ACK coalescing/piggybacking scheduler
// and the per-endpoint counters the evaluation reports.
#pragma once

#include <cstdint>
#include <optional>

#include "rxl/link/sequence.hpp"

namespace rxl::link {

/// How acknowledgments travel in the reverse direction (paper §7.2.2).
enum class AckPolicy : std::uint8_t {
  /// ACK rides in the FSN field of a reverse-direction data flit
  /// (ReplayCmd = kAck). Cheap, but in baseline CXL the carrying flit
  /// loses its own sequence number — the §4.1 reliability hole.
  kPiggyback = 0,
  /// ACK is sent as a standalone control flit; every data flit keeps its
  /// explicit sequence number, at a bandwidth cost of p_coalescing (Eq. 13).
  kStandalone = 1,
};

/// Decides when a cumulative ACK is due. With coalesce_factor = c, one ACK
/// is generated per c received data flits, so the fraction of reverse-path
/// flits carrying an AckNum is p_coalescing = 1/c for symmetric traffic.
class AckScheduler {
 public:
  explicit AckScheduler(unsigned coalesce_factor) noexcept
      : coalesce_factor_(coalesce_factor == 0 ? 1 : coalesce_factor) {}

  /// Records an in-order delivery of `seq`; may arm a pending ACK.
  void on_delivered(std::uint16_t seq) noexcept {
    last_delivered_ = seq;
    if (++since_ack_ >= coalesce_factor_) pending_ = true;
  }

  /// Test instrumentation: makes `seq` the pending cumulative AckNum
  /// immediately, regardless of the coalescing counter.
  void force(std::uint16_t seq) noexcept {
    last_delivered_ = seq;
    pending_ = true;
  }

  [[nodiscard]] bool pending() const noexcept { return pending_; }

  /// Consumes the pending ACK, returning the cumulative AckNum to send.
  [[nodiscard]] std::optional<std::uint16_t> consume() noexcept {
    if (!pending_) return std::nullopt;
    pending_ = false;
    since_ack_ = 0;
    return last_delivered_;
  }

  [[nodiscard]] unsigned coalesce_factor() const noexcept {
    return coalesce_factor_;
  }

 private:
  unsigned coalesce_factor_;
  unsigned since_ack_ = 0;
  std::uint16_t last_delivered_ = 0;
  bool pending_ = false;
};

/// Counters accumulated by each endpoint; the benches aggregate these into
/// the paper's tables.
struct EndpointStats {
  std::uint64_t data_flits_sent = 0;
  std::uint64_t data_flits_retransmitted = 0;
  std::uint64_t control_flits_sent = 0;  ///< standalone ACK/NACK
  std::uint64_t acks_piggybacked = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t flits_received = 0;
  std::uint64_t flits_delivered = 0;        ///< handed to the app layer
  std::uint64_t flits_discarded_crc = 0;    ///< CRC/ECRC mismatch at RX
  std::uint64_t flits_discarded_fec = 0;    ///< FEC-uncorrectable at RX
  std::uint64_t flits_discarded_seq = 0;    ///< explicit seq mismatch (CXL)
  std::uint64_t fec_corrected_flits = 0;
  std::uint64_t retry_rounds = 0;  ///< go-back-N episodes initiated
  std::uint64_t tx_stalls = 0;     ///< slots lost to a full replay buffer
};

}  // namespace rxl::link
