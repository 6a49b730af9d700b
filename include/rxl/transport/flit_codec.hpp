// Flit encode/check pipelines for the two protocol stacks.
//
// The codec is where CXL and RXL actually differ (paper Fig. 6/7):
//  * CXL encodes the CRC over header+payload only; the flit's sequence
//    number travels explicitly in the FSN header field — unless the field
//    is carrying an AckNum, in which case the flit has NO sequence
//    information at all (the §4.1 vulnerability).
//  * RXL encodes the CRC over header+payload with the 10-bit SeqNum
//    XOR-folded into the payload's low bits (ISN); the FSN field is free to
//    carry AckNums (or zeros) at all times, and the receiver's check with
//    its expected sequence number simultaneously validates data integrity
//    and stream position.
// Both stacks then apply the same 3-way interleaved RS FEC over the first
// 250 bytes.
//
// Seal states. flit::seal computes the CRC and FEC fields; the encoders
// below call it. Endpoints instead send flits unsealed (header and payload
// only) and record the CRC fold in the envelope, and the link channel
// seals a flit only when an error hits it (sim::SealState). An untouched
// arrival's check then follows from metadata: RXL's ISN CRC passes iff the
// sender's fold equals the receiver's ESeqNum, every other CRC iff the
// fold is 0, and CXL reads its explicit SeqNum from the real header. The
// *_unsealed checks give exactly the verdict the plain checks would give
// on the sealed image; an exhaustive test pins that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "rxl/crc/isn_crc.hpp"
#include "rxl/flit/flit.hpp"
#include "rxl/rs/flit_fec.hpp"
#include "rxl/transport/config.hpp"

namespace rxl::transport {

/// Control-flit sub-commands carried in the FSN field when ReplayCmd is
/// kSeqNum (a combination no pre-credit control flit ever used: plain
/// sequence numbers only appear on data flits). Both stacks treat them the
/// same way; they only travel on hops with credit flow control enabled.
inline constexpr std::uint16_t kCreditAdvertFsn = 0;  ///< pure credit return
inline constexpr std::uint16_t kCreditProbeFsn = 1;   ///< "re-advertise" ask

/// Every control flit carries one 16-bit credit word per virtual channel:
/// the sender's cumulative count of receive-buffer slots freed back to its
/// peer on that VC (see link/credit.hpp). VC v's word lives at payload
/// bytes [2v, 2v+2), inside the CRC-covered region, so a single-VC hop
/// uses the first two payload bytes. Hops without flow control always
/// stamp zero, which keeps the wire image byte-identical to the pre-credit
/// encoding.
[[nodiscard]] std::uint16_t control_vc_credit_word(const flit::Flit& flit,
                                                  std::size_t vc) noexcept;

/// ECN-style early-backpressure marks: one bit per VC (bit v == VC v is
/// congested downstream), carried ABSOLUTE on every control flit at payload
/// byte 16 — like the cumulative credit counts, a lost mark or clear heals
/// on the next control flit because the full bitmap is re-carried. Hops
/// without marking always stamp zero (legacy wire image).
inline constexpr std::size_t kEcnMarksOffset = 16;
[[nodiscard]] std::uint8_t control_ecn_marks(const flit::Flit& flit) noexcept;

/// Credit/ECN state stamped onto every outbound control flit of a hop with
/// flow control enabled: one cumulative word per VC plus the ECN bitmap.
struct ControlCreditStamp {
  std::span<const std::uint16_t> vc_words;  ///< cumulative counts, VC 0 first
  std::uint8_t ecn_marks = 0;               ///< absolute per-VC mark bitmap
};

/// Result of an endpoint receive-side check.
struct RxCheck {
  bool crc_ok = false;
  /// For CXL: the explicit sequence number, if the flit carried one.
  /// For RXL: never set (sequence validity is implied by crc_ok).
  std::optional<std::uint16_t> explicit_seq;

  friend bool operator==(const RxCheck&, const RxCheck&) = default;
};

/// Stateless encoder/checker used by endpoints. One instance per endpoint;
/// shares the process-wide CRC tables and the process-wide FEC lane codes
/// (rs::FlitFec holds no state of its own), so building one is cheap.
class FlitCodec {
 public:
  explicit FlitCodec(Protocol protocol);

  [[nodiscard]] Protocol protocol() const noexcept { return protocol_; }
  [[nodiscard]] const rs::FlitFec& fec() const noexcept { return fec_; }

  /// Writes a data flit's header into `image`, around the 240 B payload
  /// already there, and leaves the CRC and FEC fields unsealed. Endpoints
  /// call it on their retry slot, so the canonical image is built where it
  /// is kept.
  /// @param seq     this flit's sequence number.
  /// @param acknum  if set, piggyback this AckNum (ReplayCmd = kAck).
  ///                CXL then *replaces* the FSN with the AckNum; RXL keeps
  ///                the SeqNum implicit in the CRC regardless.
  void write_data_header(flit::Flit& image, std::uint16_t seq,
                         std::optional<std::uint16_t> acknum) const;

  /// The value a data flit's CRC folds in: its SeqNum under RXL's ISN, 0
  /// under CXL's plain link CRC.
  [[nodiscard]] std::uint16_t data_crc_fold(std::uint16_t seq) const noexcept {
    return protocol_ == Protocol::kRxl ? seq : 0;
  }

  /// A sealed data flit holding `payload` (at most 240 B, zero-padded):
  /// write_data_header, then flit::seal.
  [[nodiscard]] flit::Flit encode_data(std::span<const std::uint8_t> payload,
                                       std::uint16_t seq,
                                       std::optional<std::uint16_t> acknum) const;

  /// An unsealed control flit (ACK, NACK, or credit management): one
  /// cumulative credit word per VC (VC 0 at the legacy offset) plus the
  /// absolute ECN mark bitmap. Control flits sit outside the data sequence
  /// stream in both stacks, so their CRC fold is 0.
  [[nodiscard]] static flit::Flit control_flit(flit::ReplayCmd command,
                                               std::uint16_t fsn,
                                               const ControlCreditStamp& stamp);

  /// A sealed single-VC control flit. `credit_word` is the sender's
  /// cumulative freed-slot count (0 on hops without flow control, leaving
  /// the payload all-zero).
  [[nodiscard]] flit::Flit encode_control(flit::ReplayCmd command,
                                          std::uint16_t fsn,
                                          std::uint16_t credit_word = 0) const;

  /// Endpoint receive check for a data flit whose FEC stage already passed.
  /// @param expected_seq the receiver's ESeqNum (used only by RXL's ISN
  ///                     check; CXL ignores it here and compares the
  ///                     explicit FSN at the protocol layer).
  [[nodiscard]] RxCheck check_data(const flit::Flit& flit,
                                   std::uint16_t expected_seq) const;

  /// check_data's verdict on the sealed form of an unsealed data flit
  /// whose sender recorded `crc_fold`, from metadata and the real header.
  [[nodiscard]] RxCheck check_data_unsealed(const flit::Flit& flit,
                                            std::uint16_t crc_fold,
                                            std::uint16_t expected_seq) const;

  /// Control flits are sequence-less in both stacks: plain CRC check.
  [[nodiscard]] bool check_control(const flit::Flit& flit) const;

  /// check_control's verdict on the sealed form of an unsealed control
  /// flit: its plain CRC passes iff `crc_fold` is 0.
  [[nodiscard]] bool check_control_unsealed(const flit::Flit& flit,
                                            std::uint16_t crc_fold) const;

  /// Recomputes the link-layer CRC in place (baseline CXL switches do this
  /// when regenerating a flit; the call is what *masks* switch-internal
  /// corruption in CXL).
  void regenerate_link_crc(flit::Flit& flit) const;

  /// Applies/refreshes the FEC field in place.
  void apply_fec(flit::Flit& flit) const;

 private:
  Protocol protocol_;
  crc::IsnCrc isn_;
  rs::FlitFec fec_;
};

}  // namespace rxl::transport
