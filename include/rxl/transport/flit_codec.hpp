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
//
// Control flits are written as their 24 B prefix (flit::ControlPrefix:
// the header, the credit words and the ECN byte; the rest of the image is
// zero), straight into the sender's control queue, and hop as that prefix.
// The per-flit header writer, the metadata checks and the control-word
// readers are inline, so their small results (a FlitHeader, an RxCheck, an
// optional AckNum) stay in the caller's registers; only Debug builds'
// cross-check against a sealed copy runs out of line.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "rxl/common/bytes.hpp"
#include "rxl/crc/isn_crc.hpp"
#include "rxl/flit/flit.hpp"
#include "rxl/link/credit.hpp"
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
[[nodiscard]] inline std::uint16_t control_vc_credit_word(
    const flit::Flit& flit, std::size_t vc) noexcept {
  return load_le16(flit.payload(), 2 * vc);
}

/// ECN-style early-backpressure marks: one bit per VC (bit v == VC v is
/// congested downstream), carried ABSOLUTE on every control flit at payload
/// byte 16 — like the cumulative credit counts, a lost mark or clear heals
/// on the next control flit because the full bitmap is re-carried. Hops
/// without marking always stamp zero (legacy wire image).
inline constexpr std::size_t kEcnMarksOffset = 16;
[[nodiscard]] inline std::uint8_t control_ecn_marks(
    const flit::Flit& flit) noexcept {
  return flit.payload()[kEcnMarksOffset];
}

// Everything a control flit's reader reads rides its prefix.
static_assert(2 * link::kMaxVcs <= kEcnMarksOffset &&
                  kHeaderBytes + kEcnMarksOffset < flit::kControlPrefixBytes,
              "credit words and ECN byte must fit the control prefix");

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
                         std::optional<std::uint16_t> acknum) const noexcept {
    flit::FlitHeader header;
    header.type = flit::FlitType::kData;
    if (acknum.has_value()) {
      header.replay_cmd = flit::ReplayCmd::kAck;
      header.fsn = *acknum & kSeqMask;
    } else {
      header.replay_cmd = flit::ReplayCmd::kSeqNum;
      // CXL carries the explicit SeqNum; RXL zero-fills the field (§6.2).
      header.fsn = (protocol_ == Protocol::kCxl)
                       ? static_cast<std::uint16_t>(seq & kSeqMask)
                       : 0;
    }
    image.set_header(header);
  }

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

  /// Writes an unsealed control flit (ACK, NACK, or credit management)
  /// into `prefix`, every byte of it: the header, one cumulative credit
  /// word per VC (VC 0 at the legacy offset), the absolute ECN mark bitmap
  /// and zero padding. The rest of the flit's image is zero. Control flits
  /// sit outside the data sequence stream in both stacks, so their CRC fold
  /// is 0.
  static void write_control(flit::ControlPrefix& prefix,
                            flit::ReplayCmd command, std::uint16_t fsn,
                            const ControlCreditStamp& stamp) noexcept;

  /// The whole unsealed image of that control flit: its prefix, then zeros.
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
  [[nodiscard]] RxCheck check_data_unsealed(
      const flit::Flit& flit, std::uint16_t crc_fold,
      std::uint16_t expected_seq) const noexcept {
    // The sealed CRC passes iff the receiver folds in the sender's value
    // (modulo the 10 bits IsnCrc folds): RXL folds ESeqNum, CXL folds 0.
    RxCheck result;
    result.crc_ok = ((crc_fold ^ data_crc_fold(expected_seq)) & kSeqMask) == 0;
    if (protocol_ == Protocol::kCxl && result.crc_ok) {
      const flit::FlitHeader header = flit.header();
      if (header.replay_cmd == flit::ReplayCmd::kSeqNum)
        result.explicit_seq = header.fsn;
    }
    assert(agrees_with_sealed(flit, crc_fold, expected_seq, result));
    return result;
  }

  /// Control flits are sequence-less in both stacks: plain CRC check.
  [[nodiscard]] bool check_control(const flit::Flit& flit) const;

  /// check_control's verdict on the sealed form of an unsealed control
  /// flit: its plain CRC passes iff `crc_fold` is 0. Only the prefix of a
  /// control flit held as its prefix is real, but a sealed copy's CRC
  /// covers the stale rest too, so the Debug cross-check agrees anyway.
  [[nodiscard]] bool check_control_unsealed(
      [[maybe_unused]] const flit::Flit& flit,
      std::uint16_t crc_fold) const noexcept {
    const bool crc_ok = (crc_fold & kSeqMask) == 0;
    assert(agrees_with_sealed(flit, crc_fold, crc_ok));
    return crc_ok;
  }

  /// Whether a metadata verdict equals the real check of `flit` sealed
  /// with `crc_fold` (check_data's for data, check_control's for control):
  /// what Debug builds assert on every unsealed arrival. Out of line, so
  /// the inline checks stay small.
  [[nodiscard]] bool agrees_with_sealed(const flit::Flit& flit,
                                        std::uint16_t crc_fold,
                                        std::uint16_t expected_seq,
                                        const RxCheck& verdict) const;
  [[nodiscard]] bool agrees_with_sealed(const flit::Flit& flit,
                                        std::uint16_t crc_fold,
                                        bool verdict) const;

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
