#include "rxl/transport/flit_codec.hpp"

#include <algorithm>
#include <cassert>

#include "rxl/common/bytes.hpp"
#include "rxl/link/credit.hpp"

namespace rxl::transport {
namespace {

/// `image` sealed with `crc_fold`: what Debug builds check each metadata
/// verdict against.
[[maybe_unused]] flit::Flit sealed_copy(flit::Flit image,
                                        std::uint16_t crc_fold) {
  flit::seal(image, crc_fold);
  return image;
}

}  // namespace

std::uint16_t control_vc_credit_word(const flit::Flit& flit,
                                     std::size_t vc) noexcept {
  return load_le16(flit.payload(), 2 * vc);
}

std::uint8_t control_ecn_marks(const flit::Flit& flit) noexcept {
  return flit.payload()[kEcnMarksOffset];
}

FlitCodec::FlitCodec(Protocol protocol) : protocol_(protocol), isn_() {}

void FlitCodec::write_data_header(flit::Flit& image, std::uint16_t seq,
                                  std::optional<std::uint16_t> acknum) const {
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

flit::Flit FlitCodec::encode_data(std::span<const std::uint8_t> payload,
                                  std::uint16_t seq,
                                  std::optional<std::uint16_t> acknum) const {
  assert(payload.size() <= kPayloadBytes);
  flit::Flit out;
  std::copy(payload.begin(), payload.end(), out.payload().begin());
  write_data_header(out, seq, acknum);
  flit::seal(out, data_crc_fold(seq));
  return out;
}

flit::Flit FlitCodec::control_flit(flit::ReplayCmd command, std::uint16_t fsn,
                                   const ControlCreditStamp& stamp) {
  assert(stamp.vc_words.size() <= link::kMaxVcs);
  flit::Flit out;
  flit::FlitHeader header;
  header.type = flit::FlitType::kControl;
  header.replay_cmd = command;
  header.fsn = fsn & kSeqMask;
  out.set_header(header);
  for (std::size_t vc = 0; vc < stamp.vc_words.size(); ++vc)
    store_le16(out.payload(), 2 * vc, stamp.vc_words[vc]);
  out.payload()[kEcnMarksOffset] = stamp.ecn_marks;
  return out;
}

flit::Flit FlitCodec::encode_control(flit::ReplayCmd command,
                                     std::uint16_t fsn,
                                     std::uint16_t credit_word) const {
  flit::Flit out = control_flit(
      command, fsn, ControlCreditStamp{std::span(&credit_word, 1), 0});
  flit::seal(out, 0);
  return out;
}

RxCheck FlitCodec::check_data(const flit::Flit& flit,
                              std::uint16_t expected_seq) const {
  RxCheck result;
  if (protocol_ == Protocol::kRxl) {
    result.crc_ok =
        isn_.check(flit.crc_protected_region(), flit.crc_field(), expected_seq);
    return result;
  }
  result.crc_ok =
      isn_.encode_plain(flit.crc_protected_region()) == flit.crc_field();
  if (result.crc_ok) {
    const flit::FlitHeader header = flit.header();
    if (header.replay_cmd == flit::ReplayCmd::kSeqNum)
      result.explicit_seq = header.fsn;
    // kAck: no sequence information on the wire — the §4.1 hole.
  }
  return result;
}

RxCheck FlitCodec::check_data_unsealed(const flit::Flit& flit,
                                       std::uint16_t crc_fold,
                                       std::uint16_t expected_seq) const {
  // The sealed CRC passes iff the receiver folds in the sender's value
  // (modulo the 10 bits IsnCrc folds): RXL folds ESeqNum, CXL folds 0.
  RxCheck result;
  result.crc_ok = ((crc_fold ^ data_crc_fold(expected_seq)) & kSeqMask) == 0;
  if (protocol_ == Protocol::kCxl && result.crc_ok) {
    const flit::FlitHeader header = flit.header();
    if (header.replay_cmd == flit::ReplayCmd::kSeqNum)
      result.explicit_seq = header.fsn;
  }
  assert(check_data(sealed_copy(flit, crc_fold), expected_seq) == result);
  return result;
}

bool FlitCodec::check_control(const flit::Flit& flit) const {
  return isn_.encode_plain(flit.crc_protected_region()) == flit.crc_field();
}

bool FlitCodec::check_control_unsealed(
    [[maybe_unused]] const flit::Flit& flit, std::uint16_t crc_fold) const {
  const bool crc_ok = (crc_fold & kSeqMask) == 0;
  assert(check_control(sealed_copy(flit, crc_fold)) == crc_ok);
  return crc_ok;
}

void FlitCodec::regenerate_link_crc(flit::Flit& flit) const {
  flit.set_crc_field(isn_.encode_plain(flit.crc_protected_region()));
}

void FlitCodec::apply_fec(flit::Flit& flit) const { fec_.encode(flit.bytes()); }

}  // namespace rxl::transport
