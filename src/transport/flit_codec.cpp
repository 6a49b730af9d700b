#include "rxl/transport/flit_codec.hpp"

#include <algorithm>
#include <cassert>

#include "rxl/common/bytes.hpp"
#include "rxl/link/credit.hpp"

namespace rxl::transport {

std::uint16_t control_vc_credit_word(const flit::Flit& flit,
                                     std::size_t vc) noexcept {
  return load_le16(flit.payload(), 2 * vc);
}

std::uint8_t control_ecn_marks(const flit::Flit& flit) noexcept {
  return flit.payload()[kEcnMarksOffset];
}

FlitCodec::FlitCodec(Protocol protocol) : protocol_(protocol), isn_() {}

void FlitCodec::encode_data_in_place(
    flit::Flit& image, std::uint16_t seq,
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

  const std::uint64_t crc =
      (protocol_ == Protocol::kRxl)
          ? isn_.encode(image.crc_protected_region(), seq)
          : isn_.encode_plain(image.crc_protected_region());
  image.set_crc_field(crc);
  fec_.encode(image.bytes());
}

flit::Flit FlitCodec::encode_data(std::span<const std::uint8_t> payload,
                                  std::uint16_t seq,
                                  std::optional<std::uint16_t> acknum) const {
  assert(payload.size() <= kPayloadBytes);
  flit::Flit out;
  std::copy(payload.begin(), payload.end(), out.payload().begin());
  encode_data_in_place(out, seq, acknum);
  return out;
}

flit::Flit FlitCodec::encode_control(flit::ReplayCmd command,
                                     std::uint16_t fsn,
                                     std::uint16_t credit_word) const {
  flit::Flit out;
  flit::FlitHeader header;
  header.type = flit::FlitType::kControl;
  header.replay_cmd = command;
  header.fsn = fsn & kSeqMask;
  out.set_header(header);
  store_le16(out.payload(), 0, credit_word);
  // Control flits sit outside the data sequence stream in both stacks:
  // plain CRC, no ISN fold.
  out.set_crc_field(isn_.encode_plain(out.crc_protected_region()));
  fec_.encode(out.bytes());
  return out;
}

flit::Flit FlitCodec::encode_control(flit::ReplayCmd command,
                                     std::uint16_t fsn,
                                     const ControlCreditStamp& stamp) const {
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
  out.set_crc_field(isn_.encode_plain(out.crc_protected_region()));
  fec_.encode(out.bytes());
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

bool FlitCodec::check_control(const flit::Flit& flit) const {
  return isn_.encode_plain(flit.crc_protected_region()) == flit.crc_field();
}

void FlitCodec::regenerate_link_crc(flit::Flit& flit) const {
  flit.set_crc_field(isn_.encode_plain(flit.crc_protected_region()));
}

void FlitCodec::apply_fec(flit::Flit& flit) const { fec_.encode(flit.bytes()); }

}  // namespace rxl::transport
