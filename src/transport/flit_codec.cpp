#include "rxl/transport/flit_codec.hpp"

#include <algorithm>
#include <cassert>

namespace rxl::transport {
namespace {

/// `image` sealed with `crc_fold`: what Debug builds check each metadata
/// verdict against.
flit::Flit sealed_copy(flit::Flit image, std::uint16_t crc_fold) {
  flit::seal(image, crc_fold);
  return image;
}

}  // namespace

FlitCodec::FlitCodec(Protocol protocol) : protocol_(protocol), isn_() {}

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

void FlitCodec::write_control(flit::ControlPrefix& prefix,
                              flit::ReplayCmd command, std::uint16_t fsn,
                              const ControlCreditStamp& stamp) noexcept {
  assert(stamp.vc_words.size() <= link::kMaxVcs);
  prefix.bytes.fill(0);
  flit::FlitHeader header;
  header.type = flit::FlitType::kControl;
  header.replay_cmd = command;
  header.fsn = fsn & kSeqMask;
  flit::pack_header(header, prefix.bytes);
  const std::span<std::uint8_t> payload =
      std::span(prefix.bytes).subspan(kHeaderBytes);
  for (std::size_t vc = 0; vc < stamp.vc_words.size(); ++vc)
    store_le16(payload, 2 * vc, stamp.vc_words[vc]);
  payload[kEcnMarksOffset] = stamp.ecn_marks;
}

flit::Flit FlitCodec::control_flit(flit::ReplayCmd command, std::uint16_t fsn,
                                   const ControlCreditStamp& stamp) {
  flit::ControlPrefix prefix;
  write_control(prefix, command, fsn, stamp);
  flit::Flit out;
  std::copy(prefix.bytes.begin(), prefix.bytes.end(), out.bytes().begin());
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

bool FlitCodec::agrees_with_sealed(const flit::Flit& flit,
                                   std::uint16_t crc_fold,
                                   std::uint16_t expected_seq,
                                   const RxCheck& verdict) const {
  return check_data(sealed_copy(flit, crc_fold), expected_seq) == verdict;
}

bool FlitCodec::check_control(const flit::Flit& flit) const {
  return isn_.encode_plain(flit.crc_protected_region()) == flit.crc_field();
}

bool FlitCodec::agrees_with_sealed(const flit::Flit& flit,
                                   std::uint16_t crc_fold,
                                   bool verdict) const {
  return check_control(sealed_copy(flit, crc_fold)) == verdict;
}

void FlitCodec::regenerate_link_crc(flit::Flit& flit) const {
  flit.set_crc_field(isn_.encode_plain(flit.crc_protected_region()));
}

void FlitCodec::apply_fec(flit::Flit& flit) const { fec_.encode(flit.bytes()); }

}  // namespace rxl::transport
