// 2-byte flit header: FSN[9:0], ReplayCmd[1:0], Type[3:0] (paper Fig. 3).
//
// Wire layout (little-endian bit order within the 16-bit header word):
//   byte 0        : FSN[7:0]
//   byte 1 [1:0]  : FSN[9:8]
//   byte 1 [3:2]  : ReplayCmd
//   byte 1 [7:4]  : Type
//
// Packing and parsing are inline: every flit sent and received runs them,
// and a FlitHeader built or read in the caller's registers never makes a
// round trip through memory.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "rxl/common/types.hpp"

namespace rxl::flit {

/// Interpretation of the FSN field (paper §4.1).
enum class ReplayCmd : std::uint8_t {
  kSeqNum = 0,       ///< FSN carries the flit's own sequence number.
  kAck = 1,          ///< FSN carries an acknowledgment number (piggyback).
  kNackGoBackN = 2,  ///< FSN = last valid received SeqNum; go-back-N retry.
  kNackSingle = 3,   ///< FSN = last valid received SeqNum; single-flit retry.
};

/// Flit content type carried in the 4-bit Types field. The CXL spec packs
/// many slot formats; this reproduction needs only these.
enum class FlitType : std::uint8_t {
  kIdle = 0,     ///< No payload (filler).
  kData = 1,     ///< Payload carries packed transaction messages.
  kControl = 2,  ///< Standalone ACK/NACK flit (no payload).
};

struct FlitHeader {
  std::uint16_t fsn = 0;  ///< 10-bit sequence/ack field.
  ReplayCmd replay_cmd = ReplayCmd::kSeqNum;
  FlitType type = FlitType::kIdle;

  friend bool operator==(const FlitHeader&, const FlitHeader&) = default;
};

/// Serialises `header` into the first two bytes of `buf`.
inline void pack_header(const FlitHeader& header,
                        std::span<std::uint8_t> buf) noexcept {
  assert(buf.size() >= kHeaderBytes);
  const std::uint16_t fsn = header.fsn & kSeqMask;
  buf[0] = static_cast<std::uint8_t>(fsn & 0xFF);
  buf[1] = static_cast<std::uint8_t>(
      ((fsn >> 8) & 0x3) |
      ((static_cast<unsigned>(header.replay_cmd) & 0x3) << 2) |
      ((static_cast<unsigned>(header.type) & 0xF) << 4));
}

/// Parses the first two bytes of `buf`. Unknown Type values decode to their
/// raw numeric value (the enum is not exhaustive on the wire).
[[nodiscard]] inline FlitHeader unpack_header(
    std::span<const std::uint8_t> buf) noexcept {
  assert(buf.size() >= kHeaderBytes);
  FlitHeader header;
  header.fsn = static_cast<std::uint16_t>(
      buf[0] | (static_cast<std::uint16_t>(buf[1] & 0x3) << 8));
  header.replay_cmd = static_cast<ReplayCmd>((buf[1] >> 2) & 0x3);
  header.type = static_cast<FlitType>((buf[1] >> 4) & 0xF);
  return header;
}

}  // namespace rxl::flit
