// Implicit Sequence Number CRC (the paper's core contribution, §5, §7.3).
//
// ISN folds the 10-bit sequence number into the CRC computation instead of
// transmitting it: the sender XORs SeqNum into the low 10 bits of the
// payload before CRC encode, and the receiver XORs its *expected* sequence
// number (ESeqNum) into the same bits before CRC check. Because CRC is
// linear over GF(2), the check passes iff the payload is intact AND
// SeqNum == ESeqNum; any dropped flit shifts the receiver's counter and
// shows up as a CRC mismatch on the very next flit.
//
// This is exactly the hardware formulation of §7.3 (10 XOR gates at the
// encoder/decoder input). In software the XOR goes into the streaming CRC
// state where the folded bytes begin, which equals XORing it into those
// bytes, so no message copy is made.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rxl/common/types.hpp"
#include "rxl/crc/crc64.hpp"

namespace rxl::crc {

/// ISN-augmented CRC codec over a message laid out as
/// [header (2 B)][payload (240 B)]; the sequence number is folded into the
/// low 10 bits of the payload, i.e. message bytes 2 and 3.
class IsnCrc {
 public:
  /// @param engine       table-driven CRC engine to use (shared, stateless).
  /// @param fold_offset  byte offset of the payload within the message
  ///                     (where the 10 sequence bits are XOR-folded).
  explicit IsnCrc(const Crc64& engine = shared_crc64(),
                  std::size_t fold_offset = kHeaderBytes) noexcept
      : engine_(&engine), fold_offset_(fold_offset) {}

  /// CRC of `message` with `seq` folded in. `seq` is masked to 10 bits.
  [[nodiscard]] std::uint64_t encode(std::span<const std::uint8_t> message,
                                     std::uint16_t seq) const;

  /// True iff `received_crc` matches the CRC of `message` with `expected_seq`
  /// folded in — i.e. payload intact and sequence numbers aligned.
  [[nodiscard]] bool check(std::span<const std::uint8_t> message,
                           std::uint64_t received_crc,
                           std::uint16_t expected_seq) const {
    return encode(message, expected_seq) == received_crc;
  }

  /// Plain CRC without sequence folding (the baseline CXL link CRC);
  /// equivalent to encode(message, 0) but kept explicit for readability.
  [[nodiscard]] std::uint64_t encode_plain(
      std::span<const std::uint8_t> message) const {
    return encode(message, 0);
  }

 private:
  const Crc64* engine_;
  std::size_t fold_offset_;
};

}  // namespace rxl::crc
