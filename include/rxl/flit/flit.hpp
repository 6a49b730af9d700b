// The 256 B CXL 3.0 flit image and its field accessors (paper Fig. 3).
//
// Layout:
//   [0..1]     2 B header (FSN, ReplayCmd, Type)
//   [2..241]   240 B payload
//   [242..249] 8 B CRC
//   [250..255] 6 B FEC
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "rxl/common/bytes.hpp"
#include "rxl/common/types.hpp"
#include "rxl/flit/header.hpp"

namespace rxl::flit {

inline constexpr std::size_t kPayloadOffset = kHeaderBytes;               // 2
inline constexpr std::size_t kCrcOffset = kHeaderBytes + kPayloadBytes;   // 242
inline constexpr std::size_t kFecOffset = kCrcOffset + kCrcBytes;         // 250

/// The leading bytes of a control flit's image that its readers read: the
/// 2 B header, one 16-bit credit word per VC (eight at most) and the ECN
/// mark byte (transport::FlitCodec lays them out), padded to a multiple of
/// 8 B. The rest of a control flit's image is zero until it is sealed, so
/// a control flit is queued and hops as this prefix (sim::copy_readable)
/// and is widened to its whole image only where something seals it.
inline constexpr std::size_t kControlPrefixBytes = 24;

/// A control flit as its sender queues it: the first kControlPrefixBytes of
/// its image.
struct ControlPrefix {
  alignas(8) std::array<std::uint8_t, kControlPrefixBytes> bytes{};
};

/// A raw 256 B flit image with typed views onto its fields. Copyable value
/// type; all protocol state lives in the endpoints, not here.
class Flit {
 public:
  Flit() noexcept { bytes_.fill(0); }

  [[nodiscard]] std::span<std::uint8_t, kFlitBytes> bytes() noexcept {
    return std::span<std::uint8_t, kFlitBytes>(bytes_);
  }
  [[nodiscard]] std::span<const std::uint8_t, kFlitBytes> bytes() const noexcept {
    return std::span<const std::uint8_t, kFlitBytes>(bytes_);
  }

  /// Header + payload: the region the CRC protects.
  [[nodiscard]] std::span<const std::uint8_t> crc_protected_region() const noexcept {
    return std::span<const std::uint8_t>(bytes_.data(), kCrcOffset);
  }

  [[nodiscard]] std::span<std::uint8_t, kPayloadBytes> payload() noexcept {
    return std::span<std::uint8_t, kPayloadBytes>(
        bytes_.data() + kPayloadOffset, kPayloadBytes);
  }
  [[nodiscard]] std::span<const std::uint8_t, kPayloadBytes> payload()
      const noexcept {
    return std::span<const std::uint8_t, kPayloadBytes>(
        bytes_.data() + kPayloadOffset, kPayloadBytes);
  }

  [[nodiscard]] FlitHeader header() const noexcept {
    return unpack_header(bytes());
  }
  void set_header(const FlitHeader& header) noexcept {
    pack_header(header, bytes());
  }

  [[nodiscard]] std::uint64_t crc_field() const noexcept {
    return load_le64(bytes(), kCrcOffset);
  }
  void set_crc_field(std::uint64_t crc) noexcept {
    store_le64(bytes(), kCrcOffset, crc);
  }

  [[nodiscard]] std::span<const std::uint8_t> fec_field() const noexcept {
    return std::span<const std::uint8_t>(bytes_.data() + kFecOffset, kFecBytes);
  }

  friend bool operator==(const Flit& a, const Flit& b) noexcept {
    return a.bytes_ == b.bytes_;
  }

 private:
  std::array<std::uint8_t, kFlitBytes> bytes_;
};

/// Seals `image` around its header and payload: writes the CRC with
/// `crc_fold` folded in (crc::IsnCrc::encode; the SeqNum of an RXL data
/// flit, 0 for the plain CRC of CXL data and of every control flit), then
/// the FEC field over everything before it. The one place a flit's CRC and
/// FEC are computed from scratch: the codec's encoders call it, and so do a
/// link channel or a hub about to flip bits of a flit its sender left
/// unsealed (see sim::SealState).
void seal(Flit& image, std::uint16_t crc_fold);

}  // namespace rxl::flit
