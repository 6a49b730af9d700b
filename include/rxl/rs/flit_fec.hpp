// CXL 3.0 256 B flit FEC: 3-way interleaved single-symbol-correcting
// Reed-Solomon (paper §2.5, Fig. 3).
//
// The full 256 B wire image is split round-robin (byte j -> lane j % 3)
// into three sub-blocks: 84/83/83 data bytes from the 250 protected bytes
// (2 B header + 240 B payload + 8 B CRC) plus 2 parity bytes each, landing
// in the 6 B FEC field (lane 0: flit[252,255], lane 1: flit[250,253],
// lane 2: flit[251,254]). Each sub-block is an RS(255,253) code shortened
// to 85/85/86 symbols, giving single-symbol correction per sub-block; the
// interleaving — which covers the parity bytes too — turns that into
// correction of any wire burst up to 3 symbols (24 bits) long.
//
// A correction that lands in a shortened (virtual zero) position is flagged
// as detected-uncorrectable; with ~85 of 255 positions valid this detects
// roughly 2/3 of per-sub-block miscorrection attempts, which yields the
// paper's 2/3, 8/9 and 26/27 burst-detection fractions (validated by
// bench_fec_detection).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "rxl/common/types.hpp"
#include "rxl/rs/reed_solomon.hpp"

namespace rxl::rs {

/// Per-flit FEC decode summary across the three interleaved sub-blocks.
struct FecDecodeResult {
  DecodeStatus status = DecodeStatus::kClean;  ///< worst across sub-blocks
  unsigned corrected_symbols = 0;              ///< total corrections applied
  std::array<DecodeStatus, 3> sub_block{DecodeStatus::kClean,
                                        DecodeStatus::kClean,
                                        DecodeStatus::kClean};
  [[nodiscard]] bool accepted() const noexcept {
    return status != DecodeStatus::kDetectedUncorrectable;
  }
};

/// Encoder/decoder for the 6-byte FEC field of a 256 B flit. Stateless: the
/// two lane codes are process-wide immutable tables built on first use.
///
/// `encode` and `decode` pick their syndrome kernel once per process: on
/// CPUs with AVX-512BW and GFNI, one vector pass over the whole 256 B wire
/// image; elsewhere the per-lane strided scalar passes of `encode_scalar`
/// and `decode_scalar`, which stay the reference the vector path is tested
/// against. Both produce byte-identical images and identical verdicts.
class FlitFec {
 public:
  /// Computes the 6 FEC bytes over flit[0..249] and writes them into
  /// flit[250..255]. `flit` must be a full 256 B flit image.
  void encode(std::span<std::uint8_t> flit) const;

  /// Decodes (correcting in place) a full 256 B flit image. Runs zero-copy:
  /// every lane is screened for nonzero syndromes on the wire image and
  /// only dirty lanes get the single-error analysis — the (overwhelmingly
  /// common) clean path never copies or writes a byte.
  /// On kDetectedUncorrectable the protected region may retain partial
  /// corrections from the sub-blocks that decoded cleanly; callers that
  /// drop the flit (switches) don't care, and endpoint CRC catches the rest.
  [[nodiscard]] FecDecodeResult decode(std::span<std::uint8_t> flit) const;

  /// Scalar reference forms of encode/decode (strided per-lane passes).
  void encode_scalar(std::span<std::uint8_t> flit) const;
  [[nodiscard]] FecDecodeResult decode_scalar(std::span<std::uint8_t> flit) const;

  /// Kernel `encode`/`decode` use on this CPU, fixed at start-up:
  /// "avx512bw+gfni" or "scalar".
  [[nodiscard]] static const char* kernel_name() noexcept;

  /// Number of data bytes feeding sub-block `i` (84, 83, 83).
  [[nodiscard]] static constexpr std::size_t sub_block_data_bytes(
      std::size_t i) noexcept {
    return i == 0 ? 84 : 83;
  }
};

}  // namespace rxl::rs
