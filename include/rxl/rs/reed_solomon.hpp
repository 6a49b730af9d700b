// Shortened Reed-Solomon codes over GF(2^8).
//
// The CXL 3.0 flit FEC described in the paper (§2.5) is a 3-way interleaved
// single-symbol-correcting (SSC) RS code: each sub-block is an RS(255,253)
// code shortened to 85/85/86 symbols (83/83/84 data + 2 parity). This module
// provides that code for any data length k: a shortened RS(k + 2, k) codec
// with a closed-form encode and a single-error decode.
//
// Shortening is what gives the code its partial *detection* power beyond t
// errors: a decoder "correction" that lands in one of the 255 - n virtual
// zero-padded positions is provably bogus and is flagged as detected-
// uncorrectable instead (paper §2.5: ~2/3 of uncorrectable errors detected
// for n = 85).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rxl::rs {

/// Outcome of a decode attempt. The decoder cannot distinguish a
/// miscorrection (error pattern beyond t that aliases onto a correctable
/// one) from a genuine correction; callers that know the ground truth (test
/// benches, simulators) compare buffers to classify those.
enum class DecodeStatus : std::uint8_t {
  kClean,                  ///< Syndromes all zero: no error seen.
  kCorrected,              ///< In-range correction applied.
  kDetectedUncorrectable,  ///< Error detected but beyond correction ability.
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  /// Number of symbols the decoder modified (0 unless kCorrected).
  unsigned corrected_symbols = 0;
};

/// Systematic shortened Reed-Solomon code over GF(2^8) with two parity
/// symbols: it corrects any single-symbol error (t = 1).
///
/// Codeword layout (as stored in buffers): data[0..k-1] followed by
/// parity[0..1]. Internally data[0] is the highest-degree coefficient.
/// Generator polynomial g(x) = (x - alpha^0)(x - alpha^1).
class ReedSolomon {
 public:
  static constexpr std::size_t kParitySymbols = 2;

  /// @param data_symbols k, number of data bytes per codeword.
  /// Requires data_symbols + kParitySymbols <= 255.
  explicit ReedSolomon(std::size_t data_symbols);

  [[nodiscard]] std::size_t data_symbols() const noexcept { return k_; }

  /// Computes parity for `data` (size k) into `parity` (size 2).
  void encode(std::span<const std::uint8_t> data,
              std::span<std::uint8_t> parity) const;

  /// Decodes (and corrects in place) a codeword of size k + 2 laid out as
  /// data || parity.
  [[nodiscard]] DecodeResult decode(std::span<std::uint8_t> codeword) const;

  /// Computes the 2 syndromes of a codeword; all-zero means "accepted".
  /// Exposed for tests and for the analytical miscorrection model.
  /// Table-driven: S0 is a 64-bit XOR fold and S1 a branchless dot product
  /// against a precomputed weight row.
  void syndromes(std::span<const std::uint8_t> codeword,
                 std::span<std::uint8_t> out) const;

  /// Generic log/exp Horner syndromes — the semantic reference the
  /// table-driven path is tested against (tests/test_reed_solomon.cpp).
  void syndromes_reference(std::span<const std::uint8_t> codeword,
                           std::span<std::uint8_t> out) const;

  /// Reference LFSR encode using only scalar field ops — what `encode`'s
  /// table/unrolled paths must agree with byte-for-byte.
  void encode_reference(std::span<const std::uint8_t> data,
                        std::span<std::uint8_t> parity) const;

  /// Syndromes of a codeword whose symbols live at `stride`-byte steps:
  /// symbol b is base[b * stride]. With stride == 1 this is `syndromes`.
  /// Lets interleaved callers (FlitFec) screen sub-blocks directly on the
  /// wire image without a gather copy.
  void syndromes_strided(const std::uint8_t* base, std::size_t stride,
                         std::span<std::uint8_t> out) const;

  /// Encodes a codeword stored at `stride`-byte steps: reads data symbol i
  /// from base[i * stride] and writes parity symbol i to
  /// base[(k + i) * stride].
  void encode_strided(std::uint8_t* base, std::size_t stride) const;

  /// Closed-form systematic parity of any code of this family from two
  /// folds of its data: D0, the XOR of the data symbols, and D1, their dot
  /// product with syndrome weight row 1 (alpha^(n-1-b) at data index b).
  /// Writes p0 to parity[0] and p1 to parity[parity_stride]. encode and
  /// FlitFec's vector kernel both finish through this step.
  static void parity2_from_folds(std::uint8_t d0, std::uint8_t d1,
                                 std::uint8_t* parity,
                                 std::size_t parity_stride) noexcept;

  /// Verdict of the 2-parity single-error analysis, position reported as a
  /// buffer index so strided callers can map it back to their layout.
  struct SingleVerdict {
    DecodeStatus status = DecodeStatus::kDetectedUncorrectable;
    std::size_t buffer_index = 0;  ///< valid only when status == kCorrected
    std::uint8_t magnitude = 0;    ///< XOR patch, valid only when corrected
  };

  /// Classifies nonzero syndromes (s0, s1) under the single-error
  /// hypothesis, including the shortened-position detection of §2.5.
  /// Shared by decode() and the FlitFec zero-copy path so both apply the
  /// exact same verdict logic. Requires (s0, s1) != (0, 0).
  [[nodiscard]] SingleVerdict classify_single(std::uint8_t s0,
                                              std::uint8_t s1) const;

 private:
  void encode_impl(const std::uint8_t* data, std::size_t data_stride,
                   std::uint8_t* parity, std::size_t parity_stride) const;
  void syndromes_impl(const std::uint8_t* base, std::size_t stride,
                      std::span<std::uint8_t> out) const;

  std::size_t k_;                        ///< data symbols
  std::vector<std::uint8_t> generator_;  ///< g(x), ascending degree, monic
  /// 2 rows of n = k_ + 2 syndrome weights, row j holding
  /// W[j][b] = alpha^(j * (n - 1 - b)) so S_j = sum_b W[j][b] * codeword[b]
  /// is a straight dot product (row 0 is all ones: S0 is a plain XOR fold).
  std::vector<std::uint8_t> syndrome_weights_;
};

}  // namespace rxl::rs
