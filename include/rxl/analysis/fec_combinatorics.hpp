// Combinatorial model of the shortened-RS FEC's burst behaviour (§2.5).
//
// A b-symbol burst lands on the 3-way interleaved sub-blocks in a fixed
// round-robin pattern: each affected lane receives ceil/floor(b/3) symbol
// errors. Lanes with exactly one error are corrected; lanes with >= 2
// errors are uncorrectable, and the decoder miscorrects (accepts a bogus
// single-symbol fix) only if the implied error position falls inside the
// shortened codeword — probability ~ n_lane / 255. The burst escapes
// detection only if EVERY multi-error lane miscorrects, giving the paper's
// 2/3, 8/9, 26/27 detection fractions.
#pragma once

#include <cstddef>

namespace rxl::analysis {

/// Number of interleave lanes hit with >= 2 symbol errors by a contiguous
/// b-symbol burst (3-way round-robin interleaving).
[[nodiscard]] unsigned lanes_with_multi_errors(std::size_t burst_symbols);

/// Probability the whole flit's FEC *detects* a b-symbol burst as
/// uncorrectable (paper §2.5: 2/3 for b=4, 8/9 for b=5, 26/27 for b>=6;
/// 1.0 for b <= 3 means "handled", i.e. fully corrected, never escalated).
[[nodiscard]] double burst_detection_probability(std::size_t burst_symbols);

/// True when a b-symbol burst is within the interleaved SSC correction
/// ability (b <= 3).
[[nodiscard]] bool burst_correctable(std::size_t burst_symbols);

}  // namespace rxl::analysis
