#include "rxl/analysis/fec_combinatorics.hpp"

namespace rxl::analysis {

unsigned lanes_with_multi_errors(std::size_t burst_symbols) {
  // A contiguous run of b symbols distributes round-robin over 3 lanes:
  // each lane gets floor(b/3) symbols, plus one extra for the first b%3
  // lanes (whatever the start offset, the multiset of per-lane counts is
  // the same).
  if (burst_symbols == 0) return 0;
  const std::size_t base = burst_symbols / 3;
  const std::size_t extra = burst_symbols % 3;
  unsigned lanes = 0;
  for (std::size_t lane = 0; lane < 3; ++lane) {
    const std::size_t count = base + (lane < extra ? 1 : 0);
    if (count >= 2) ++lanes;
  }
  return lanes;
}

double burst_detection_probability(std::size_t burst_symbols) {
  const unsigned lanes = lanes_with_multi_errors(burst_symbols);
  if (lanes == 0) return 1.0;  // correctable: nothing to detect/escape
  // Paper's idealised 1/3 per lane (85/255); the real lanes are 86/86/85 of
  // 255 — the difference is below the Monte-Carlo noise floor.
  double escape = 1.0;
  for (unsigned i = 0; i < lanes; ++i) escape *= 1.0 / 3.0;
  return 1.0 - escape;
}

bool burst_correctable(std::size_t burst_symbols) {
  return lanes_with_multi_errors(burst_symbols) == 0;
}

}  // namespace rxl::analysis
