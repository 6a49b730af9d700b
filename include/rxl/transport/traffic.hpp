// Shared traffic/error-model generation for the fabric harnesses.
//
// Every fabric (point-to-point, star, DAG) offers the same deterministic
// payload stream and composes the same physical error processes; the
// star-as-DAG equivalence proof depends on these being byte-identical, so
// they live here instead of being copied per harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "rxl/common/bytes.hpp"
#include "rxl/common/rng.hpp"
#include "rxl/common/types.hpp"
#include "rxl/phy/error_model.hpp"

namespace rxl::transport {

/// Writes the 240 B payload for stream position `index`, salted per flow,
/// into `out`. Word 0 carries the index (handy when eyeballing traces); the
/// rest is a deterministic PRNG fill so corruption cannot alias. It is a
/// pure function of (index, salt), so a fabric flow's flits carry it by
/// reference, as the flow scoreboard's sim::PayloadFn: it runs only where
/// the bytes are read, when an error or a hub flip touches a flit, a dead
/// hop drains, or a scoreboard checks a delivery that an error touched.
inline void fill_stream_payload(std::uint64_t index, std::uint64_t salt,
                                std::span<std::uint8_t, kPayloadBytes> out) {
  Xoshiro256 rng(index * 0x9E3779B97F4A7C15ull + salt);
  store_le64(out, 0, index);
  for (std::size_t i = 8; i < kPayloadBytes; i += 8) store_le64(out, i, rng());
}

/// fill_stream_payload into a new vector.
[[nodiscard]] inline std::vector<std::uint8_t> make_stream_payload(
    std::uint64_t index, std::uint64_t salt) {
  std::vector<std::uint8_t> payload(kPayloadBytes);
  fill_stream_payload(index, salt,
                      std::span<std::uint8_t, kPayloadBytes>(payload));
  return payload;
}

/// Composes the per-link error process: independent bit errors and/or
/// Bernoulli-gated symbol bursts, collapsing to NoErrors on a clean link.
[[nodiscard]] inline std::unique_ptr<phy::ErrorModel> make_error_model(
    double ber, double burst_injection_rate, std::size_t burst_symbols) {
  std::vector<std::unique_ptr<phy::ErrorModel>> models;
  if (ber > 0.0)
    models.push_back(std::make_unique<phy::IndependentBitErrors>(ber));
  if (burst_injection_rate > 0.0) {
    models.push_back(std::make_unique<phy::BernoulliGate>(
        burst_injection_rate,
        std::make_unique<phy::SymbolBurstInjector>(burst_symbols)));
  }
  if (models.empty()) return std::make_unique<phy::NoErrors>();
  if (models.size() == 1) return std::move(models.front());
  return std::make_unique<phy::CompositeErrorModel>(std::move(models));
}

}  // namespace rxl::transport
