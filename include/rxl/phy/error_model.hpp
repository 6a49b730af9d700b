// Physical-layer error injection models.
//
// The paper's analysis assumes independent bit errors at a configured BER
// (Eq. 1) but motivates burst errors via DFE error propagation (§2.2) and
// evaluates the FEC's burst behaviour (§2.5). We provide:
//   * IndependentBitErrors — i.i.d. bit flips at a given BER.
//   * DfeBurstErrors — a first error triggers a geometric run of follow-on
//     symbol errors, modelling decision-feedback equalizer propagation.
//   * SymbolBurstInjector — deterministic b-symbol bursts for the FEC
//     detection experiment (E8).
// All models mutate a raw flit image in place and report how many bits they
// flipped, so the simulator can skip FEC/CRC work for untouched flits
// without changing observable behaviour.
//
// The XOR-pattern contract: every model XORs a pattern into the image that
// does not depend on the image's bytes. Which bits flip, the returned count
// and the RNG draws are functions of the model's state and the RNG alone,
// so corrupt(zeros) XOR image == corrupt(image), with the RNG left in the
// same state. sim::LinkChannel relies on it: it draws the pattern onto a
// zero buffer and computes a flit's CRC and FEC only when the pattern hits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "rxl/common/rng.hpp"

namespace rxl::phy {

/// Abstract channel error process applied to each transiting flit image.
class ErrorModel {
 public:
  virtual ~ErrorModel() = default;

  /// Corrupts `flit` in place by XORing in a pattern that must not depend
  /// on its bytes (the contract above); returns the number of bits flipped
  /// (0 means the flit transited cleanly).
  virtual std::size_t corrupt(std::span<std::uint8_t> flit,
                              Xoshiro256& rng) = 0;

  /// Returns the model to its initial channel state. A revived link (after
  /// a fault-plan down window) re-equalizes, so stateful models must not
  /// carry pre-outage state across the outage; stateless models no-op.
  /// The RNG stream is owned by the channel and is *not* rewound.
  virtual void reset() noexcept {}
};

/// Independent bit errors: every bit flips with probability `ber`.
/// Implemented by sampling the flip count from the exact binomial and then
/// choosing distinct positions, so clean flits cost O(1).
class IndependentBitErrors final : public ErrorModel {
 public:
  explicit IndependentBitErrors(double ber) noexcept : ber_(ber) {}
  std::size_t corrupt(std::span<std::uint8_t> flit, Xoshiro256& rng) override;

 private:
  double ber_;
};

/// DFE error propagation: seed errors occur at `seed_ber` per bit; each seed
/// error extends into a run of consecutive bit errors, where each subsequent
/// bit is also flipped with probability `propagation` (geometric run length,
/// mean 1/(1-propagation)).
class DfeBurstErrors final : public ErrorModel {
 public:
  DfeBurstErrors(double seed_ber, double propagation) noexcept
      : seed_ber_(seed_ber), propagation_(propagation) {}
  std::size_t corrupt(std::span<std::uint8_t> flit, Xoshiro256& rng) override;

 private:
  double seed_ber_;
  double propagation_;
};

/// Deterministic aligned symbol burst: corrupts exactly `burst_symbols`
/// consecutive bytes starting at a random offset, each with a random nonzero
/// value. Drives the E8 FEC-detection experiment.
class SymbolBurstInjector final : public ErrorModel {
 public:
  explicit SymbolBurstInjector(std::size_t burst_symbols) noexcept
      : burst_symbols_(burst_symbols) {}
  std::size_t corrupt(std::span<std::uint8_t> flit, Xoshiro256& rng) override;

 private:
  std::size_t burst_symbols_;
};

/// A model that never corrupts (ideal channel).
class NoErrors final : public ErrorModel {
 public:
  std::size_t corrupt(std::span<std::uint8_t>, Xoshiro256&) override {
    return 0;
  }
};

/// Applies an inner model with per-flit probability `rate` (e.g. "with
/// probability 4.5e-5 this flit suffers a 4-symbol burst").
class BernoulliGate final : public ErrorModel {
 public:
  BernoulliGate(double rate, std::unique_ptr<ErrorModel> inner) noexcept
      : rate_(rate), inner_(std::move(inner)) {}
  std::size_t corrupt(std::span<std::uint8_t> flit, Xoshiro256& rng) override {
    if (rate_ <= 0.0 || !rng.bernoulli(rate_)) return 0;
    return inner_->corrupt(flit, rng);
  }
  void reset() noexcept override { inner_->reset(); }

 private:
  double rate_;
  std::unique_ptr<ErrorModel> inner_;
};

/// Applies several models in sequence (their corruptions accumulate).
class CompositeErrorModel final : public ErrorModel {
 public:
  explicit CompositeErrorModel(
      std::vector<std::unique_ptr<ErrorModel>> models) noexcept
      : models_(std::move(models)) {}
  std::size_t corrupt(std::span<std::uint8_t> flit, Xoshiro256& rng) override {
    std::size_t total = 0;
    for (auto& model : models_) total += model->corrupt(flit, rng);
    return total;
  }
  void reset() noexcept override {
    for (auto& model : models_) model->reset();
  }

 private:
  std::vector<std::unique_ptr<ErrorModel>> models_;
};

/// Deterministic fault injection for scenario tests: XORs the same nonzero
/// value into two bytes of the *same FEC interleave lane* (positions p and
/// p+3) of the Nth transiting flit. Two equal-magnitude symbol errors in
/// one lane force syndrome S0 = 0, S1 != 0 — detected-uncorrectable with
/// certainty, so the flit is *guaranteed* to be dropped by the next switch.
class TargetedDoubleError final : public ErrorModel {
 public:
  /// @param target_transit 0-based index of the flit to kill.
  explicit TargetedDoubleError(std::uint64_t target_transit) noexcept
      : target_(target_transit) {}
  std::size_t corrupt(std::span<std::uint8_t> flit, Xoshiro256&) override {
    const std::uint64_t transit = count_++;
    if (transit != target_) return 0;
    flit[10] ^= 0x5A;
    flit[13] ^= 0x5A;  // same lane (offset +3), same magnitude
    return 8;          // popcount(0x5A) * 2
  }
  /// A revived link restarts the transit count (the Nth flit is the Nth
  /// flit of the current link-up episode).
  void reset() noexcept override { count_ = 0; }

 private:
  std::uint64_t target_;
  std::uint64_t count_ = 0;
};

}  // namespace rxl::phy
