// Test-only error model: reports a hit on every flit but flips nothing
// beyond what its inner model flips, so a channel seals every flit it
// carries and every receiver runs the real FEC decode and CRC check.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "rxl/common/rng.hpp"
#include "rxl/phy/error_model.hpp"

namespace rxl::phy {

class HitWithoutFlip final : public ErrorModel {
 public:
  explicit HitWithoutFlip(std::unique_ptr<ErrorModel> inner)
      : inner_(std::move(inner)) {}
  std::size_t corrupt(std::span<std::uint8_t> flit, Xoshiro256& rng) override {
    return std::max<std::size_t>(inner_->corrupt(flit, rng), 1);
  }
  void reset() noexcept override { inner_->reset(); }

 private:
  std::unique_ptr<ErrorModel> inner_;
};

}  // namespace rxl::phy
