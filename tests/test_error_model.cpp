#include "rxl/phy/error_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "rxl/common/types.hpp"
#include "rxl/rs/flit_fec.hpp"

namespace rxl::phy {
namespace {

using Buffer = std::array<std::uint8_t, kFlitBytes>;

std::size_t set_bits(const Buffer& flit) {
  std::size_t count = 0;
  for (const std::uint8_t byte : flit)
    count += static_cast<std::size_t>(std::popcount(byte));
  return count;
}

TEST(IndependentBitErrors, ZeroBerNeverCorrupts) {
  IndependentBitErrors model(0.0);
  Xoshiro256 rng(1);
  Buffer flit{};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(model.corrupt(flit, rng), 0u);
  EXPECT_EQ(set_bits(flit), 0u);
}

TEST(IndependentBitErrors, ReportedFlipsMatchBuffer) {
  IndependentBitErrors model(1e-3);
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    Buffer flit{};
    const std::size_t reported = model.corrupt(flit, rng);
    EXPECT_EQ(set_bits(flit), reported);
  }
}

TEST(IndependentBitErrors, FlitErrorRateMatchesEq1) {
  // At BER 1e-3, FER = 1-(1-1e-3)^2048 ~= 0.871.
  IndependentBitErrors model(1e-3);
  Xoshiro256 rng(3);
  int corrupted = 0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buffer flit{};
    if (model.corrupt(flit, rng) > 0) ++corrupted;
  }
  const double fer = 1.0 - std::pow(1.0 - 1e-3, 2048.0);
  EXPECT_NEAR(static_cast<double>(corrupted) / kTrials, fer, 0.01);
}

TEST(IndependentBitErrors, MeanFlipsMatchesBerTimesBits) {
  IndependentBitErrors model(5e-4);
  Xoshiro256 rng(4);
  double total = 0.0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buffer flit{};
    total += static_cast<double>(model.corrupt(flit, rng));
  }
  EXPECT_NEAR(total / kTrials, 5e-4 * 2048, 0.03);
}

TEST(DfeBurstErrors, ProducesRuns) {
  DfeBurstErrors model(/*seed_ber=*/2e-3, /*propagation=*/0.7);
  Xoshiro256 rng(5);
  double total_flips = 0.0;
  double total_seeds = 0.0;
  for (int trial = 0; trial < 5000; ++trial) {
    Buffer flit{};
    const std::size_t flips = model.corrupt(flit, rng);
    total_flips += static_cast<double>(flips);
    if (flips > 0) total_seeds += 1.0;
  }
  // Mean run length 1/(1-0.7) ~ 3.33: flips well above seed count.
  EXPECT_GT(total_flips, total_seeds * 2.0);
}

TEST(DfeBurstErrors, ZeroPropagationIsIndependent) {
  DfeBurstErrors model(1e-3, 0.0);
  Xoshiro256 rng(6);
  double total = 0.0;
  constexpr int kTrials = 10000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buffer flit{};
    total += static_cast<double>(model.corrupt(flit, rng));
  }
  EXPECT_NEAR(total / kTrials, 1e-3 * 2048, 0.1);
}

TEST(SymbolBurstInjector, ExactSymbolCount) {
  SymbolBurstInjector model(4);
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer flit{};
    EXPECT_GT(model.corrupt(flit, rng), 0u);
    std::size_t corrupted_bytes = 0;
    for (const auto byte : flit) corrupted_bytes += byte != 0 ? 1 : 0;
    EXPECT_EQ(corrupted_bytes, 4u);
  }
}

TEST(SymbolBurstInjector, BurstIsContiguous) {
  SymbolBurstInjector model(5);
  Xoshiro256 rng(9);
  Buffer flit{};
  model.corrupt(flit, rng);
  std::size_t first = kFlitBytes, last = 0;
  for (std::size_t i = 0; i < kFlitBytes; ++i) {
    if (flit[i] != 0) {
      first = std::min(first, i);
      last = std::max(last, i);
    }
  }
  EXPECT_EQ(last - first + 1, 5u);
}

TEST(BernoulliGate, RateZeroAndOne) {
  Xoshiro256 rng(10);
  {
    BernoulliGate gate(0.0, std::make_unique<SymbolBurstInjector>(4));
    Buffer flit{};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(gate.corrupt(flit, rng), 0u);
  }
  {
    BernoulliGate gate(1.0, std::make_unique<SymbolBurstInjector>(4));
    Buffer flit{};
    EXPECT_GT(gate.corrupt(flit, rng), 0u);
  }
}

TEST(BernoulliGate, RateRespected) {
  BernoulliGate gate(0.25, std::make_unique<SymbolBurstInjector>(1));
  Xoshiro256 rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buffer flit{};
    if (gate.corrupt(flit, rng) > 0) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.25, 0.01);
}

TEST(CompositeErrorModel, AccumulatesAllStages) {
  std::vector<std::unique_ptr<ErrorModel>> stages;
  stages.push_back(std::make_unique<SymbolBurstInjector>(2));
  stages.push_back(std::make_unique<SymbolBurstInjector>(3));
  CompositeErrorModel composite(std::move(stages));
  Xoshiro256 rng(12);
  Buffer flit{};
  EXPECT_GT(composite.corrupt(flit, rng), 0u);
  std::size_t corrupted_bytes = 0;
  for (const auto byte : flit) corrupted_bytes += byte != 0 ? 1 : 0;
  // 2 + 3 bytes unless the bursts overlap.
  EXPECT_GE(corrupted_bytes, 3u);
  EXPECT_LE(corrupted_bytes, 5u);
}

TEST(TargetedDoubleError, KillsExactlyTheTargetTransit) {
  TargetedDoubleError model(/*target_transit=*/2);
  Xoshiro256 rng(13);
  for (int transit = 0; transit < 5; ++transit) {
    Buffer flit{};
    const std::size_t flips = model.corrupt(flit, rng);
    if (transit == 2) {
      EXPECT_GT(flips, 0u);
    } else {
      EXPECT_EQ(flips, 0u);
    }
  }
}

TEST(TargetedDoubleError, PatternIsFecFatal) {
  // The injected pattern must be detected-uncorrectable by the real FEC
  // with certainty (S0 = 0 in one lane) — the guaranteed switch drop.
  rs::FlitFec fec;
  Xoshiro256 rng(14);
  Buffer flit{};
  for (std::size_t i = 0; i < kFecProtectedBytes; ++i)
    flit[i] = static_cast<std::uint8_t>(rng.bounded(256));
  fec.encode(flit);
  TargetedDoubleError model(0);
  EXPECT_GT(model.corrupt(flit, rng), 0u);
  EXPECT_FALSE(fec.decode(flit).accepted());
}

TEST(NoErrors, NeverTouches) {
  NoErrors model;
  Xoshiro256 rng(15);
  Buffer flit{};
  EXPECT_EQ(model.corrupt(flit, rng), 0u);
}

// --------------------------------------------------------------------------
// Re-equalization (reset): a link revived after a fault-plan down window
// must not carry pre-outage channel state into the new link-up episode.
// --------------------------------------------------------------------------

TEST(TargetedDoubleError, ResetRestartsTheTransitCount) {
  // The Nth flit of the CURRENT link-up episode is the target: after a
  // revival the count starts over, so the same transit index is hit again.
  TargetedDoubleError model(1);
  Xoshiro256 rng(17);
  Buffer flit{};
  EXPECT_EQ(model.corrupt(flit, rng), 0u);  // transit 0: spared
  EXPECT_GT(model.corrupt(flit, rng), 0u);  // transit 1: killed
  EXPECT_EQ(model.corrupt(flit, rng), 0u);  // transit 2: past the target
  model.reset();
  EXPECT_EQ(model.corrupt(flit, rng), 0u);  // transit 0 again
  EXPECT_GT(model.corrupt(flit, rng), 0u);  // transit 1 again
}

TEST(BernoulliGate, ResetForwardsToTheInnerModel) {
  // The gate itself is stateless; reset() must reach through to the gated
  // model (here: a transit counter that only re-fires if reset worked).
  BernoulliGate gate(1.0, std::make_unique<TargetedDoubleError>(0));
  Xoshiro256 rng(18);
  Buffer flit{};
  EXPECT_GT(gate.corrupt(flit, rng), 0u);
  EXPECT_EQ(gate.corrupt(flit, rng), 0u);
  gate.reset();
  EXPECT_GT(gate.corrupt(flit, rng), 0u);
}

TEST(CompositeErrorModel, ResetForwardsToEveryPart) {
  std::vector<std::unique_ptr<ErrorModel>> parts;
  parts.push_back(std::make_unique<TargetedDoubleError>(0));
  parts.push_back(std::make_unique<TargetedDoubleError>(0));
  CompositeErrorModel composite(std::move(parts));
  Xoshiro256 rng(19);
  Buffer flit{};
  EXPECT_EQ(composite.corrupt(flit, rng), 16u);  // both parts fire
  EXPECT_EQ(composite.corrupt(flit, rng), 0u);   // both past their target
  composite.reset();
  EXPECT_EQ(composite.corrupt(flit, rng), 16u);  // both fire again
}

TEST(DfeBurstErrors, PropagationRunClampsAtTheFlitBoundary) {
  // propagation = 1.0 makes every run extend forever; the model must clamp
  // the run at the end of the flit image instead of walking past it, and
  // the reported flip count must still match the buffer exactly.
  DfeBurstErrors model(1e-3, 1.0);
  Xoshiro256 rng(20);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer flit{};
    const std::size_t reported = model.corrupt(flit, rng);
    EXPECT_EQ(set_bits(flit), reported);
    if (reported > 0) {
      // A run that started anywhere flips every bit through the last one.
      EXPECT_TRUE((flit.back() >> 7) & 1u);
    }
  }
}

// --------------------------------------------------------------------------
// The XOR-pattern contract sim::LinkChannel relies on: a model's pattern
// does not depend on the image, so corrupting zeros and XORing the result
// into an image equals corrupting the image, draw for draw.
// --------------------------------------------------------------------------

/// Every model in error_model.hpp at one rate: `rate` is the per-bit rate
/// of the bit-level models and, scaled up, the gates' per-flit rate.
std::vector<std::unique_ptr<ErrorModel>> every_model(double rate) {
  std::vector<std::unique_ptr<ErrorModel>> models;
  models.push_back(std::make_unique<IndependentBitErrors>(rate));
  models.push_back(std::make_unique<DfeBurstErrors>(rate, 0.6));
  models.push_back(std::make_unique<SymbolBurstInjector>(4));
  models.push_back(std::make_unique<NoErrors>());
  models.push_back(std::make_unique<BernoulliGate>(
      std::min(1.0, rate * 200), std::make_unique<SymbolBurstInjector>(3)));
  std::vector<std::unique_ptr<ErrorModel>> parts;
  parts.push_back(std::make_unique<IndependentBitErrors>(rate));
  parts.push_back(std::make_unique<BernoulliGate>(
      std::min(1.0, rate * 100), std::make_unique<DfeBurstErrors>(rate, 0.9)));
  parts.push_back(std::make_unique<TargetedDoubleError>(3));
  models.push_back(std::make_unique<CompositeErrorModel>(std::move(parts)));
  models.push_back(std::make_unique<TargetedDoubleError>(7));
  return models;
}

TEST(ErrorModelContract, PatternDrawnOnZerosEqualsCorruptingTheImage) {
  for (const double rate : {1e-4, 1e-3, 1e-2}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const std::vector<std::unique_ptr<ErrorModel>> on_zeros =
          every_model(rate);
      const std::vector<std::unique_ptr<ErrorModel>> on_images =
          every_model(rate);
      for (std::size_t m = 0; m < on_zeros.size(); ++m) {
        SCOPED_TRACE(testing::Message()
                     << "model " << m << " rate " << rate << " seed " << seed);
        Xoshiro256 zeros_rng(seed);
        Xoshiro256 image_rng(seed);
        Xoshiro256 bytes(seed + 100);
        std::size_t hits = 0;
        for (int transit = 0; transit < 200; ++transit) {
          Buffer image{};
          for (std::uint8_t& byte : image)
            byte = static_cast<std::uint8_t>(bytes.bounded(256));
          Buffer pattern{};
          const std::size_t from_zeros =
              on_zeros[m]->corrupt(pattern, zeros_rng);
          Buffer corrupted = image;
          const std::size_t from_image =
              on_images[m]->corrupt(corrupted, image_rng);
          ASSERT_EQ(from_zeros, from_image) << "transit " << transit;
          for (std::size_t i = 0; i < kFlitBytes; ++i) image[i] ^= pattern[i];
          ASSERT_EQ(image, corrupted) << "transit " << transit;
          // Equal states draw equal words; copies leave the streams as
          // they are.
          Xoshiro256 zeros_probe = zeros_rng;
          Xoshiro256 image_probe = image_rng;
          for (int draw = 0; draw < 4; ++draw)
            ASSERT_EQ(zeros_probe(), image_probe()) << "transit " << transit;
          if (from_zeros > 0) ++hits;
        }
        // Every model but NoErrors hit something, so hits were compared.
        EXPECT_EQ(hits > 0,
                  dynamic_cast<const NoErrors*>(on_zeros[m].get()) == nullptr);
      }
    }
  }
}

}  // namespace
}  // namespace rxl::phy
