// Traffic generators and the latency-histogram stats layer: arrival-process
// shape and determinism, nearest-rank percentile helpers, fixed-footprint
// histogram semantics, and plan_dag's arrival validation. The randomized
// arrival x scenario sweeps live in test_traffic_properties.cpp under the
// slow label.
#include "rxl/transport/traffic_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "plan_rejection.hpp"
#include "rxl/common/bytes.hpp"
#include "rxl/common/rng.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/traffic.hpp"

namespace rxl {
namespace {

using stats::LatencyHistogram;
using transport::ArrivalKind;
using transport::ArrivalProcess;
using transport::ArrivalSpec;

// --------------------------------------------------------------------------
// Stream payloads
// --------------------------------------------------------------------------

TEST(StreamPayload, KnownAnswers) {
  // Every byte of the payload at a few (index, salt) pairs, recorded from
  // the vector-returning generator the in-place fill replaced, as
  // little-endian words. Word 0 is the index itself.
  struct Case {
    std::uint64_t index;
    std::uint64_t salt;
    std::array<std::uint64_t, kPayloadBytes / 8> words;
  };
  const std::array<Case, 4> cases{{
      {0, 0,
       {{
          0x0000000000000000ull, 0x99EC5F36CB75F2B4ull, 0xBF6E1F784956452Aull,
          0x1A5F849D4933E6E0ull, 0x6AA594F1262D2D2Cull, 0xBBA5AD4A1F842E59ull,
          0xFFEF8375D9EBCACAull, 0x6C160DEED2F54C98ull, 0x8920AD648FC30A3Full,
          0xDB032C0BA7539731ull, 0xEB3A475A3E749A3Dull, 0x1D42993FA43F2A54ull,
          0x11361BF526A14BB5ull, 0x1B4F07A5AB3D8E9Cull, 0xA7A3257F6986DB7Full,
          0x7EFDAA95605DFC9Cull, 0x4BDE97C0A78EAAB8ull, 0xB455EAC43518666Cull,
          0x304DBF6C06730690ull, 0x8CBE7776598A798Cull, 0x0ECBDF7FFCD727E5ull,
          0x4FF52157533FE270ull, 0x7E61475B87242F2Eull, 0x52558C68A9316824ull,
          0xA0BD00C592471176ull, 0xFC9B83A3A0C63B9Eull, 0x4D786C0F0A8B88EFull,
          0xA52473C4F62F2338ull, 0xE9DC0037DB25D6D9ull, 0xFCE5EBA9D25094C3ull
       }}},
      {1, 0x00D0,
       {{
          0x0000000000000001ull, 0xB04D4949FC618DDAull, 0x856E8E013205A641ull,
          0xC74625116C0DA9C2ull, 0xB67D65823C64C62Full, 0x4882B14CCC98D3FCull,
          0xC1FDCC62C1E1D889ull, 0x819C764E12733BDDull, 0xD952A99E1416218Aull,
          0x4E28E57751A3CDA5ull, 0xE178799E5FB3AC75ull, 0x37C407AC1D356241ull,
          0x1A0DB2547C9E98E3ull, 0x8CF8AE6112F5C746ull, 0x7C68F6D31E9BB0C1ull,
          0x554717B54BBFA33Aull, 0x9297D915AAAAA5FCull, 0xEE8FF17077A98B5Eull,
          0x73FC8AEA3F3AC710ull, 0x729EFDEBDB96FC99ull, 0xFB549B6F5B0AA6CDull,
          0xBAE62C528F01A111ull, 0x1EB269C253B8A37Eull, 0xA82AB9F7A15E402Bull,
          0x99E3FFEAB5136776ull, 0x8B4F4A7F396B76FAull, 0xB2F4621C956FE509ull,
          0xC64974FEC88E5088ull, 0x0D39654235AA30D9ull, 0x51303F6304B2570Eull
       }}},
      {12345, 0x0B0B,
       {{
          0x0000000000003039ull, 0x0CFB5811CCD73B4Full, 0xF95C4E5EF5B9A4C9ull,
          0x8995A1B30629BA78ull, 0xF1D5F32A016FAE6Aull, 0x24CD8C61F9672E93ull,
          0x9C3D1015951E6F76ull, 0x34C60482AF6D65ABull, 0x944F6792F2ECA97Full,
          0x69D620F991488891ull, 0x44052EB4BBF7A589ull, 0x23B1B7D8C190AE4Cull,
          0xB1147AAA16C9F352ull, 0x9825BF2C1958D636ull, 0x34EA7F6336C753BDull,
          0x501146C2BB293142ull, 0xC462474817046912ull, 0x3711F7B280E44880ull,
          0xEEB75F916371CE15ull, 0xC4171CCF09A99968ull, 0xAA7ACA76D49331BFull,
          0xE3F0F85A1BF099F7ull, 0x6DF8B102294F1CE1ull, 0xB3237A1B2EC796A8ull,
          0x51079719D8151461ull, 0xA6226D03BF95A9C5ull, 0x0D7B5ADDF415450Eull,
          0x5BF85D365BA80E0Aull, 0x295B563BEE3D7976ull, 0x3646BB2C1BDB8C6Full
       }}},
      {std::uint64_t{1} << 40, 7,
       {{
          0x0000010000000000ull, 0xF0BD9FC9CA8914D6ull, 0x226087026E3827FDull,
          0xEF89B3252DB613E2ull, 0x134EFB27240F1239ull, 0xE9CC709B834ED343ull,
          0xDA2543A18499E605ull, 0xD46D625C4AC10C8Eull, 0x02B12537D92BD4A5ull,
          0x25E2B8A8A6F365D2ull, 0x35964297A03E3354ull, 0xCF93640A8ADB2E17ull,
          0xC43109D7BBEF22C2ull, 0xFF70D39BC51B99D0ull, 0xA30CB816B69C4D7Full,
          0xF63ED4D6F52A57A0ull, 0x07A2D13DE87204FEull, 0x2775B2D899D1C85Aull,
          0x698724BF333D5AF0ull, 0xF0F51D632048326Cull, 0x2AD28B27E1A8E2BAull,
          0x53EE7F9D417272FCull, 0xA19566FC194C8B7Dull, 0x82DE380C1BCEB272ull,
          0xD913BCAB6DE07A62ull, 0xAAE114919DA8EB8Dull, 0x9B4F09D208FF079Cull,
          0x1FCFE22A75B7BBD3ull, 0x6CF0DE0A86C8BB40ull, 0xCAD55E421928AFF6ull
       }}}
  }};
  for (const Case& c : cases) {
    std::array<std::uint8_t, kPayloadBytes> filled;
    filled.fill(0xEE);  // a recycled slot: every byte must be written
    transport::fill_stream_payload(c.index, c.salt, filled);
    const std::vector<std::uint8_t> made =
        transport::make_stream_payload(c.index, c.salt);
    ASSERT_EQ(made.size(), kPayloadBytes);
    for (std::size_t w = 0; w < c.words.size(); ++w) {
      EXPECT_EQ(load_le64(filled, 8 * w), c.words[w])
          << "index " << c.index << " word " << w;
      EXPECT_EQ(load_le64(made, 8 * w), c.words[w])
          << "index " << c.index << " word " << w;
    }
  }
}

// --------------------------------------------------------------------------
// Nearest-rank percentile helpers
// --------------------------------------------------------------------------

TEST(NearestRank, CeilingRuleReadsTheTrueTail) {
  // The motivating bug: p99 of 50 samples must read the maximum (index 49);
  // the old floor((q * (n - 1)) / 100) read index 48.
  EXPECT_EQ(stats::nearest_rank_index(50, 99), 49u);
  EXPECT_EQ(stats::nearest_rank_index(100, 99), 98u);
  EXPECT_EQ(stats::nearest_rank_index(200, 99), 197u);
  EXPECT_EQ(stats::nearest_rank_index(1, 99), 0u);
  EXPECT_EQ(stats::nearest_rank_index(1, 50), 0u);
  EXPECT_EQ(stats::nearest_rank_index(4, 50), 1u);    // rank ceil(2) = 2
  EXPECT_EQ(stats::nearest_rank_index(5, 50), 2u);    // rank ceil(2.5) = 3
  EXPECT_EQ(stats::nearest_rank_index(10, 100), 9u);  // p100 = max
  EXPECT_EQ(stats::nearest_rank_index(1000, 999, 1000), 998u);
  EXPECT_EQ(stats::nearest_rank_index(10, 999, 1000), 9u);
}

TEST(NearestRank, PercentileSortedIndexesBySameRule) {
  std::vector<std::uint64_t> sorted(50);
  for (std::size_t i = 0; i < sorted.size(); ++i)
    sorted[i] = 100 * (i + 1);  // 100, 200, ..., 5000
  const std::span<const std::uint64_t> view(sorted);
  EXPECT_EQ(stats::percentile_sorted(view, 50), 2500u);
  EXPECT_EQ(stats::percentile_sorted(view, 99), 5000u);
  EXPECT_EQ(stats::percentile_sorted(view, 100), 5000u);
  EXPECT_EQ(stats::percentile_sorted(view, 1), 100u);
}

// --------------------------------------------------------------------------
// LatencyHistogram
// --------------------------------------------------------------------------

TEST(LatencyHistogram, FootprintIsFixedAndSmall) {
  // The whole point: recording cost is independent of sample count. The
  // bucket array plus exact count/min/max must stay under 8 KiB.
  static_assert(sizeof(LatencyHistogram) <=
                LatencyHistogram::kBuckets * sizeof(std::uint64_t) + 64);
  static_assert(sizeof(LatencyHistogram) <= 8192);
  static_assert(LatencyHistogram::kBuckets == 976);
  // The dag-fabric inject ring is likewise a fixed compile-time footprint.
  static_assert(transport::kLatencyRingSlots == 4096);
}

TEST(LatencyHistogram, BucketIndexIsMonotoneAndBoundsAreConsistent) {
  // Exhaustive over the first few octaves plus spot checks above: index
  // never decreases as the value grows, and every value lands inside
  // [lower, upper] of its own bucket.
  std::size_t previous = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    EXPECT_GE(index, previous);
    EXPECT_LE(LatencyHistogram::bucket_lower(index), v);
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v);
    previous = index;
  }
  for (const std::uint64_t v :
       {std::uint64_t{1} << 32, (std::uint64_t{1} << 40) + 12345,
        ~std::uint64_t{0}}) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    EXPECT_LT(index, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::bucket_lower(index), v);
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v);
  }
  // Values below kSubBuckets are exact (width-1 buckets), and the first
  // full octave is exact too (shift 0).
  for (std::uint64_t v = 0; v < 32; ++v) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(LatencyHistogram::bucket_lower(index), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(index), v);
  }
}

TEST(LatencyHistogram, TracksExactCountMinMax) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 0u);
  EXPECT_EQ(histogram.percentile(99), 0u);
  histogram.add(1'000);
  histogram.add(17);
  histogram.add(123'456'789);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.min(), 17u);
  EXPECT_EQ(histogram.max(), 123'456'789u);
  // p100 is clamped to the exact max, not the bucket upper bound.
  EXPECT_EQ(histogram.percentile(100), 123'456'789u);
}

TEST(LatencyHistogram, PercentilesMatchExactSortedWithinOneBucketWidth) {
  // The acceptance criterion: for every quantile, the histogram answer is
  // >= the exact sorted-sample nearest-rank answer and within that
  // sample's bucket width of it (the two use the same rank rule, so the
  // rank-th sample's own bucket is the one reported).
  Xoshiro256 rng(2025);
  LatencyHistogram histogram;
  std::vector<std::uint64_t> samples;
  samples.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    // Mixed-scale values: uniform small, geometric-ish medium, rare huge.
    std::uint64_t value = rng.bounded(500);
    if (i % 3 == 0) value = 20'000 + rng.bounded(1'000'000);
    if (i % 97 == 0) value = rng.bounded(std::uint64_t{1} << 40);
    samples.push_back(value);
    histogram.add(value);
  }
  std::sort(samples.begin(), samples.end());
  const std::span<const std::uint64_t> sorted(samples);
  const std::pair<std::uint64_t, std::uint64_t> quantiles[] = {
      {1, 100},  {25, 100}, {50, 100},  {90, 100},
      {99, 100}, {999, 1000}, {100, 100}};
  for (const auto& [num, den] : quantiles) {
    const std::uint64_t exact = stats::percentile_sorted(sorted, num, den);
    const std::uint64_t approx = histogram.percentile(num, den);
    const std::size_t bucket = LatencyHistogram::bucket_index(exact);
    const std::uint64_t width = LatencyHistogram::bucket_upper(bucket) -
                                LatencyHistogram::bucket_lower(bucket) + 1;
    EXPECT_GE(approx, exact) << num << "/" << den;
    EXPECT_LT(approx - exact, width) << num << "/" << den;
  }
}

TEST(LatencyHistogram, MergeIsExactAndOrderIndependent) {
  // Sharded accumulation must be bit-identical to sequential accumulation
  // (operator== compares every bucket + count + min + max), and merge
  // order must not matter — that is what makes 1-vs-N-worker run_trials
  // reductions reproducible.
  Xoshiro256 rng(7);
  LatencyHistogram whole;
  LatencyHistogram shards[4];
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5'000; ++i)
    values.push_back(rng.bounded(std::uint64_t{1} << 36));
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.add(values[i]);
    shards[i % 4].add(values[i]);
  }
  LatencyHistogram forward;
  for (int s = 0; s < 4; ++s) forward.merge(shards[s]);
  LatencyHistogram backward;
  for (int s = 3; s >= 0; --s) backward.merge(shards[s]);
  EXPECT_TRUE(forward == whole);
  EXPECT_TRUE(backward == whole);
  EXPECT_EQ(forward.p999(), whole.p999());
}

// --------------------------------------------------------------------------
// ArrivalProcess
// --------------------------------------------------------------------------

TEST(ArrivalProcess, PacedReproducesLegacyPaceArithmeticExactly) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPaced;
  spec.interval = 12'345;
  ArrivalProcess process(spec);
  for (std::uint64_t i = 0; i < 1'000; ++i)
    ASSERT_EQ(process.due(i), i * spec.interval);
  // No drift at large indices either (pure multiplication, no state).
  EXPECT_EQ(process.due(1'000'000), 1'000'000u * spec.interval);
}

TEST(ArrivalProcess, DuesAreDeterministicIdempotentAndMonotone) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.interval = 4'000;
  spec.seed = 99;
  ArrivalProcess a(spec);
  ArrivalProcess b(spec);
  TimePs previous = 0;
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    const TimePs due = a.due(i);
    // Same spec -> same sequence; re-querying the current index draws
    // nothing and returns the same instant (a blocked arrival's due time
    // must never drift while the endpoint polls).
    ASSERT_EQ(b.due(i), due);
    ASSERT_EQ(a.due(i), due);
    ASSERT_GE(due, previous);
    previous = due;
  }
  ArrivalSpec reseeded = spec;
  reseeded.seed = 100;
  ArrivalProcess c(reseeded);
  bool any_difference = false;
  ArrivalProcess d(spec);
  for (std::uint64_t i = 0; i < 100 && !any_difference; ++i)
    any_difference = c.due(i) != d.due(i);
  EXPECT_TRUE(any_difference);
}

TEST(ArrivalProcess, PoissonEmpiricalRateMatchesInterval) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.interval = 10'000;
  spec.seed = 31;
  ArrivalProcess process(spec);
  const std::uint64_t n = 50'000;
  const TimePs last = process.due(n);
  // Mean inter-arrival within 2% of the configured interval at this fixed
  // seed (law of large numbers, deterministic given the seed).
  const double mean = static_cast<double>(last) / static_cast<double>(n);
  EXPECT_NEAR(mean, 10'000.0, 200.0);
  // And genuinely stochastic: consecutive gaps are not all equal. Queries
  // are sequenced in index order (due() walks a cumulative sum forward).
  ArrivalProcess fresh(spec);
  const TimePs d0 = fresh.due(0);
  const TimePs d1 = fresh.due(1);
  const TimePs d2 = fresh.due(2);
  const TimePs d3 = fresh.due(3);
  const TimePs g1 = d1 - d0;
  const TimePs g2 = d2 - d1;
  const TimePs g3 = d3 - d2;
  EXPECT_TRUE(g1 != g2 || g2 != g3);
}

// --------------------------------------------------------------------------
// plan_dag arrival validation
// --------------------------------------------------------------------------

transport::DagConfig two_node_config() {
  transport::DagConfig config;
  config.nodes.push_back(
      transport::DagNode{"a", transport::DagNodeKind::kTerminal, {}});
  config.nodes.push_back(
      transport::DagNode{"b", transport::DagNodeKind::kTerminal, {}});
  transport::DagEdge edge;
  edge.src = 0;
  edge.dst = 1;
  config.edges.push_back(edge);
  config.flows.push_back(transport::DagFlow{0, 1, 100, 0x7});
  config.horizon = 1'000'000;
  return config;
}

TEST(DagArrivalValidation, AcceptsEachWellFormedKind) {
  transport::DagConfig config = two_node_config();
  EXPECT_NO_THROW(plan_dag(config));  // greedy default
  config.flows[0].arrival = ArrivalKind::kPaced;
  config.flows[0].interval = 5'000;
  EXPECT_NO_THROW(plan_dag(config));
  config.flows[0].arrival = ArrivalKind::kPoisson;
  EXPECT_NO_THROW(plan_dag(config));
}

TEST(DagArrivalValidation, RejectsIllFormedArrivalSpecs) {
  // Rate-shaped kinds need a rate.
  transport::DagConfig config = two_node_config();
  config.flows[0].arrival = ArrivalKind::kPaced;
  transport::expect_plan_rejects(
      config, "flow 0 (paced arrivals) needs interval > 0");
  config.flows[0].arrival = ArrivalKind::kPoisson;
  transport::expect_plan_rejects(
      config, "flow 0 (poisson arrivals) needs interval > 0");
  // Greedy flows take no interval (that is what the kinds are for).
  config = two_node_config();
  config.flows[0].interval = 2'000;
  transport::expect_plan_rejects(
      config,
      "flow 0 (greedy arrivals) sets interval; pick a rate-shaped arrival "
      "kind");
}

TEST(DagArrivalValidation, KindNamesAreStable) {
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kGreedy), "greedy");
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kPaced), "paced");
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kPoisson), "poisson");
}

}  // namespace
}  // namespace rxl
