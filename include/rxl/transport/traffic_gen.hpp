// Open-loop traffic generators for fabric workloads.
//
// Fixed per-flow flit counts pulled at wire speed (the only workload shape
// before this header) measure a fabric that is always saturated. Real load
// studies need an *offered load*: an arrival process that decides when the
// next payload becomes available, independent of when the transport manages
// to send it. ArrivalProcess models the two rate-shaped kinds —
// deterministic rate and Poisson. A DagFlow names its arrival kind and
// interval, so every canned scenario can be driven at a chosen load.
//
// Determinism: all randomness comes from the seeded Xoshiro256 stream in
// the spec (never wall clock, lint R2), and due-times are generated by a
// cumulative walk queried with nondecreasing indices, so the same spec
// always yields the same arrival sequence — including across reruns and
// sim::run_trials worker counts.
#pragma once

#include <cstdint>

#include "rxl/common/rng.hpp"
#include "rxl/common/types.hpp"

namespace rxl::transport {

enum class ArrivalKind : std::uint8_t {
  /// Pull-limited: every payload is available immediately (legacy default).
  kGreedy = 0,
  /// Deterministic rate: arrival i is due at exactly i * interval.
  kPaced,
  /// Poisson process: i.i.d. exponential inter-arrivals with mean interval.
  kPoisson,
};

[[nodiscard]] const char* arrival_kind_name(ArrivalKind kind) noexcept;

/// Shape parameters for an open-loop arrival process.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kGreedy;
  /// Mean inter-arrival time; the offered rate is 1/interval.
  TimePs interval = 0;
  /// Seed for the process's private Xoshiro256 stream.
  std::uint64_t seed = 1;
};

/// Generates the due-time of each arrival index for an open-loop spec.
///
/// due(i) is the earliest instant arrival i may be offered to the
/// transport. Queries must use nondecreasing indices (the endpoint pull
/// model guarantees this: index i is re-polled until it yields a payload,
/// then i+1 begins); repeated queries of the current index are free and
/// draw nothing, so the due-time of a blocked arrival never drifts.
/// kPaced draws nothing at all and reproduces the legacy pace arithmetic
/// (i * interval) exactly.
class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalSpec& spec) noexcept;

  [[nodiscard]] TimePs due(std::uint64_t index) noexcept;

 private:
  ArrivalSpec spec_;
  Xoshiro256 rng_;
  std::uint64_t current_index_ = 0;
  TimePs current_due_ = 0;
};

}  // namespace rxl::transport
