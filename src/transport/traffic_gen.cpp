#include "rxl/transport/traffic_gen.hpp"

#include <cassert>
#include <cmath>

namespace rxl::transport {
namespace {

TimePs to_time(double ps) {
  if (ps <= 0.0) return 0;
  return static_cast<TimePs>(ps + 0.5);
}

}  // namespace

const char* arrival_kind_name(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::kGreedy:
      return "greedy";
    case ArrivalKind::kPaced:
      return "paced";
    case ArrivalKind::kPoisson:
      return "poisson";
  }
  return "?";
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec) noexcept
    : spec_(spec), rng_(spec.seed) {}

TimePs ArrivalProcess::due(std::uint64_t index) noexcept {
  switch (spec_.kind) {
    case ArrivalKind::kGreedy:
      return 0;
    case ArrivalKind::kPaced:
      // Exact legacy pace arithmetic: no state, no drift, no RNG draws.
      return static_cast<TimePs>(index) * spec_.interval;
    case ArrivalKind::kPoisson:
      break;
  }
  assert(index >= current_index_ && "arrival indices must be nondecreasing");
  while (current_index_ < index) {
    // Exponential inter-arrival via inverse CDF; uniform() < 1 so the log
    // argument is strictly positive.
    const double u = rng_.uniform();
    current_due_ +=
        to_time(-std::log(1.0 - u) * static_cast<double>(spec_.interval));
    current_index_ += 1;
  }
  return current_due_;
}

}  // namespace rxl::transport
