// Deterministic fault injection for simulated links and relays.
//
// A FaultPlan is a pure schedule: per-edge timelines of down windows (link
// death and flaps) plus relay fail-stop events, all fixed before the run
// starts. LinkChannel consults its edge's LinkFaultSchedule at transmit
// time and black-holes flits that hit a dead wire — layered on top of the
// ErrorModel, not inside it, so a run with an empty plan draws exactly the
// same random numbers and schedules exactly the same events as a run built
// without fault support at all (the eight deterministic bench tables stay
// byte-identical with faults disabled).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rxl/common/types.hpp"

namespace rxl::sim {

/// One contiguous outage. `up_at == 0` means the link never comes back
/// (link death); otherwise the link is down for timestamps in
/// [down_at, up_at) and transmits normally again from up_at.
struct FaultWindow {
  TimePs down_at = 0;
  TimePs up_at = 0;  ///< exclusive end; 0 = down forever
};

/// A relay that fail-stops at `at`: every link incident to the node is
/// down forever from that instant and the node's protocol state is lost.
struct RelayFailStop {
  std::uint16_t node = 0;
  TimePs at = 0;
};

/// Sorted, disjoint down-window timeline for one edge.
class LinkFaultSchedule {
 public:
  /// Appends a window; call normalize() once after the last add_window()
  /// before querying. `up_at == 0` marks a permanent outage. A finite window
  /// must end after it starts; one that does not is kept as given, so that
  /// transport::plan_dag can reject the plan with std::invalid_argument.
  void add_window(TimePs down_at, TimePs up_at);

  /// Sorts by down_at and merges overlapping/adjacent windows. A permanent
  /// window swallows everything at or after its down_at. Idempotent.
  /// Asserts that every finite window ends after it starts.
  void normalize();

  /// True when a flit entering the wire at `t` lands in a down window.
  [[nodiscard]] bool down_at_time(TimePs t) const noexcept;

  /// Number of finite windows fully over by `t` (up_at <= t). The channel
  /// compares this against a cursor to detect "link came back since the
  /// last transmit" and re-equalize its error model exactly once per
  /// revival.
  [[nodiscard]] std::size_t windows_ended_by(TimePs t) const noexcept;

  /// True when any window is permanent (the edge eventually dies for good).
  [[nodiscard]] bool permanently_down() const noexcept;

  [[nodiscard]] bool empty() const noexcept { return windows_.empty(); }
  [[nodiscard]] const std::vector<FaultWindow>& windows() const noexcept {
    return windows_;
  }

 private:
  std::vector<FaultWindow> windows_;  ///< sorted and disjoint after normalize
};

/// The whole run's fault schedule: one timeline per edge (indexed by edge
/// id; missing tail entries mean "no faults") plus relay fail-stop events.
/// Default-constructed = no faults, byte-identical behaviour.
struct FaultPlan {
  std::vector<LinkFaultSchedule> edges;
  std::vector<RelayFailStop> relay_failures;

  /// Grows `edges` so that `edge(e)` is addressable.
  LinkFaultSchedule& edge(std::size_t e) {
    if (e >= edges.size()) edges.resize(e + 1);
    return edges[e];
  }

  [[nodiscard]] bool empty() const noexcept {
    if (!relay_failures.empty()) return false;
    for (const LinkFaultSchedule& schedule : edges)
      if (!schedule.empty()) return false;
    return true;
  }
};

/// Seed-driven flap generator: lays down finite outages of length `outage`
/// starting in [start, horizon), separated by `mean_gap` plus a uniform
/// jitter of up to mean_gap/2, all drawn from a private stream seeded by
/// `seed`. Same seed, same schedule — flap sweeps replay from one number.
[[nodiscard]] LinkFaultSchedule make_flap_schedule(std::uint64_t seed,
                                                   TimePs start, TimePs horizon,
                                                   TimePs mean_gap,
                                                   TimePs outage);

}  // namespace rxl::sim
