#include "rxl/sim/fault_plan.hpp"

#include <algorithm>
#include <cassert>

#include "rxl/common/rng.hpp"

namespace rxl::sim {

void LinkFaultSchedule::add_window(TimePs down_at, TimePs up_at) {
  windows_.push_back(FaultWindow{down_at, up_at});
}

void LinkFaultSchedule::normalize() {
  if (windows_.empty()) return;
  assert(std::all_of(windows_.begin(), windows_.end(),
                     [](const FaultWindow& w) {
                       return w.up_at == 0 || w.up_at > w.down_at;
                     }) &&
         "LinkFaultSchedule: a finite window must end after it starts");
  std::sort(windows_.begin(), windows_.end(),
            [](const FaultWindow& a, const FaultWindow& b) {
              if (a.down_at != b.down_at) return a.down_at < b.down_at;
              // Permanent windows (up_at == 0) sort after finite ones so the
              // merge below sees the longest reach last.
              if ((a.up_at == 0) != (b.up_at == 0)) return b.up_at == 0;
              return a.up_at < b.up_at;
            });
  std::vector<FaultWindow> merged;
  merged.reserve(windows_.size());
  for (const FaultWindow& window : windows_) {
    if (!merged.empty() && merged.back().up_at == 0) break;  // dead for good
    if (merged.empty() || (window.down_at > merged.back().up_at &&
                           merged.back().up_at != 0)) {
      merged.push_back(window);
      continue;
    }
    FaultWindow& last = merged.back();
    if (window.up_at == 0)
      last.up_at = 0;
    else
      last.up_at = std::max(last.up_at, window.up_at);
  }
  windows_ = std::move(merged);
}

bool LinkFaultSchedule::down_at_time(TimePs t) const noexcept {
  for (const FaultWindow& window : windows_) {
    if (t < window.down_at) return false;  // sorted: nothing later matches
    if (window.up_at == 0 || t < window.up_at) return true;
  }
  return false;
}

std::size_t LinkFaultSchedule::windows_ended_by(TimePs t) const noexcept {
  std::size_t ended = 0;
  for (const FaultWindow& window : windows_) {
    if (window.up_at == 0 || window.up_at > t) break;
    ended += 1;
  }
  return ended;
}

bool LinkFaultSchedule::permanently_down() const noexcept {
  for (const FaultWindow& window : windows_)
    if (window.up_at == 0) return true;
  return false;
}

LinkFaultSchedule make_flap_schedule(std::uint64_t seed, TimePs start,
                                     TimePs horizon, TimePs mean_gap,
                                     TimePs outage) {
  assert(mean_gap > 0 && outage > 0);
  LinkFaultSchedule schedule;
  Xoshiro256 rng(seed);
  TimePs at = start;
  while (true) {
    at += mean_gap + static_cast<TimePs>(
                         rng.bounded(static_cast<std::uint64_t>(mean_gap / 2) +
                                     1));
    if (at >= horizon) break;
    schedule.add_window(at, at + outage);
  }
  schedule.normalize();
  return schedule;
}

}  // namespace rxl::sim
