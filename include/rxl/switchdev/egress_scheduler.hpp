// Pluggable egress scheduling for the relay's per-VC store-and-forward
// queues.
//
// A relay egress port parks accepted payloads in one bounded queue per
// virtual channel and re-originates them one flit per hop slot. WHICH queue
// the next flit comes from is the scheduling policy:
//  * kFifo        — one shared queue in arrival order. Head-of-line
//                   blocking is the point: this is the legacy per-ingress
//                   behaviour (trajectory-identical when every flow maps to
//                   VC 0) and the baseline the QoS bench compares against.
//  * kRoundRobin  — cycle the non-empty, non-blocked VCs one flit each.
//  * kDrr         — deficit round robin with per-flow weights: each visit
//                   tops the VC's deficit up by its quantum and serves
//                   while deficit lasts. Fixed-size flits make the quantum
//                   a flit count. The quantum floor max(1, weight) means a
//                   zero-weight VC still drains (no starvation), just at
//                   the lowest rate.
//
// The scheduler is deterministic: state advances only on pick() and depends
// only on queue emptiness, the endpoint's VC readiness (credits + ECN
// marks), and the weight table.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "rxl/link/credit.hpp"

namespace rxl::switchdev {

enum class EgressPolicy : std::uint8_t {
  kFifo = 0,
  kRoundRobin = 1,
  kDrr = 2,
};

[[nodiscard]] constexpr const char* egress_policy_name(
    EgressPolicy policy) noexcept {
  switch (policy) {
    case EgressPolicy::kFifo:
      return "FIFO";
    case EgressPolicy::kRoundRobin:
      return "RR";
    case EgressPolicy::kDrr:
      return "DRR";
  }
  return "?";
}

/// Per-egress-port scheduler state: one in-service VC and its remaining
/// deficit. A single deficit counter (instead of one per VC) keeps the
/// state minimal and the hand-off explicit: leaving a VC forfeits its
/// residual deficit, which bounds burst carry-over to one quantum.
struct DrrState {
  std::size_t current_vc = 0;
  std::uint32_t deficit = 0;
  bool in_service = false;
};

/// DRR weight per VC (flits per scheduler visit).
using VcWeights = std::array<std::uint32_t, link::kMaxVcs>;

/// Policy + weight table shared by every port of one relay, fixed when the
/// relay is built. The default is kFifo with every weight 1.
class EgressScheduler {
 public:
  EgressScheduler() = default;
  EgressScheduler(EgressPolicy policy, const VcWeights& weights) noexcept
      : policy_(policy), weights_(weights) {}

  [[nodiscard]] EgressPolicy policy() const noexcept { return policy_; }

  /// Flits granted per visit. The max(1, w) floor is the starvation guard:
  /// even a zero-weight VC drains one flit per round.
  [[nodiscard]] std::uint32_t quantum(std::size_t vc) const noexcept {
    return policy_ == EgressPolicy::kRoundRobin
               ? 1
               : std::max<std::uint32_t>(1, weights_[vc]);
  }

  /// Picks the VC to serve one flit from, advancing `state`. Skips empty
  /// VCs and VCs the egress endpoint cannot inject on right now, noting
  /// why in the blocked flags (a skipped VC forfeits its deficit). Returns
  /// nullopt when nothing is schedulable. kFifo ports never call this —
  /// their single queue's head decides.
  template <typename QueueEmptyFn, typename CreditOkFn, typename EcnOkFn>
  std::optional<std::size_t> pick(DrrState& state, QueueEmptyFn&& queue_empty,
                                  CreditOkFn&& credit_ok, EcnOkFn&& ecn_ok,
                                  bool* credit_blocked,
                                  bool* ecn_blocked) const {
    // Each iteration either serves (returns) or advances past one VC; with
    // kMaxVcs+1 visits every VC has been offered a fresh quantum once.
    for (std::size_t visits = 0; visits <= link::kMaxVcs; ++visits) {
      const std::size_t vc = state.current_vc;
      if (queue_empty(vc)) {
        advance(state);
        continue;
      }
      if (!credit_ok(vc)) {
        *credit_blocked = true;
        advance(state);
        continue;
      }
      if (!ecn_ok(vc)) {
        *ecn_blocked = true;
        advance(state);
        continue;
      }
      if (!state.in_service) {
        state.deficit = quantum(vc);
        state.in_service = true;
      }
      if (state.deficit == 0) {
        advance(state);
        continue;
      }
      state.deficit -= 1;
      return vc;
    }
    return std::nullopt;
  }

 private:
  static void advance(DrrState& state) noexcept {
    state.in_service = false;
    state.deficit = 0;
    state.current_vc = (state.current_vc + 1) % link::kMaxVcs;
  }

  EgressPolicy policy_ = EgressPolicy::kFifo;
  VcWeights weights_{1, 1, 1, 1, 1, 1, 1, 1};
};

}  // namespace rxl::switchdev
