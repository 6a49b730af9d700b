// Application-layer scoreboards: classify protocol failures.
//
// The paper defines two failure classes (§7.1): Fail_data — corrupted data
// forwarded to the application — and Fail_order — data forwarded out of
// order (gaps, duplicates). The scoreboards sit above the protocol stack
// and use simulation ground truth (the envelope's stream index, and the
// stream's payload regenerated from that index), so they observe exactly
// what the paper's hypothetical application would.
//
// A Fail_data needs an error to touch the flit, and a touched flit holds
// its payload as bytes (the channel or hub that touched it wrote them).
// A delivery whose payload still references the stream's own PayloadFn
// was touched by no error, so its bytes are the sent ones by construction
// and the regenerate-and-compare is skipped; every other delivery is
// compared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>

#include "rxl/common/types.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/sim/payload_fn.hpp"

namespace rxl::txn {

/// Flit-stream-level scoreboard (one per direction). It stores nothing per
/// stream position: the sent payload is regenerated from its index, and
/// only the positions skipped past (the open gaps) are remembered, as
/// intervals.
class StreamScoreboard {
 public:
  struct Stats {
    std::uint64_t delivered = 0;         ///< total deliveries seen
    std::uint64_t in_order = 0;          ///< unique, in-position deliveries
    /// Fail_order episodes: a delivery consumed PAST a gap (the application
    /// ran ahead while predecessors were missing). One count per skip event,
    /// matching the paper's per-drop ordering-failure accounting (Eq. 7).
    std::uint64_t order_violations = 0;
    std::uint64_t duplicates = 0;        ///< Fail_order: re-delivered flits
    /// Skipped flits that eventually arrived after the stream moved on
    /// (consumed out of position; the tail of an order-violation episode).
    std::uint64_t late_deliveries = 0;
    std::uint64_t data_corruptions = 0;  ///< Fail_data: payload mismatch
    std::uint64_t untracked = 0;         ///< deliveries without ground truth
    std::uint64_t missing = 0;           ///< computed by finalize()
  };

  /// `payload` is the stream's payload as a function of its position. The
  /// board holds it: the stream's source sends payload_fn() by reference,
  /// so the board must not move while flits reference it.
  explicit StreamScoreboard(sim::PayloadFn payload) : payload_(payload) {}

  /// The stream's PayloadFn, for its source to send by reference.
  [[nodiscard]] sim::PayloadFn* payload_fn() noexcept { return &payload_; }

  /// TX side: stream positions up to `index` have been offered. Only those
  /// are checked for corruption on delivery.
  void register_sent(std::uint64_t index) noexcept {
    if (index >= registered_) registered_ = index + 1;
  }

  /// RX side: records a delivery (envelope ground truth and payload). The
  /// payload is compared with the regenerated one unless it references
  /// payload_fn(): one held as bytes is compared as it is, one held by
  /// another function through that function.
  void on_deliver(const sim::FlitEnvelope& envelope);

  /// Fills in `missing` (positions below the highest delivered one that
  /// never arrived) and returns the totals.
  [[nodiscard]] Stats finalize() const;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Number of open gaps: maximal runs of skipped positions not yet
  /// delivered late.
  [[nodiscard]] std::size_t open_gaps() const noexcept { return gaps_.size(); }

 private:
  /// Removes `index` from the open gaps; false when it is in none (so the
  /// position was delivered before).
  bool fill_gap(std::uint64_t index);

  sim::PayloadFn payload_;
  std::uint64_t registered_ = 0;     ///< positions [0, registered_) offered
  std::uint64_t expected_next_ = 0;  ///< one past the highest delivered
  /// Open gaps below expected_next_, first position -> one past the last.
  std::map<std::uint64_t, std::uint64_t> gaps_;
  std::uint64_t gap_positions_ = 0;  ///< total length of gaps_
  Stats stats_;
};

/// Transaction-message-level scoreboard (paper Fig. 5): unpacks the
/// messages in each delivered payload and checks per-CQID ordering.
class TxnScoreboard {
 public:
  struct Stats {
    std::uint64_t messages = 0;
    std::uint64_t requests_executed = 0;
    std::uint64_t duplicate_executions = 0;  ///< Fig. 5a failure
    std::uint64_t out_of_order_data = 0;     ///< Fig. 5b failure (same CQID)
  };

  /// Feeds one delivered 240 B payload (as bytes: a payload held by
  /// reference is written out first, see sim::payload_bytes).
  void on_deliver_payload(std::span<const std::uint8_t> payload);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  std::unordered_map<std::uint16_t, std::uint32_t> next_tag_;
  Stats stats_;
};

}  // namespace rxl::txn
