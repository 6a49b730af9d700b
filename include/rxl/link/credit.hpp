// Credit-based flow control primitives for one hop direction.
//
// A hop's transmitter starts with a window of `credits` equal to the
// receiver-side buffer depth it is allowed to fill (the relay's bounded
// store-and-forward queue, or the sink terminal's notional one-deep consume
// buffer). Each FIRST transmission of a data flit consumes one credit;
// replays never do — the replayed flit's buffer slot was reserved when the
// flit was first sent, and the receiver accepts any given sequence number at
// most once. The receiver returns a credit when the payload LEAVES its
// bounded buffer (a relay re-originates it downstream; a terminal consumes
// it at delivery).
//
// Returns travel as a CUMULATIVE free-slot count — the credit analogue of
// the paper's implicit sequence numbers — stamped into the credit word of
// every outbound control flit (ACKs, NACKs, standalone credit returns). A
// corrupted return is healed by the next stamped flit, because the count is
// absolute: the transmitter grants itself the 16-bit difference since the
// last count it saw, so no incremental update can be lost forever. The only
// unrecoverable case — the final return of a quiescent hop lost with nothing
// following it — is closed by the transmitter's credit probe (see
// Endpoint::on_credit_probe_timer), which asks a silent receiver to
// re-advertise its current count.
//
// The scheme assumes the domain delivers exactly-once: a flit lost FOREVER
// (never delivered) leaks its slot — no cumulative count can free what will
// never arrive — and a duplicate delivery frees a slot twice, inflating the
// window. RXL domains and relay-terminated hops guarantee exactly-once;
// baseline-CXL domains spliced through a transparent hub do not (§4.1
// silent-drop masking), which is why plan_dag() rejects credits on that
// combination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rxl::link {

/// Largest representable credit window: cumulative return counts travel in
/// a 16-bit word and grants are the modular difference between consecutive
/// counts, so a window must stay below half the count space.
inline constexpr std::size_t kMaxCreditWindow = 0x7FFF;

/// Virtual channels per hop direction. Each VC gets its own credit word on
/// control flits (payload bytes [2*vc, 2*vc+2), all CRC-covered), so the
/// count is bounded by the payload real estate reserved for credit state.
inline constexpr std::size_t kMaxVcs = 8;

/// Transmit-side window: the hop credits this endpoint may spend on new
/// data flits. `window == 0` disables flow control (an unbounded peer).
class CreditWindow {
 public:
  explicit CreditWindow(std::size_t window) noexcept
      : enabled_(window > 0), balance_(window) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// True when a new data flit may be sent (always true when disabled).
  [[nodiscard]] bool available() const noexcept {
    return !enabled_ || balance_ > 0;
  }
  [[nodiscard]] std::size_t balance() const noexcept { return balance_; }

  /// Spends one credit on a first transmission. No-op when disabled.
  void consume() noexcept {
    if (!enabled_) return;
    balance_ -= 1;
    consumed_ += 1;
  }

  /// Applies a cumulative free-slot count from the peer; returns the number
  /// of credits newly granted (0 for a stale or repeated count). Counts are
  /// compared modulo 2^16, so a window may not exceed 32767 credits.
  [[nodiscard]] std::size_t on_advertisement(
      std::uint16_t cumulative_returned) noexcept {
    if (!enabled_) return 0;
    const std::uint16_t delta =
        static_cast<std::uint16_t>(cumulative_returned - grant_cursor_);
    // The reverse wire is FIFO, so counts only move forward; a large delta
    // would mean a (impossible) backward jump re-read as a huge advance.
    if (delta == 0 || delta > 0x7FFF) return 0;
    grant_cursor_ = cumulative_returned;
    balance_ += delta;
    granted_ += delta;
    return delta;
  }

  /// Dead-hop drain: refunds every outstanding slot (consumed but neither
  /// granted back nor previously refunded), restoring the window to its
  /// full depth. This closes the lost-forever leak documented above for
  /// the one case where "forever" is knowable — the hop has been declared
  /// dead, so no return can ever arrive and every reserved slot is known
  /// abandoned. Returns the number of credits refunded, so that after a
  /// drain the ledger balances as consumed() == granted() + refunded().
  std::size_t refund_outstanding() noexcept {
    if (!enabled_) return 0;
    const std::uint64_t outstanding = consumed_ - granted_ - refunded_;
    balance_ += static_cast<std::size_t>(outstanding);
    refunded_ += outstanding;
    return static_cast<std::size_t>(outstanding);
  }

  /// Lifetime counters for the conservation invariants.
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }
  [[nodiscard]] std::uint64_t granted() const noexcept { return granted_; }
  [[nodiscard]] std::uint64_t refunded() const noexcept { return refunded_; }

 private:
  bool enabled_;
  std::size_t balance_;
  std::uint16_t grant_cursor_ = 0;  ///< last cumulative count applied
  std::uint64_t consumed_ = 0;
  std::uint64_t granted_ = 0;
  std::uint64_t refunded_ = 0;  ///< slots refunded at dead-hop drain
};

/// Receive-side return ledger: counts buffer slots freed back to the
/// upstream transmitter and tracks what has already been stamped onto an
/// outbound control flit.
class CreditReturnLedger {
 public:
  explicit CreditReturnLedger(bool enabled) noexcept : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one freed buffer slot (payload left the bounded queue).
  void on_slot_freed() noexcept {
    if (!enabled_) return;
    returned_total_ += 1;
    returned_ += 1;
  }

  /// The cumulative free count to stamp into an outbound control flit.
  [[nodiscard]] std::uint16_t returned_total() const noexcept {
    return returned_total_;
  }

  /// Frees not yet carried by any outbound control flit.
  [[nodiscard]] std::uint16_t unadvertised() const noexcept {
    return static_cast<std::uint16_t>(returned_total_ - advertised_cursor_);
  }

  /// Marks the current cumulative count as carried (call when any control
  /// flit is encoded — every one carries the latest count).
  void mark_advertised() noexcept { advertised_cursor_ = returned_total_; }

  [[nodiscard]] std::uint64_t returned() const noexcept { return returned_; }

 private:
  bool enabled_;
  std::uint16_t returned_total_ = 0;    ///< cumulative, wraps mod 2^16
  std::uint16_t advertised_cursor_ = 0;  ///< last count stamped on the wire
  std::uint64_t returned_ = 0;
};

/// A hop termination's credit provisioning: the window its TX spends (`tx`,
/// 0 = flow control off), the depth its RX advertises (`rx`, the peer's
/// `tx`) and the VCs the hop carries (1..kMaxVcs).
struct HopCredits {
  std::size_t tx = 0;
  std::size_t rx = 0;
  std::size_t vcs = 1;
};

/// Per-virtual-channel partition of transmit windows. Each VC owns a full
/// window of `window` credits — the receive side provisions one bounded
/// queue of that depth per VC — so an elephant flow exhausting its VC can
/// never starve a sibling VC of transmit credits. `vcs == 1` is exactly
/// the legacy single-window behaviour.
class VcCreditWindows {
 public:
  VcCreditWindows(std::size_t window, std::size_t vcs)
      : windows_(vcs == 0 ? 1 : vcs, CreditWindow(window)) {}

  [[nodiscard]] bool enabled() const noexcept { return windows_[0].enabled(); }
  [[nodiscard]] std::size_t vcs() const noexcept { return windows_.size(); }

  [[nodiscard]] CreditWindow& vc(std::size_t v) noexcept {
    return windows_[v];
  }
  [[nodiscard]] const CreditWindow& vc(std::size_t v) const noexcept {
    return windows_[v];
  }

  /// True when at least one VC could accept a new data flit right now.
  [[nodiscard]] bool any_available() const noexcept {
    for (const CreditWindow& w : windows_) {
      if (w.available()) return true;
    }
    return false;
  }

  /// Dead-hop drain across every partition; returns total credits refunded.
  std::size_t refund_outstanding() noexcept {
    std::size_t total = 0;
    for (CreditWindow& w : windows_) total += w.refund_outstanding();
    return total;
  }

 private:
  std::vector<CreditWindow> windows_;
};

/// Per-virtual-channel partition of receive-side return ledgers. Every
/// outbound control flit stamps ALL per-VC cumulative counts (each in its
/// own CRC-covered word), so a corrupted return on any VC heals exactly
/// like the single-channel scheme: the next control flit re-carries the
/// absolute count.
class VcCreditReturnLedgers {
 public:
  VcCreditReturnLedgers(bool enabled, std::size_t vcs)
      : ledgers_(vcs == 0 ? 1 : vcs, CreditReturnLedger(enabled)) {}

  [[nodiscard]] bool enabled() const noexcept { return ledgers_[0].enabled(); }
  [[nodiscard]] std::size_t vcs() const noexcept { return ledgers_.size(); }

  [[nodiscard]] CreditReturnLedger& vc(std::size_t v) noexcept {
    return ledgers_[v];
  }
  [[nodiscard]] const CreditReturnLedger& vc(std::size_t v) const noexcept {
    return ledgers_[v];
  }

  /// Frees not yet carried by any outbound control flit, over all VCs.
  [[nodiscard]] std::size_t unadvertised() const noexcept {
    std::size_t total = 0;
    for (const CreditReturnLedger& l : ledgers_) total += l.unadvertised();
    return total;
  }

  /// Marks every VC's current count as carried (control flits stamp all).
  void mark_advertised() noexcept {
    for (CreditReturnLedger& l : ledgers_) l.mark_advertised();
  }

 private:
  std::vector<CreditReturnLedger> ledgers_;
};

}  // namespace rxl::link
