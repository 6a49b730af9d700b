#include "rxl/txn/scoreboard.hpp"

#include <array>
#include <cstring>

#include "rxl/flit/message_pack.hpp"

namespace rxl::txn {

void StreamScoreboard::on_deliver(const sim::FlitEnvelope& envelope) {
  stats_.delivered += 1;
  if (!envelope.has_truth) {
    stats_.untracked += 1;
    return;
  }
  const std::uint64_t index = envelope.truth_index;

  // A payload still referencing this stream's function was touched by no
  // error: its bytes are the sent ones by construction.
  if (index < registered_ && envelope.payload_of != &payload_) {
    std::array<std::uint8_t, kPayloadBytes> sent;
    payload_(index, sent);
    std::array<std::uint8_t, kPayloadBytes> scratch;
    const std::span<const std::uint8_t, kPayloadBytes> payload =
        sim::payload_bytes(envelope, scratch);
    if (std::memcmp(payload.data(), sent.data(), sent.size()) != 0) {
      stats_.data_corruptions += 1;  // Fail_data: escaped all checks
    }
  }

  if (index == expected_next_) {
    stats_.in_order += 1;
    expected_next_ += 1;
  } else if (index > expected_next_) {
    // Delivered past a gap: the application consumed data whose
    // predecessors have not arrived (Fail_order). The stream moves on —
    // one violation per skip event — and the skipped run stays open.
    stats_.order_violations += 1;
    gaps_.emplace_hint(gaps_.end(), expected_next_, index);
    gap_positions_ += index - expected_next_;
    expected_next_ = index + 1;
  } else if (fill_gap(index)) {
    // A skipped flit finally arriving after the stream moved past it.
    stats_.late_deliveries += 1;
  } else {
    stats_.duplicates += 1;  // Fail_order: the application executes it twice
  }
}

bool StreamScoreboard::fill_gap(std::uint64_t index) {
  auto it = gaps_.upper_bound(index);
  if (it == gaps_.begin()) return false;
  --it;
  const std::uint64_t first = it->first;
  const std::uint64_t end = it->second;
  if (index >= end) return false;
  if (index == first) {
    it = gaps_.erase(it);
  } else {
    it->second = index;
    ++it;
  }
  if (index + 1 < end) gaps_.emplace_hint(it, index + 1, end);
  gap_positions_ -= 1;
  return true;
}

StreamScoreboard::Stats StreamScoreboard::finalize() const {
  Stats out = stats_;
  out.missing = gap_positions_;
  return out;
}

void TxnScoreboard::on_deliver_payload(
    std::span<const std::uint8_t> payload) {
  for (const flit::PackedMessage& message : flit::unpack_messages(payload)) {
    stats_.messages += 1;
    auto [it, inserted] = next_tag_.try_emplace(message.cqid, 0);
    const std::uint32_t expected = it->second;
    switch (message.kind) {
      case flit::MessageKind::kRequest:
        stats_.requests_executed += 1;
        if (message.tag < expected) {
          stats_.duplicate_executions += 1;  // Fig. 5a: request re-run
        } else {
          it->second = message.tag + 1u;
        }
        break;
      case flit::MessageKind::kData:
        if (message.tag != expected) {
          stats_.out_of_order_data += 1;  // Fig. 5b: same-CQID reorder/dup
          if (message.tag > expected) it->second = message.tag + 1u;
        } else {
          it->second = expected + 1u;
        }
        break;
      case flit::MessageKind::kEmpty:
      case flit::MessageKind::kResponse:
      default:  // kind is a raw wire byte: corruption can yield any value
        if (message.tag >= expected) it->second = message.tag + 1u;
        break;
    }
  }
}

}  // namespace rxl::txn
