#include "rxl/txn/scoreboard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <set>
#include <vector>

#include "rxl/common/bytes.hpp"
#include "rxl/common/rng.hpp"
#include "rxl/flit/message_pack.hpp"
#include "rxl/transport/traffic.hpp"

namespace rxl::txn {
namespace {

using Payload = std::array<std::uint8_t, kPayloadBytes>;

sim::FlitEnvelope envelope_for(std::uint64_t index) {
  sim::FlitEnvelope envelope;
  envelope.truth_index = index;
  envelope.has_truth = true;
  return envelope;
}

/// Stream position i carries 240 copies of the byte i.
void fill_with_index(std::uint64_t index,
                     std::span<std::uint8_t, kPayloadBytes> out) {
  std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(index));
}

std::vector<std::uint8_t> payload_of(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kPayloadBytes, fill);
}

/// Delivers `envelope` to `board` with `payload` held as bytes in its image.
void deliver_bytes(StreamScoreboard& board,
                   std::span<const std::uint8_t> payload,
                   sim::FlitEnvelope envelope) {
  std::copy(payload.begin(), payload.end(), envelope.flit.payload().begin());
  board.on_deliver(envelope);
}

TEST(StreamScoreboard, InOrderStream) {
  StreamScoreboard board(fill_with_index);
  for (std::uint64_t i = 0; i < 5; ++i) {
    board.register_sent(i);
    deliver_bytes(board, payload_of(static_cast<std::uint8_t>(i)),
                  envelope_for(i));
  }
  const auto stats = board.finalize();
  EXPECT_EQ(stats.delivered, 5u);
  EXPECT_EQ(stats.in_order, 5u);
  EXPECT_EQ(stats.order_violations, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.data_corruptions, 0u);
  EXPECT_EQ(stats.missing, 0u);
}

TEST(StreamScoreboard, GapIsOrderViolation) {
  StreamScoreboard board(fill_with_index);
  board.register_sent(2);
  deliver_bytes(board, payload_of(0), envelope_for(0));
  deliver_bytes(board, payload_of(2), envelope_for(2));  // skipped 1
  const auto stats = board.finalize();
  EXPECT_EQ(stats.order_violations, 1u);
  EXPECT_EQ(stats.in_order, 1u);
  EXPECT_EQ(stats.missing, 1u);  // index 1 never arrived
}

TEST(StreamScoreboard, GapLaterFilledCountsOnce) {
  StreamScoreboard board(fill_with_index);
  board.register_sent(2);
  deliver_bytes(board, payload_of(0), envelope_for(0));
  deliver_bytes(board, payload_of(2), envelope_for(2));
  deliver_bytes(board, payload_of(1), envelope_for(1));  // late arrival
  const auto stats = board.finalize();
  EXPECT_EQ(stats.order_violations, 1u);   // one skip event (2 before 1)
  EXPECT_EQ(stats.late_deliveries, 1u);    // 1 consumed out of position
  EXPECT_EQ(stats.in_order, 1u);           // only 0 arrived in position
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(board.open_gaps(), 0u);
}

TEST(StreamScoreboard, PermanentGapCountsOneViolation) {
  // After a skip the stream moves on: later in-order traffic is not
  // repeatedly penalised for an old gap.
  StreamScoreboard board(fill_with_index);
  board.register_sent(5);
  deliver_bytes(board, payload_of(0), envelope_for(0));
  deliver_bytes(board, payload_of(2), envelope_for(2));  // 1 lost forever
  for (std::uint64_t i = 3; i < 6; ++i)
    deliver_bytes(board, payload_of(static_cast<std::uint8_t>(i)),
                  envelope_for(i));
  const auto stats = board.finalize();
  EXPECT_EQ(stats.order_violations, 1u);
  EXPECT_EQ(stats.in_order, 4u);  // 0, 3, 4, 5
  EXPECT_EQ(stats.missing, 1u);
}

TEST(StreamScoreboard, DuplicateDetected) {
  StreamScoreboard board(fill_with_index);
  board.register_sent(0);
  deliver_bytes(board, payload_of(0), envelope_for(0));
  deliver_bytes(board, payload_of(0), envelope_for(0));
  EXPECT_EQ(board.stats().duplicates, 1u);
  EXPECT_EQ(board.stats().in_order, 1u);
}

TEST(StreamScoreboard, CorruptionDetectedByRegeneration) {
  StreamScoreboard board(fill_with_index);
  board.register_sent(0);
  std::vector<std::uint8_t> payload = payload_of(0);
  payload[117] ^= 0x10;  // one bit differs from the regenerated payload
  deliver_bytes(board, payload, envelope_for(0));
  EXPECT_EQ(board.stats().data_corruptions, 1u);
}

// A payload held by reference (FlitEnvelope::payload_of) to the board's own
// PayloadFn was touched by no error: its delivery is not compared. Every
// other delivery is.

TEST(StreamScoreboard, OwnPayloadReferenceIsNotCompared) {
  std::uint64_t regenerated = 0;
  StreamScoreboard board(
      [&regenerated](std::uint64_t index,
                     std::span<std::uint8_t, kPayloadBytes> out) {
        regenerated += 1;
        fill_with_index(index, out);
      });
  board.register_sent(1);
  sim::FlitEnvelope envelope = envelope_for(0);
  std::fill(envelope.flit.payload().begin(), envelope.flit.payload().end(),
            std::uint8_t{0xEE});  // the unwritten bytes are never read
  envelope.payload_of = board.payload_fn();
  board.on_deliver(envelope);
  EXPECT_EQ(regenerated, 0u);
  EXPECT_EQ(board.stats().data_corruptions, 0u);
  EXPECT_EQ(board.stats().in_order, 1u);
}

TEST(StreamScoreboard, AnotherPayloadReferenceIsCompared) {
  StreamScoreboard board(fill_with_index);
  board.register_sent(1);
  sim::PayloadFn same = fill_with_index;  // the sent bytes, another function
  sim::PayloadFn shifted = [](std::uint64_t index,
                              std::span<std::uint8_t, kPayloadBytes> out) {
    fill_with_index(index + 1, out);
  };
  sim::FlitEnvelope envelope = envelope_for(0);
  std::fill(envelope.flit.payload().begin(), envelope.flit.payload().end(),
            std::uint8_t{0xEE});  // compared through the function, not these
  envelope.payload_of = &same;
  board.on_deliver(envelope);
  EXPECT_EQ(board.stats().data_corruptions, 0u);
  envelope.truth_index = 1;
  envelope.payload_of = &shifted;
  board.on_deliver(envelope);
  EXPECT_EQ(board.stats().data_corruptions, 1u);
  EXPECT_EQ(board.stats().in_order, 2u);
}

TEST(StreamScoreboard, CorruptedPayloadHeldAsBytesIsCounted) {
  // What a link does to a flit its error hits: the payload is written out
  // (the reference dropped), then bits flip.
  StreamScoreboard board(fill_with_index);
  board.register_sent(0);
  sim::FlitEnvelope envelope = envelope_for(0);
  envelope.payload_of = board.payload_fn();
  sim::materialize(envelope);
  ASSERT_EQ(envelope.payload_of, nullptr);
  envelope.flit.payload()[17] ^= 0x04;
  board.on_deliver(envelope);
  EXPECT_EQ(board.stats().data_corruptions, 1u);
  envelope.flit.payload()[17] ^= 0x04;  // the intact bytes pass
  board.on_deliver(envelope);
  EXPECT_EQ(board.stats().data_corruptions, 1u);
  EXPECT_EQ(board.stats().duplicates, 1u);
}

TEST(StreamScoreboard, EveryPayloadByteIsChecked) {
  // A single flipped bit anywhere in the 240 B payload is a corruption, on
  // a first delivery and on a duplicate alike.
  StreamScoreboard board([](std::uint64_t index,
                            std::span<std::uint8_t, kPayloadBytes> out) {
    transport::fill_stream_payload(index, 0x5EED, out);
  });
  board.register_sent(kPayloadBytes);
  for (std::size_t byte = 0; byte < kPayloadBytes; ++byte) {
    std::vector<std::uint8_t> payload =
        transport::make_stream_payload(byte, 0x5EED);
    payload[byte] ^= static_cast<std::uint8_t>(1u << (byte % 8));
    deliver_bytes(board, payload, envelope_for(byte));  // first delivery
    deliver_bytes(board, payload, envelope_for(byte));  // duplicate
    EXPECT_EQ(board.stats().data_corruptions, 2 * (byte + 1))
        << "byte " << byte;
  }
  deliver_bytes(board, transport::make_stream_payload(7, 0x5EED),
                envelope_for(7));
  EXPECT_EQ(board.stats().data_corruptions, 2 * kPayloadBytes);
  EXPECT_EQ(board.stats().in_order, kPayloadBytes);
}

TEST(StreamScoreboard, PositionsNotYetRegisteredAreNotCompared) {
  StreamScoreboard board(fill_with_index);
  board.register_sent(0);
  deliver_bytes(board, payload_of(0), envelope_for(0));
  deliver_bytes(board, payload_of(0xEE), envelope_for(1));  // not registered
  EXPECT_EQ(board.stats().data_corruptions, 0u);
  board.register_sent(1);
  deliver_bytes(board, payload_of(0xEE), envelope_for(1));  // now it is
  EXPECT_EQ(board.stats().data_corruptions, 1u);
  EXPECT_EQ(board.stats().duplicates, 1u);
}

TEST(StreamScoreboard, UntrackedDeliveriesCounted) {
  StreamScoreboard board(fill_with_index);
  sim::FlitEnvelope envelope;  // has_truth = false
  deliver_bytes(board, payload_of(0), envelope);
  EXPECT_EQ(board.stats().untracked, 1u);
  EXPECT_EQ(board.stats().in_order, 0u);
}

TEST(StreamScoreboard, EmptyFinalize) {
  StreamScoreboard board(fill_with_index);
  const auto stats = board.finalize();
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.missing, 0u);
}

TEST(StreamScoreboard, GapSetStaysEmptyOverALongInOrderStream) {
  // No per-position state: a million in-order deliveries leave nothing
  // behind.
  StreamScoreboard board([](std::uint64_t index,
                            std::span<std::uint8_t, kPayloadBytes> out) {
    transport::fill_stream_payload(index, 3, out);
  });
  Payload payload;
  constexpr std::uint64_t kFlits = 1'000'000;
  for (std::uint64_t i = 0; i < kFlits; ++i) {
    transport::fill_stream_payload(i, 3, payload);
    board.register_sent(i);
    deliver_bytes(board, payload, envelope_for(i));
    if (board.open_gaps() != 0) FAIL() << "gap opened at " << i;
  }
  const auto stats = board.finalize();
  EXPECT_EQ(stats.in_order, kFlits);
  EXPECT_EQ(stats.data_corruptions, 0u);
  EXPECT_EQ(stats.missing, 0u);
}

TEST(StreamScoreboard, OneIntervalPerOpenGap) {
  StreamScoreboard board(fill_with_index);
  board.register_sent(100);
  const auto deliver = [&](std::uint64_t index) {
    deliver_bytes(board, payload_of(static_cast<std::uint8_t>(index)),
                  envelope_for(index));
  };
  deliver(0);
  deliver(5);   // gap [1, 5)
  deliver(6);
  deliver(20);  // gap [7, 20)
  EXPECT_EQ(board.open_gaps(), 2u);
  EXPECT_EQ(board.finalize().missing, 4u + 13u);
  deliver(3);   // splits [1, 5) into [1, 3) and [4, 5)
  EXPECT_EQ(board.open_gaps(), 3u);
  deliver(4);   // closes [4, 5)
  deliver(7);   // trims [7, 20) to [8, 20)
  deliver(19);  // trims it to [8, 19)
  EXPECT_EQ(board.open_gaps(), 2u);
  EXPECT_EQ(board.finalize().missing, 2u + 11u);
  deliver(1);
  deliver(2);
  for (std::uint64_t i = 8; i < 19; ++i) deliver(i);
  EXPECT_EQ(board.open_gaps(), 0u);
  const auto stats = board.finalize();
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(stats.late_deliveries, 17u);
  EXPECT_EQ(stats.order_violations, 2u);
}

// ---------------------------------------------------------------------------
// Reference model: the scoreboard as it was when it kept a payload hash per
// registered position and a delivered bit per position. The current board
// must reproduce its statistics exactly after every call.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a folded over 8-byte little-endian lanes plus a byte tail.
std::uint64_t lane_fnv1a64(std::span<const std::uint8_t> buf) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= buf.size(); i += 8) {
    hash ^= load_le64(buf, i);
    hash *= 0x100000001B3ull;
  }
  for (; i < buf.size(); ++i) {
    hash ^= buf[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

class ReferenceScoreboard {
 public:
  void register_sent(std::uint64_t index,
                     std::span<const std::uint8_t> payload) {
    if (index >= sent_hashes_.size()) sent_hashes_.resize(index + 1, 0);
    sent_hashes_[index] = lane_fnv1a64(payload);
  }

  void on_deliver(std::span<const std::uint8_t> payload,
                  const sim::FlitEnvelope& envelope) {
    stats_.delivered += 1;
    if (!envelope.has_truth) {
      stats_.untracked += 1;
      return;
    }
    const std::uint64_t index = envelope.truth_index;
    if (index >= seen_.size()) seen_.resize(index + 1, false);
    if (!any_delivered_ || index > highest_delivered_)
      highest_delivered_ = index;
    any_delivered_ = true;
    if (index < sent_hashes_.size() &&
        lane_fnv1a64(payload) != sent_hashes_[index]) {
      stats_.data_corruptions += 1;
    }
    if (seen_[index]) {
      stats_.duplicates += 1;
      return;
    }
    seen_[index] = true;
    if (index == expected_next_) {
      stats_.in_order += 1;
      expected_next_ += 1;
      while (expected_next_ < seen_.size() && seen_[expected_next_])
        expected_next_ += 1;
    } else if (index > expected_next_) {
      stats_.order_violations += 1;
      expected_next_ = index + 1;
      while (expected_next_ < seen_.size() && seen_[expected_next_])
        expected_next_ += 1;
    } else {
      stats_.late_deliveries += 1;
    }
  }

  [[nodiscard]] StreamScoreboard::Stats finalize() const {
    StreamScoreboard::Stats out = stats_;
    if (any_delivered_) {
      std::uint64_t missing = 0;
      for (std::uint64_t i = 0; i <= highest_delivered_ && i < seen_.size();
           ++i) {
        if (!seen_[i]) ++missing;
      }
      out.missing = missing;
    }
    return out;
  }

  [[nodiscard]] const StreamScoreboard::Stats& stats() const noexcept {
    return stats_;
  }

 private:
  std::vector<std::uint64_t> sent_hashes_;
  std::vector<bool> seen_;
  std::uint64_t expected_next_ = 0;
  std::uint64_t highest_delivered_ = 0;
  bool any_delivered_ = false;
  StreamScoreboard::Stats stats_;
};

std::string stats_string(const StreamScoreboard::Stats& s) {
  std::string out = "delivered=" + std::to_string(s.delivered);
  out += " in_order=" + std::to_string(s.in_order);
  out += " order_violations=" + std::to_string(s.order_violations);
  out += " duplicates=" + std::to_string(s.duplicates);
  out += " late=" + std::to_string(s.late_deliveries);
  out += " corruptions=" + std::to_string(s.data_corruptions);
  out += " untracked=" + std::to_string(s.untracked);
  out += " missing=" + std::to_string(s.missing);
  return out;
}

bool same_stats(const StreamScoreboard::Stats& a,
                const StreamScoreboard::Stats& b) {
  return stats_string(a) == stats_string(b);
}

/// Maximal runs of consecutive positions in `missing`.
std::size_t runs_in(const std::set<std::uint64_t>& missing) {
  std::size_t runs = 0;
  std::uint64_t previous = 0;
  bool first = true;
  for (const std::uint64_t index : missing) {
    if (first || index != previous + 1) ++runs;
    previous = index;
    first = false;
  }
  return runs;
}

/// What one scripted delivery does.
enum class Step {
  kInOrder,         // the next expected position
  kSkipAhead,       // past a gap of 1..6 positions
  kLateFill,        // a position inside an open gap
  kDuplicateOnTime, // a position that arrived in order
  kDuplicateLate,   // a position that arrived late
  kUnregistered,    // at or above the registered count
  kUntracked,       // no ground truth
};

TEST(StreamScoreboard, MatchesReferenceModelOnSeededScripts) {
  constexpr std::uint64_t kSalt = 0xD0;
  constexpr int kScripts = 96;
  constexpr int kStepsPerScript = 400;
  std::array<int, 7> taken{};  // steps of each kind, over all scripts
  for (int script = 0; script < kScripts; ++script) {
    Xoshiro256 rng(0x5C0AEB0A2Dull + static_cast<std::uint64_t>(script));
    StreamScoreboard board([](std::uint64_t index,
                              std::span<std::uint8_t, kPayloadBytes> out) {
      transport::fill_stream_payload(index, kSalt, out);
    });
    ReferenceScoreboard reference;
    std::uint64_t registered = 0;
    std::uint64_t expected_next = 0;
    std::set<std::uint64_t> missing;       // open gap positions
    std::vector<std::uint64_t> on_time;    // delivered in order or past a gap
    std::vector<std::uint64_t> late;       // delivered into a gap
    // Each script leans towards some steps, so the set covers long clean
    // runs, gap storms and duplicate bursts.
    std::array<std::uint64_t, 7> weights{};
    for (auto& weight : weights) weight = 1 + rng.bounded(6);
    weights[0] += 4;
    std::uint64_t total_weight = 0;
    for (const auto weight : weights) total_weight += weight;

    const auto register_up_to = [&](std::uint64_t end) {
      Payload payload;
      for (; registered < end; ++registered) {
        transport::fill_stream_payload(registered, kSalt, payload);
        reference.register_sent(registered, payload);
        board.register_sent(registered);
      }
    };

    for (int step = 0; step < kStepsPerScript; ++step) {
      register_up_to(std::max(registered, expected_next + rng.bounded(8)));
      std::uint64_t pick = rng.bounded(total_weight);
      std::size_t kind = 0;
      while (pick >= weights[kind]) pick -= weights[kind++];
      auto chosen = static_cast<Step>(kind);
      if (chosen == Step::kLateFill && missing.empty()) chosen = Step::kInOrder;
      if (chosen == Step::kDuplicateOnTime && on_time.empty())
        chosen = Step::kInOrder;
      if (chosen == Step::kDuplicateLate && late.empty())
        chosen = Step::kSkipAhead;
      taken[static_cast<std::size_t>(chosen)] += 1;

      sim::FlitEnvelope envelope = envelope_for(0);
      switch (chosen) {
        case Step::kInOrder:
          envelope.truth_index = expected_next;
          break;
        case Step::kSkipAhead:
          envelope.truth_index = expected_next + 1 + rng.bounded(6);
          break;
        case Step::kLateFill: {
          auto it = missing.begin();
          std::advance(it, static_cast<long>(rng.bounded(missing.size())));
          envelope.truth_index = *it;
          break;
        }
        case Step::kDuplicateOnTime:
          envelope.truth_index = on_time[rng.bounded(on_time.size())];
          break;
        case Step::kDuplicateLate:
          envelope.truth_index = late[rng.bounded(late.size())];
          break;
        case Step::kUnregistered:
          register_up_to(std::max(registered, expected_next));
          envelope.truth_index = registered + rng.bounded(3);
          break;
        case Step::kUntracked:
          envelope.has_truth = false;
          envelope.truth_index = rng.bounded(registered + 1);
          break;
      }
      const std::uint64_t index = envelope.truth_index;
      Payload payload;
      transport::fill_stream_payload(index, kSalt, payload);
      if (rng.bounded(5) == 0) {
        // Corrupted on the way: one bit anywhere in the payload.
        const std::uint64_t bit = rng.bounded(kPayloadBytes * 8);
        payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }

      deliver_bytes(board, payload, envelope);
      reference.on_deliver(payload, envelope);

      if (envelope.has_truth) {
        if (index == expected_next) {
          on_time.push_back(index);
          expected_next += 1;
        } else if (index > expected_next) {
          for (std::uint64_t i = expected_next; i < index; ++i)
            missing.insert(i);
          on_time.push_back(index);
          expected_next = index + 1;
        } else if (missing.erase(index) != 0) {
          late.push_back(index);
        }
      }

      ASSERT_TRUE(same_stats(board.stats(), reference.stats()))
          << "script " << script << " step " << step << "\n  board     "
          << stats_string(board.stats()) << "\n  reference "
          << stats_string(reference.stats());
      ASSERT_TRUE(same_stats(board.finalize(), reference.finalize()))
          << "script " << script << " step " << step << "\n  board     "
          << stats_string(board.finalize()) << "\n  reference "
          << stats_string(reference.finalize());
      ASSERT_EQ(board.open_gaps(), runs_in(missing))
          << "script " << script << " step " << step;
    }
  }
  // The scripts exercised every kind of delivery many times over.
  for (std::size_t kind = 0; kind < taken.size(); ++kind)
    EXPECT_GT(taken[kind], 1000) << "step kind " << kind;
}

std::vector<std::uint8_t> packed(std::vector<flit::PackedMessage> messages) {
  std::vector<std::uint8_t> payload(240, 0);
  flit::pack_messages(messages, payload);
  return payload;
}

TEST(TxnScoreboard, InOrderRequestsAndData) {
  TxnScoreboard board;
  board.on_deliver_payload(packed({{flit::MessageKind::kRequest, 1, 0},
                                   {flit::MessageKind::kData, 2, 0}}));
  board.on_deliver_payload(packed({{flit::MessageKind::kRequest, 1, 1},
                                   {flit::MessageKind::kData, 2, 1}}));
  EXPECT_EQ(board.stats().messages, 4u);
  EXPECT_EQ(board.stats().duplicate_executions, 0u);
  EXPECT_EQ(board.stats().out_of_order_data, 0u);
}

TEST(TxnScoreboard, DuplicateRequestFlagged) {
  TxnScoreboard board;
  board.on_deliver_payload(packed({{flit::MessageKind::kRequest, 1, 0}}));
  board.on_deliver_payload(packed({{flit::MessageKind::kRequest, 1, 0}}));
  EXPECT_EQ(board.stats().requests_executed, 2u);
  EXPECT_EQ(board.stats().duplicate_executions, 1u);
}

TEST(TxnScoreboard, OutOfOrderSameCqidDataFlagged) {
  TxnScoreboard board;
  board.on_deliver_payload(packed({{flit::MessageKind::kData, 3, 1}}));  // tag 1 before 0
  EXPECT_EQ(board.stats().out_of_order_data, 1u);
}

TEST(TxnScoreboard, DifferentCqidsAreIndependentOrderingDomains) {
  // CXL permits out-of-order across CQIDs (paper §4.2).
  TxnScoreboard board;
  board.on_deliver_payload(packed({{flit::MessageKind::kData, 1, 0}}));
  board.on_deliver_payload(packed({{flit::MessageKind::kData, 2, 0}}));
  board.on_deliver_payload(packed({{flit::MessageKind::kData, 1, 1}}));
  EXPECT_EQ(board.stats().out_of_order_data, 0u);
}

}  // namespace
}  // namespace rxl::txn
