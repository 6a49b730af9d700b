#include "rxl/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "rxl/common/ring_queue.hpp"
#include "rxl/common/rng.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/sim/timer.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "event_queue_probe.hpp"

namespace rxl::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30, [&] { order.push_back(3); });
  queue.schedule(10, [&] { order.push_back(1); });
  queue.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueue, FifoTieBreak) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(100, [&order, i] { order.push_back(i); });
  }
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FifoTieBreakSurvivesInterleavedTimestamps) {
  // Heavier determinism pin for the 4-ary heap: many events land on a few
  // shared timestamps, pushed in shuffled timestamp order. Within each
  // timestamp the execution order must equal the scheduling order, whatever
  // shape the heap took on the way.
  EventQueue queue;
  Xoshiro256 rng(99);
  std::vector<std::pair<TimePs, int>> executed;
  std::vector<std::pair<TimePs, int>> expected;
  std::vector<int> fifo_rank(7, 0);
  for (int i = 0; i < 500; ++i) {
    const TimePs when = 100 * (1 + rng.bounded(6));
    const int rank = fifo_rank[when / 100]++;
    expected.emplace_back(when, rank);
    queue.schedule_at(when, [&executed, when, rank] {
      executed.emplace_back(when, rank);
    });
  }
  std::stable_sort(expected.begin(), expected.end());
  EXPECT_EQ(queue.run(), 500u);
  EXPECT_EQ(executed, expected);
}

TEST(EventQueue, NestedScheduling) {
  EventQueue queue;
  std::vector<TimePs> times;
  queue.schedule(5, [&] {
    times.push_back(queue.now());
    queue.schedule(5, [&] { times.push_back(queue.now()); });
  });
  queue.run();
  EXPECT_EQ(times, (std::vector<TimePs>{5, 10}));
}

TEST(EventQueue, RunUntilStopsAndAdvancesTime) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(10, [&] { ++fired; });
  queue.schedule(50, [&] { ++fired; });
  EXPECT_EQ(queue.run_until(20), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 20u);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_until(100);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(queue.now(), 100u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenDrainingEarly) {
  // The horizon is authoritative even when the event queue empties first:
  // time lands exactly on `until`, and later schedules are relative to it.
  EventQueue queue;
  int fired = 0;
  queue.schedule(10, [&] { ++fired; });
  EXPECT_EQ(queue.run_until(1'000'000), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.now(), 1'000'000u);
  TimePs seen = 0;
  queue.schedule(5, [&] { seen = queue.now(); });
  queue.run();
  EXPECT_EQ(seen, 1'000'005u);
}

#ifdef NDEBUG
TEST(EventQueue, RunUntilIntoThePastNeverRewindsTime) {
  EventQueue queue;
  queue.schedule(100, [] {});
  queue.run();
  ASSERT_EQ(queue.now(), 100u);
  EXPECT_EQ(queue.run_until(40), 0u);  // stale horizon: no-op
  EXPECT_EQ(queue.now(), 100u);        // time did not rewind
}
#endif

TEST(EventQueue, RunLimitBounds) {
  EventQueue queue;
  int fired = 0;
  for (int i = 0; i < 10; ++i) queue.schedule(i, [&] { ++fired; });
  EXPECT_EQ(queue.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(queue.pending(), 6u);
}

TEST(EventQueue, ScheduleAtAbsolute) {
  EventQueue queue;
  TimePs seen = 0;
  queue.schedule_at(42, [&] { seen = queue.now(); });
  queue.run();
  EXPECT_EQ(seen, 42u);
}

#ifdef NDEBUG
TEST(EventQueue, ScheduleAtInThePastClampsToNow) {
  // Regression: a past timestamp used to sit below now() in the heap and
  // silently reorder (time travelled backwards when it popped). Release
  // builds now clamp it to now(), AFTER everything already pending there.
  EventQueue queue;
  queue.schedule(10, [] {});
  queue.run();
  ASSERT_EQ(queue.now(), 10u);
  std::vector<int> order;
  TimePs clamped_at = 0;
  queue.schedule_at(10, [&] { order.push_back(1); });  // legitimately at now
  queue.schedule_at(3, [&] {                           // the past: clamp
    order.push_back(2);
    clamped_at = queue.now();
  });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // FIFO at now(), not first
  EXPECT_EQ(clamped_at, 10u);                  // never before the present
  EXPECT_EQ(queue.now(), 10u);
}
#else
TEST(EventQueueDeathTest, ScheduleAtInThePastAsserts) {
  EventQueue queue;
  queue.schedule(10, [] {});
  queue.run();
  ASSERT_EQ(queue.now(), 10u);
  EXPECT_DEATH(queue.schedule_at(3, [] {}), "scheduled in the past");
}
#endif

TEST(EventQueue, SelfPerpetuatingChainWithRunUntil) {
  EventQueue queue;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    queue.schedule(10, [&] { tick(); });  // by-reference: stays inline
  };
  queue.schedule(0, [&] { tick(); });
  queue.run_until(95);
  EXPECT_EQ(ticks, 10);  // t = 0,10,...,90
}

TEST(Timer, FiresOnceAtDeadline) {
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  EXPECT_FALSE(timer.armed());
  timer.arm(100);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 100u);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{100}));
  EXPECT_FALSE(timer.armed());  // one-shot: no rearm without arm()
  EXPECT_TRUE(queue.empty());
}

TEST(Timer, CancelSuppressesTheDeadline) {
  EventQueue queue;
  int fired = 0;
  Timer timer(queue, [&] { ++fired; });
  timer.arm(100);
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  queue.run();  // the stale heap entry pops and must no-op
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(queue.now(), 100u);  // lazy deletion: the pop still advances time
}

TEST(Timer, RearmWhileArmedSupersedesTheOldDeadline) {
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  timer.arm(100);
  timer.arm(250);  // push the deadline out; the t=100 entry is now stale
  EXPECT_EQ(timer.deadline(), 250u);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{250}));

  timer.arm(100);
  timer.arm(30);  // pull the deadline in
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{250, 280}));
}

TEST(Timer, CallbackMayRearmItself) {
  EventQueue queue;
  int fired = 0;
  // Endpoint-style periodic rearm: armed() is already false inside the
  // callback, so arming again is the idiomatic self-perpetuating deadline.
  struct Periodic {
    EventQueue& queue;
    Timer timer;
    int* fired;
    Periodic(EventQueue& q, int* f)
        : queue(q), timer(q, [this] { fire(); }), fired(f) {}
    void fire() {
      ++*fired;
      if (*fired < 5) timer.arm(10);
    }
  } periodic(queue, &fired);
  periodic.timer.arm(10);
  queue.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(queue.now(), 50u);
}

TEST(Timer, CancelThenRearmFiresAtTheNewDeadlineOnly) {
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  timer.arm_at(40);
  timer.cancel();
  timer.arm_at(70);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{70}));
}

TEST(Timer, CancelThenRearmAtThePendingDeadlineFiresExactlyOnce) {
  // The sharpest generation-check case: the stale entry and the fresh one
  // pop at the SAME timestamp, in FIFO order. The stale pop must no-op on
  // its generation mismatch and the fresh pop must fire — exactly one
  // callback, not zero (over-cancel) and not two (under-cancel).
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  timer.arm_at(100);
  timer.cancel();
  timer.arm_at(100);  // same deadline, new generation
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 100u);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{100}));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, CallbackMayRearmAtTheFiringInstant) {
  // Re-arming from inside the fire callback AT the firing timestamp must
  // schedule a genuinely new firing in the same instant (FIFO after any
  // event already queued at now()), not be swallowed as the stale entry of
  // the firing that is currently running.
  EventQueue queue;
  int fired = 0;
  struct SameInstant {
    EventQueue& queue;
    Timer timer;
    int* fired;
    SameInstant(EventQueue& q, int* f)
        : queue(q), timer(q, [this] { fire(); }), fired(f) {}
    void fire() {
      ++*fired;
      if (*fired < 3) timer.arm_at(queue.now());
    }
  } same_instant(queue, &fired);
  same_instant.timer.arm_at(60);
  bool bystander_ran = false;
  queue.schedule_at(60, [&] { bystander_ran = true; });
  queue.run();
  EXPECT_EQ(fired, 3);  // all three firings, all at t=60
  EXPECT_EQ(queue.now(), 60u);
  EXPECT_TRUE(bystander_ran);
  EXPECT_FALSE(same_instant.timer.armed());
}

TEST(Timer, CancelAndLaterRearmKeepsOneHeapEntry) {
  // Endpoint credit-probe pattern: the deadline is cancelled and re-armed
  // further out over and over before it ever fires. The timer's one
  // carrier entry carries every later deadline; lapsed ones leave nothing.
  EventQueue queue;
  int fired = 0;
  Timer timer(queue, [&] { ++fired; });
  for (TimePs i = 1; i <= 1'000; ++i) {
    timer.cancel();
    timer.arm_at(100 * i);
    EXPECT_LE(queue.pending(), 1u);
  }
  queue.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 100'000u);
}

TEST(Timer, EarlierRearmFiresEarlyAndTheReplacedCarrierIsANoOp) {
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  timer.arm_at(500);
  timer.arm_at(200);  // earlier than the carrier: a new carrier is pushed
  EXPECT_EQ(queue.pending(), 2u);
  std::vector<TimePs> bystanders;
  queue.schedule_at(500, [&] { bystanders.push_back(queue.now()); });
  EXPECT_EQ(queue.run_until(200), 1u);
  EXPECT_EQ(fires, (std::vector<TimePs>{200}));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(queue.run(), 2u);  // the replaced carrier pops and does nothing
  EXPECT_EQ(fires, (std::vector<TimePs>{200}));
  EXPECT_EQ(bystanders, (std::vector<TimePs>{500}));
  EXPECT_TRUE(queue.empty());
}

// ----- Dispatch-order oracle ----------------------------------------------
//
// The kernel keeps one heap entry per timer and posts in-order FIFOs and
// endpoint-style kicks to delay lanes, yet must dispatch exactly as one
// heap entry per occurrence did. The reference types below re-implement
// that older design: a timer that pushes a generation-checked entry per
// arm (lazy deletion), a channel that schedules one event per flit, and
// kickers that schedule each kick. A seeded script drives both worlds
// through identical operations, and the (time, id) fire logs must match.

/// One-shot timer with generation-based lazy deletion: every arm pushes an
/// entry, and cancelled or superseded entries pop as no-ops.
class LazyDeletionTimer {
 public:
  template <typename F>
  LazyDeletionTimer(EventQueue& queue, F&& callback)
      : queue_(queue), callback_(std::forward<F>(callback)) {}

  void arm(TimePs delay) { arm_at(queue_.now() + delay); }
  void arm_at(TimePs when) {
    ++generation_;
    armed_ = true;
    deadline_ = when;
    queue_.schedule_at(when, Fire{this, generation_});
  }
  void cancel() noexcept {
    ++generation_;
    armed_ = false;
  }
  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] TimePs deadline() const noexcept { return deadline_; }

 private:
  struct Fire {
    LazyDeletionTimer* timer;
    std::uint64_t generation;
    void operator()() const {
      if (!timer->armed_ || generation != timer->generation_) return;
      timer->armed_ = false;
      timer->callback_();
    }
  };

  EventQueue& queue_;
  InlineEvent callback_;
  TimePs deadline_ = 0;
  std::uint64_t generation_ = 0;
  bool armed_ = false;
};

/// Error-free channel that schedules one delivery event per flit.
class EventPerFlitChannel {
 public:
  EventPerFlitChannel(EventQueue& queue, std::unique_ptr<phy::ErrorModel>,
                      std::uint64_t, TimePs slot, TimePs latency)
      : queue_(queue), slot_(slot), latency_(latency) {}

  void set_receiver(LinkChannel::DeliverFn deliver) { deliver_ = deliver; }
  TimePs send(const FlitEnvelope& envelope) {
    const TimePs end = std::max(queue_.now(), next_free_) + slot_;
    next_free_ = end;
    in_flight_.push_back(envelope);
    queue_.schedule_at(end + latency_, [this] {
      FlitEnvelope front = in_flight_.pop_front();
      deliver_(std::move(front));
    });
    return end;
  }
  [[nodiscard]] TimePs next_free() const noexcept { return next_free_; }
  [[nodiscard]] TimePs slot() const noexcept { return slot_; }

 private:
  EventQueue& queue_;
  TimePs slot_;
  TimePs latency_;
  TimePs next_free_ = 0;
  LinkChannel::DeliverFn deliver_;
  RingQueue<FlitEnvelope> in_flight_;
};

using FireLog = std::vector<std::pair<TimePs, int>>;

/// Fire-log ids for a run call's return, apart from the flits' (>= 0),
/// timers' (-1 - timer) and kicks' (-10 - kicker). What a call ran is not
/// logged: stale timer entries pop in one world and not the other.
constexpr int kSteppedRun = -100;
constexpr int kNestedRun = -101;

/// What an oracle world holds besides its three timers and its bystanders.
/// The default is two channels and no kickers, drained by one run().
struct OracleShape {
  /// Latencies of the plain channels; every one serialises a flit per
  /// 100 ps.
  std::vector<TimePs> latencies{100, 200};
  /// Kickers, shaped like Endpoint::kick, as (slot, latency) of the channel
  /// each one sends on; the script may send on those channels too.
  std::vector<std::pair<TimePs, TimePs>> kickers;
  /// Bystanders may dispatch from inside themselves.
  bool nested_runs = false;
  /// Drained through run_until horizons, on the grid and between it.
  bool stepped = false;
};

/// A seeded script of timer, channel, kicker and bystander operations on a
/// 100 ps grid, so arms, deliveries, kicks and bystanders collide on
/// timestamps. Every callback logs (now, id) and may run further
/// operations, drawn from the world's own RNG: two worlds stay aligned
/// exactly as long as their kernels dispatch in the same order. The kernel
/// world (LinkChannel) posts its kickers as Endpoint::kick does; the
/// reference world schedules them.
template <typename TimerT, typename ChannelT>
class OracleWorld {
 public:
  explicit OracleWorld(std::uint64_t seed, OracleShape shape = {})
      : rng_(seed), shape_(std::move(shape)) {
    for (int i = 0; i < kTimers; ++i)
      timers_.push_back(
          std::make_unique<TimerT>(queue_, [this, i] { on_timer(i); }));
    for (const TimePs latency : shape_.latencies)
      add_channel(/*slot=*/100, latency);
    for (const auto& [slot, latency] : shape_.kickers) {
      const std::size_t k = kickers_.size();
      kickers_.emplace_back().channel = channels_.size();
      if constexpr (kLanes) {
        kickers_.back().producer =
            queue_.add_producer([this, k] { on_kick(k); });
      }
      add_channel(slot, latency);
    }
    for (int i = 0; i < 24; ++i) bystander(100 * rng_.bounded(20));
  }

  FireLog run() {
    if (!shape_.stepped) {
      queue_.run();
      return log_;
    }
    Xoshiro256 horizons(rng_.bounded(1'000'000));
    while (!queue_.empty()) {
      queue_.run_until(queue_.now() + 50 * horizons.bounded(8));
      log_.emplace_back(queue_.now(), kSteppedRun);
    }
    return log_;
  }

  const EventQueue& queue() const { return queue_; }

 private:
  static constexpr int kTimers = 3;
  static constexpr bool kLanes = std::is_same_v<ChannelT, LinkChannel>;

  struct Kicker {
    std::size_t channel = 0;
    int backlog = 0;  ///< flits still to send
    bool scheduled = false;
    EventQueue::Producer producer;
  };

  void add_channel(TimePs slot, TimePs latency) {
    const int c = static_cast<int>(channels_.size());
    channels_.push_back(std::make_unique<ChannelT>(
        queue_, std::make_unique<phy::NoErrors>(), 1, slot, latency));
    channels_.back()->set_receiver(
        [this, c](FlitEnvelope&& envelope) { on_delivery(c, envelope); });
  }

  TimePs step() { return 100 * rng_.bounded(4); }

  void bystander(TimePs at) {
    const int id = next_id_++;
    queue_.schedule_at(at, [this, id] {
      log_.emplace_back(queue_.now(), id);
      act(-1);
      if (shape_.nested_runs && nesting_ < 2 && rng_.bounded(6) == 0) {
        // No channel is delivering, so a nested run is safe. It is bounded
        // by time, not by count: stale timer entries pop in one world only.
        ++nesting_;
        queue_.run_until(queue_.now() + step());
        log_.emplace_back(queue_.now(), kNestedRun);
        --nesting_;
      }
    });
  }

  void on_timer(int i) {
    log_.emplace_back(queue_.now(), -1 - i);
    if (rng_.bounded(3) == 0 && budget_ > 0) {
      --budget_;
      timers_[static_cast<std::size_t>(i)]->arm(step());  // from the callback
    }
    act(-1);
  }

  void on_delivery(int channel, const FlitEnvelope& envelope) {
    log_.emplace_back(queue_.now(), static_cast<int>(envelope.truth_index));
    act(channel);
  }

  /// Endpoint::kick's shape: a free wire takes one flit and the kicker
  /// comes back once the wire frees, one slot later; a busy wire (the
  /// script sent on it) is waited out; with nothing to send it idles.
  void kick(std::size_t k) {
    Kicker& kicker = kickers_[k];
    ChannelT& channel = *channels_[kicker.channel];
    if (kicker.scheduled) return;
    if (channel.next_free() <= queue_.now()) {
      if (kicker.backlog == 0) return;
      --kicker.backlog;
      FlitEnvelope envelope;
      envelope.truth_index = static_cast<std::uint64_t>(next_id_++);
      channel.send(envelope);
    }
    kicker.scheduled = true;
    if constexpr (kLanes) {
      queue_.post(kicker.producer, channel.next_free(), channel.slot());
    } else {
      queue_.schedule_at(channel.next_free(), [this, k] { on_kick(k); });
    }
  }

  void on_kick(std::size_t k) {
    log_.emplace_back(queue_.now(), -10 - static_cast<int>(k));
    kickers_[k].scheduled = false;
    kick(k);
  }

  /// One random operation; `busy_channel` is delivering right now and must
  /// not be sent on.
  void act(int busy_channel) {
    if (budget_ == 0) return;
    --budget_;
    TimerT& timer = *timers_[rng_.bounded(kTimers)];
    const TimePs now = queue_.now();
    const TimePs base = timer.armed() ? timer.deadline() : now;
    switch (rng_.bounded(kickers_.empty() ? 9 : 11)) {
      case 0:  // later than the current deadline
        timer.arm_at(base + 100 + step());
        break;
      case 1: {  // earlier than the current deadline, never in the past
        const TimePs back = 100 + step();
        timer.arm_at(base >= now + back ? base - back : now);
        break;
      }
      case 2:  // the same instant as the current deadline
        timer.arm_at(base);
        break;
      case 3:
        timer.arm(step());
        break;
      case 4:
        timer.cancel();
        break;
      case 5:
        timer.cancel();
        timer.arm_at(base);
        break;
      case 6:
      case 7: {  // a busy wire parks the flit behind the ones on it
        const int channels = static_cast<int>(channels_.size());
        int channel = static_cast<int>(rng_.bounded(channels_.size()));
        if (channel == busy_channel) channel = (channel + 1) % channels;
        FlitEnvelope envelope;
        envelope.truth_index = static_cast<std::uint64_t>(next_id_++);
        channels_[static_cast<std::size_t>(channel)]->send(envelope);
        break;
      }
      case 9:
      case 10: {  // more work for a kicker, which starts unless it is busy
        const std::size_t k = rng_.bounded(kickers_.size());
        kickers_[k].backlog += 1 + static_cast<int>(rng_.bounded(4));
        if (static_cast<int>(kickers_[k].channel) != busy_channel) kick(k);
        break;
      }
      default:
        bystander(now + step());
        break;
    }
    if (rng_.bounded(2) == 0) act(busy_channel);
  }

  EventQueue queue_;
  Xoshiro256 rng_;
  OracleShape shape_;
  std::vector<std::unique_ptr<TimerT>> timers_;
  std::vector<std::unique_ptr<ChannelT>> channels_;
  std::vector<Kicker> kickers_;
  FireLog log_;
  int next_id_ = 0;
  int budget_ = 400;
  int nesting_ = 0;
};

TEST(DispatchOracle, MatchesOneHeapEntryPerOccurrence) {
  std::size_t timer_fires = 0;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const FireLog reference =
        OracleWorld<LazyDeletionTimer, EventPerFlitChannel>(seed).run();
    const FireLog kernel = OracleWorld<Timer, LinkChannel>(seed).run();
    ASSERT_EQ(kernel, reference);
    for (const auto& [at, id] : kernel) timer_fires += id < 0 ? 1 : 0;
  }
  EXPECT_GT(timer_fires, 1'000u);  // the scripts really exercise the timers
}

TEST(DispatchOracle, LanesAndTheirHeapFallbackMatchOneEntryPerOccurrence) {
  // Five plain channels and three kickers on channels of their own: nine
  // distinct delays (kicks at 100, 200 and 300 ps; flits at 200 to 900 ps
  // and at 600, 800 and 1000 ps), one more than the lane table holds, so
  // whichever delay comes last posts to the heap. Busy wires park flits
  // and kicks later than their lane's delay, sometimes below its tail.
  OracleShape shape;
  shape.latencies = {100, 200, 300, 400, 800};
  shape.kickers = {{100, 500}, {200, 600}, {300, 700}};
  shape.nested_runs = true;
  std::uint64_t kicks = 0;
  std::uint64_t nested = 0;
  std::uint64_t heap_posts = 0;
  std::uint64_t full_tables = 0;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    shape.stepped = seed % 2 == 0;
    const FireLog reference =
        OracleWorld<LazyDeletionTimer, EventPerFlitChannel>(seed, shape).run();
    OracleWorld<Timer, LinkChannel> world(seed, shape);
    const FireLog kernel = world.run();
    const auto parted =
        std::mismatch(kernel.begin(), kernel.end(), reference.begin(),
                      reference.end());
    ASSERT_TRUE(parted.first == kernel.end() &&
                parted.second == reference.end())
        << "logs part at entry " << (parted.first - kernel.begin());
    for (const auto& [at, id] : kernel) {
      kicks += id <= -10 && id > -13 ? 1 : 0;
      nested += id == kNestedRun ? 1 : 0;
    }
    heap_posts += EventQueueProbe::heap_posts(world.queue());
    full_tables +=
        EventQueueProbe::lanes(world.queue()) == EventQueue::kMaxLanes ? 1 : 0;
  }
  // The scripts really kick, nest, fill the lane table and fall back.
  EXPECT_GT(kicks, 10'000u);
  EXPECT_GT(nested, 1'000u);
  EXPECT_GT(full_tables, 128u);
  EXPECT_GT(heap_posts, 1'000u);
}

// ----- Reference model ----------------------------------------------------
//
// The kernel's contract, written as plainly as possible: pending events sit
// in a map sorted by (when, FIFO order), every schedule takes the next
// order, and a running event is no longer pending. Seeded scripts drive it
// and the EventQueue through identical operations, and the logs of what ran
// when, and of what pending() and empty() said inside each callback, must
// match entry for entry.

class ReferenceQueue {
 public:
  [[nodiscard]] TimePs now() const { return now_; }

  template <typename F>
  void schedule_at(TimePs when, F&& fn) {
    pending_.emplace(std::make_pair(std::max(when, now_), next_order_++),
                     std::function<void()>(std::forward<F>(fn)));
  }

  std::size_t run(std::size_t limit = SIZE_MAX) {
    std::size_t executed = 0;
    for (; !pending_.empty() && executed < limit; ++executed) dispatch();
    return executed;
  }

  std::size_t run_until(TimePs until) {
    std::size_t executed = 0;
    for (; !pending_.empty() && pending_.begin()->first.first <= until;
         ++executed)
      dispatch();
    now_ = std::max(now_, until);
    return executed;
  }

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] bool empty() const { return pending_.empty(); }

 private:
  void dispatch() {
    const auto first = pending_.begin();
    now_ = first->first.first;
    const std::function<void()> fn = std::move(first->second);
    pending_.erase(first);
    fn();
  }

  TimePs now_ = 0;
  std::uint64_t next_order_ = 0;
  std::map<std::pair<TimePs, std::uint64_t>, std::function<void()>> pending_;
};

/// One log line: (what, now, value, pending, empty). `what` is the event id
/// for a callback, or a negative tag for a run call and its result.
using ScriptEntry = std::tuple<int, TimePs, std::uint64_t, std::size_t, bool>;
using ScriptLog = std::vector<ScriptEntry>;

/// Names the first entry where two logs part, instead of printing both.
void expect_same_log(const ScriptLog& kernel, const ScriptLog& reference) {
  const std::size_t common = std::min(kernel.size(), reference.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (kernel[i] != reference[i]) {
      ADD_FAILURE() << "logs part at entry " << i << ": kernel "
                    << testing::PrintToString(kernel[i]) << ", reference "
                    << testing::PrintToString(reference[i]);
      return;
    }
  }
  EXPECT_EQ(kernel.size(), reference.size());
}

/// How a script's callbacks push. kRandom draws zero, one (the in-place
/// re-key) or several pushes, past-time clamps and nested dispatches;
/// the other modes fix the push count so the heap grows, holds or shrinks
/// one entry per dispatch.
enum class PushMode { kRandom, kGrow, kHold, kDrain };

template <typename Queue>
class ScriptWorld {
 public:
  ScriptWorld(std::uint64_t seed, std::size_t initial, int budget)
      : rng_(seed), budget_(budget) {
    for (std::size_t i = 0; i < initial; ++i) push(100 * rng_.bounded(8));
  }

  void set_mode(PushMode mode) { mode_ = mode; }
  Queue& queue() { return queue_; }
  const ScriptLog& log() const { return log_; }

  /// Drains the queue through a random mix of run(limit), run_until and
  /// run() calls, logging what each returned.
  const ScriptLog& drain() {
    while (!queue_.empty()) {
      switch (rng_.bounded(3)) {
        case 0:
          note(-1, queue_.run(1 + rng_.bounded(8)));
          break;
        case 1:
          note(-2, queue_.run_until(queue_.now() + step()));
          break;
        default:
          note(-3, queue_.run());
          break;
      }
    }
    return log_;
  }

  void push(TimePs at) {
    const int id = next_id_++;
    queue_.schedule_at(at, [this, id] { fire(id); });
  }

 private:
  /// Lands on the current instant a quarter of the time.
  TimePs step() { return 100 * rng_.bounded(4); }

  void note(int what, std::uint64_t value) {
    log_.emplace_back(what, queue_.now(), value, queue_.pending(),
                      queue_.empty());
  }

  void fire(int id) {
    note(id, 0);
    std::uint64_t pushes = 0;
    switch (mode_) {
      case PushMode::kRandom: {
        const std::uint64_t draw = rng_.bounded(8);
        pushes = draw < 2 ? 0 : draw < 6 ? 1 : draw - 4;  // 0, 1, 2 or 3
        break;
      }
      case PushMode::kGrow:
        pushes = 2;
        break;
      case PushMode::kHold:
        pushes = 1;
        break;
      case PushMode::kDrain:
        break;
    }
    for (std::uint64_t k = 0; k < pushes && budget_ > 0; ++k, --budget_) {
      const TimePs now = queue_.now();
#ifdef NDEBUG
      if (mode_ == PushMode::kRandom && rng_.bounded(16) == 0) {
        push(now >= 100 ? now - 100 : 0);  // the past: clamps to now()
        continue;
      }
#endif
      push(now + step());
      if (rng_.bounded(4) == 0) note(-4, k);  // pending() right after a push
    }
    if (mode_ == PushMode::kRandom && nesting_ < 2 && rng_.bounded(24) == 0) {
      ++nesting_;  // a dispatch started from inside this callback
      if (rng_.bounded(2) == 0)
        note(-5, queue_.run(1 + rng_.bounded(2)));
      else
        note(-6, queue_.run_until(queue_.now() + step()));
      --nesting_;
    }
  }

  Queue queue_;
  Xoshiro256 rng_;
  ScriptLog log_;
  PushMode mode_ = PushMode::kRandom;
  int budget_;
  int next_id_ = 0;
  int nesting_ = 0;
};

TEST(EventQueueModel, SeededScriptsMatchTheSortedReference) {
  std::uint64_t dispatched = 0;
  std::uint64_t rekeyed = 0;
  for (std::uint64_t seed = 1; seed <= 96; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::size_t initial = Xoshiro256(seed).bounded(400);
    ScriptWorld<ReferenceQueue> reference(seed, initial, 3'000);
    ScriptWorld<EventQueue> kernel(seed, initial, 3'000);
    expect_same_log(kernel.drain(), reference.drain());
    if (HasFailure()) return;
    dispatched += kernel.queue().dispatched();
    rekeyed += kernel.queue().rekeyed_in_place();
  }
  // The scripts take every path: plenty of dispatches re-key in place, and
  // plenty (no push at all, or only clamped pushes) do not.
  EXPECT_GT(rekeyed, dispatched / 4);
  EXPECT_GT(dispatched - rekeyed, dispatched / 4);
}

TEST(EventQueueModel, SizesAcrossFourAryLevelBoundaries) {
  // 1, 5, 21, 85 and 341 entries fill the first one to five levels of the
  // 4-ary heap exactly. Each size is reached by growth (re-key then sift
  // up), held for as many dispatches (re-key only), then drained (retire
  // only), at the boundary itself and on either side of it.
  for (const std::size_t size :
       {1, 2, 4, 5, 6, 20, 21, 22, 84, 85, 86, 340, 341, 342}) {
    SCOPED_TRACE(testing::Message() << "size " << size);
    const auto script = [size](auto& world) {
      world.push(0);
      world.set_mode(PushMode::kGrow);
      world.queue().run(size - 1);
      EXPECT_EQ(world.queue().pending(), size);
      world.set_mode(PushMode::kHold);
      world.queue().run(3 * size);
      EXPECT_EQ(world.queue().pending(), size);
      world.set_mode(PushMode::kDrain);
      world.queue().run();
      EXPECT_TRUE(world.queue().empty());
      return world.log();
    };
    ScriptWorld<ReferenceQueue> reference(size, 0, 1'000'000);
    ScriptWorld<EventQueue> kernel(size, 0, 1'000'000);
    expect_same_log(script(kernel), script(reference));
    EXPECT_EQ(kernel.queue().peak_pending(), size);
  }
}

TEST(EventQueueModel, SlotsAreReusedOverManyDispatches) {
  // A population of ~64 pending events runs 10^5 dispatches, so every slot
  // and key position is recycled thousands of times.
  ScriptWorld<ReferenceQueue> reference(7, 64, 100'000);
  ScriptWorld<EventQueue> kernel(7, 64, 100'000);
  kernel.set_mode(PushMode::kHold);
  reference.set_mode(PushMode::kHold);
  EXPECT_EQ(kernel.queue().run(100'000), 100'000u);
  EXPECT_EQ(reference.queue().run(100'000), 100'000u);
  expect_same_log(kernel.drain(), reference.drain());
  const auto callbacks = std::count_if(
      kernel.log().begin(), kernel.log().end(),
      [](const ScriptEntry& entry) { return std::get<0>(entry) >= 0; });
  EXPECT_EQ(kernel.queue().dispatched(),
            static_cast<std::uint64_t>(callbacks));
  EXPECT_EQ(kernel.queue().peak_pending(), 64u);
}

TEST(EventQueue, PendingInsideACallbackExcludesTheRunningEvent) {
  EventQueue queue;
  std::vector<std::size_t> seen;
  queue.schedule_at(10, [&] {
    seen.push_back(queue.pending());  // no push: the other two
    queue.schedule_at(15, [&] {
      seen.push_back(queue.pending());  // one push, re-keyed in place
      EXPECT_FALSE(queue.empty());
    });
    seen.push_back(queue.pending());
    queue.schedule_at(16, [&] { seen.push_back(queue.pending()); });
    seen.push_back(queue.pending());
  });
  queue.schedule_at(20, [&] { seen.push_back(queue.pending()); });
  queue.schedule_at(20, [&] {
    seen.push_back(queue.pending());
    EXPECT_TRUE(queue.empty());  // the spent top is not counted
  });
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_EQ(queue.run(), 5u);
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 3, 4, 3, 2, 1, 0}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DispatchFromInsideACallbackRetiresTheSpentTopFirst) {
  EventQueue queue;
  std::vector<std::pair<int, TimePs>> ran;
  queue.schedule_at(10, [&] {
    ran.emplace_back(1, queue.now());
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_EQ(queue.run(1), 1u);  // runs the t=20 event inside this one
    EXPECT_EQ(queue.pending(), 1u);
    queue.schedule_at(queue.now(), [&] { ran.emplace_back(4, queue.now()); });
    EXPECT_EQ(queue.run_until(queue.now()), 1u);
    EXPECT_EQ(queue.pending(), 1u);
  });
  queue.schedule_at(20, [&] { ran.emplace_back(2, queue.now()); });
  queue.schedule_at(30, [&] { ran.emplace_back(3, queue.now()); });
  EXPECT_EQ(queue.run(), 2u);
  EXPECT_EQ(ran, (std::vector<std::pair<int, TimePs>>{
                     {1, 10}, {2, 20}, {4, 20}, {3, 30}}));
  EXPECT_EQ(queue.dispatched(), 4u);
  EXPECT_TRUE(queue.empty());
}

// ----- Kernel counters ----------------------------------------------------

TEST(EventQueueCounters, ChannelBurstFillsOneLane) {
  // 64 flits parked in one ParkedFifo at once: the first at the channel's
  // slot + latency, the rest behind it on the busy wire. All 64 keys rise,
  // so they wait in the one lane of the channel's delay, and the heap takes
  // none of them, so nothing is re-keyed.
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1,
                      /*slot=*/2'000, /*latency=*/8'000);
  std::size_t delivered = 0;
  channel.set_receiver([&delivered](FlitEnvelope&&) { ++delivered; });
  FlitEnvelope envelope;
  for (int i = 0; i < 64; ++i) channel.send(envelope);
  EXPECT_EQ(queue.pending(), 64u);
  EXPECT_EQ(EventQueueProbe::lanes(queue), 1u);
  EXPECT_EQ(EventQueueProbe::lane_keys(queue, 10'000), 64u);
  EXPECT_EQ(EventQueueProbe::heap_entries(queue), 0u);
  EXPECT_EQ(queue.run(), 64u);
  EXPECT_EQ(delivered, 64u);
  EXPECT_EQ(queue.dispatched(), 64u);
  EXPECT_EQ(queue.rekeyed_in_place(), 0u);
  EXPECT_EQ(queue.peak_pending(), 64u);
  EXPECT_EQ(EventQueueProbe::heap_posts(queue), 0u);
}

TEST(EventQueueCounters, TimerRearmScript) {
  EventQueue queue;
  int fired = 0;
  Timer timer(queue, [&] {
    if (++fired < 5) timer.arm(100);  // periodic: re-armed from its callback
  });
  timer.arm_at(100);
  timer.arm_at(250);  // later: the carrier pops at 100 and re-keys to 250
  queue.run();
  // Fires at 250, 350, 450, 550 and 650. The 100 carrier and four of the
  // five fires re-arm in place; the last fire re-arms nothing.
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(queue.now(), 650u);
  EXPECT_EQ(queue.dispatched(), 6u);
  EXPECT_EQ(queue.rekeyed_in_place(), 5u);
  EXPECT_EQ(queue.peak_pending(), 1u);

  fired = 4;  // one more fire, then stop
  timer.arm_at(900);
  timer.arm_at(800);  // earlier: a second carrier, the first pops as a no-op
  EXPECT_EQ(queue.pending(), 2u);
  queue.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(queue.dispatched(), 8u);
  EXPECT_EQ(queue.rekeyed_in_place(), 5u);
  EXPECT_EQ(queue.peak_pending(), 2u);
}

// ----- Delay lanes --------------------------------------------------------

TEST(EventQueueLanes, RandomDelaySchedulesCreateNoLane) {
  // The shape of the e2e bench's unit.dispatch loop: a heap of random
  // delays, then one random-delay schedule and one dispatch per step.
  // Plain schedules never take a lane, whatever their delays.
  EventQueue queue;
  Xoshiro256 rng(42);
  std::uint64_t sink = 0;
  for (int i = 0; i < 96; ++i)
    queue.schedule(rng.bounded(10'000) + 1, [&sink] { ++sink; });
  for (int i = 0; i < 10'000; ++i) {
    queue.schedule(rng.bounded(10'000) + 1, [&sink] { ++sink; });
    EXPECT_EQ(queue.run(1), 1u);
  }
  EXPECT_EQ(sink, 10'000u);
  EXPECT_EQ(EventQueueProbe::lanes(queue), 0u);
  EXPECT_EQ(EventQueueProbe::heap_entries(queue), 96u);
  EXPECT_EQ(EventQueueProbe::heap_posts(queue), 0u);
}

/// Producers that each re-post themselves at their own delay, and log each
/// firing after scheduling a plain event 50 ps out. The kernel world posts
/// them; the reference world schedules them.
template <bool kPost>
struct RepostWorld {
  explicit RepostWorld(int producers) : left(producers, 3) {
    for (int i = 0; i < producers; ++i)
      ids.push_back(queue.add_producer([this, i] { fire(i); }));
    for (int i = 0; i < producers; ++i) repost(i);
  }

  static TimePs delay(int i) { return 100 * static_cast<TimePs>(i + 1); }

  void repost(int i) {
    const TimePs when = queue.now() + delay(i);
    if constexpr (kPost) {
      queue.post(ids[static_cast<std::size_t>(i)], when, delay(i));
    } else {
      queue.schedule_at(when, [this, i] { fire(i); });
    }
  }

  void fire(int i) {
    log.emplace_back(queue.now(), i);
    queue.schedule(50, [this] { log.emplace_back(queue.now(), -1); });
    if (--left[static_cast<std::size_t>(i)] > 0) repost(i);
  }

  EventQueue queue;
  std::vector<EventQueue::Producer> ids;
  std::vector<int> left;
  FireLog log;
};

TEST(EventQueueLanes, FullTableSendsTheNextDelayToTheHeap) {
  // kMaxLanes + 1 producers at distinct delays: the first kMaxLanes open
  // the lanes, and the last one's posts go to the heap. Its firings come
  // from the heap, and the plain event each one schedules first takes over
  // the spent top; the producer's own callback, in its never-freed slot,
  // must survive that and fire again.
  constexpr int kProducers = static_cast<int>(EventQueue::kMaxLanes) + 1;
  RepostWorld<true> kernel(kProducers);
  RepostWorld<false> reference(kProducers);
  EXPECT_EQ(EventQueueProbe::lanes(kernel.queue), EventQueue::kMaxLanes);
  EXPECT_EQ(EventQueueProbe::heap_entries(kernel.queue), 1u);
  EXPECT_EQ(kernel.queue.pending(), static_cast<std::size_t>(kProducers));
  kernel.queue.run();
  reference.queue.run();
  EXPECT_EQ(kernel.log, reference.log);
  const auto last_fires = std::count_if(
      kernel.log.begin(), kernel.log.end(),
      [](const auto& entry) { return entry.second == kProducers - 1; });
  EXPECT_EQ(last_fires, 3);
  EXPECT_EQ(EventQueueProbe::heap_posts(kernel.queue), 3u);
  EXPECT_GE(kernel.queue.rekeyed_in_place(), 3u);
}

TEST(EventQueueLanes, KeyBelowItsLaneTailGoesToTheHeap) {
  // A busy wire posts a kick 3000 ps out on the 1000 ps lane; a kick 1000
  // ps out, posted after it, falls below that tail and takes the heap, and
  // each still fires at its own time.
  EventQueue queue;
  std::vector<std::pair<int, TimePs>> ran;
  const auto busy =
      queue.add_producer([&] { ran.emplace_back(0, queue.now()); });
  const auto idle =
      queue.add_producer([&] { ran.emplace_back(1, queue.now()); });
  queue.post(busy, 3'000, 1'000);
  queue.post(idle, 1'000, 1'000);
  EXPECT_EQ(EventQueueProbe::lane_keys(queue, 1'000), 1u);
  EXPECT_EQ(EventQueueProbe::heap_entries(queue), 1u);
  EXPECT_EQ(EventQueueProbe::heap_posts(queue), 1u);
  EXPECT_EQ(queue.run(), 2u);
  EXPECT_EQ(ran, (std::vector<std::pair<int, TimePs>>{{1, 1'000}, {0, 3'000}}));
}

TEST(EventQueueLanes, SameInstantTiesRunInPostOrder) {
  // Lane keys and heap entries due at one instant run in the order they
  // were posted and scheduled, from either side.
  EventQueue queue;
  std::vector<int> order;
  const auto kick = queue.add_producer([&] { order.push_back(0); });
  queue.schedule_at(100, [&] { order.push_back(1); });
  queue.post(kick, 100, 100);
  queue.schedule_at(100, [&] { order.push_back(2); });
  queue.post(kick, 100, 100);
  queue.post(kick, 100, 100);
  queue.schedule_at(100, [&] { order.push_back(3); });
  EXPECT_EQ(EventQueueProbe::lane_keys(queue, 100), 3u);
  EXPECT_EQ(queue.run(), 6u);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 0, 0, 3}));
}

TEST(EventQueueLanes, RunUntilStopsBetweenLaneHeads) {
  // A kicker re-posting itself every 100 ps, and a heap entry at 250:
  // horizons between the lane's heads run exactly what is due by them and
  // leave time at the horizon.
  EventQueue queue;
  std::vector<TimePs> kicks;
  EventQueue::Producer kick;
  kick = queue.add_producer([&] {
    kicks.push_back(queue.now());
    if (kicks.size() < 5) queue.post(kick, queue.now() + 100, 100);
  });
  bool heap_ran = false;
  queue.post(kick, 100, 100);
  queue.schedule_at(250, [&] { heap_ran = true; });
  EXPECT_EQ(queue.run_until(150), 1u);
  EXPECT_EQ(queue.now(), 150u);
  EXPECT_EQ(queue.run_until(249), 1u);  // the kick at 200
  EXPECT_FALSE(heap_ran);
  EXPECT_EQ(queue.run_until(250), 1u);
  EXPECT_TRUE(heap_ran);
  EXPECT_EQ(queue.pending(), 1u);  // the kick at 300
  EXPECT_EQ(queue.run_until(10'000), 3u);
  EXPECT_EQ(queue.now(), 10'000u);
  EXPECT_EQ(kicks, (std::vector<TimePs>{100, 200, 300, 400, 500}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueLanes, NestedRunFromAHeapEventDispatchesLaneKeys) {
  // A heap event at 150 runs the queue from inside itself: its own spent
  // entry is retired, and the nested run takes the lane's keys in order.
  EventQueue queue;
  std::vector<std::pair<int, TimePs>> ran;
  const auto kick =
      queue.add_producer([&] { ran.emplace_back(0, queue.now()); });
  queue.post(kick, 100, 100);
  queue.post(kick, 200, 100);
  queue.post(kick, 300, 100);
  queue.schedule_at(150, [&] {
    ran.emplace_back(1, queue.now());
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_EQ(queue.run(1), 1u);
    EXPECT_EQ(queue.run_until(250), 0u);
    EXPECT_EQ(queue.pending(), 1u);
  });
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_EQ(ran, (std::vector<std::pair<int, TimePs>>{
                     {0, 100}, {1, 150}, {0, 200}, {0, 300}}));
  EXPECT_EQ(queue.dispatched(), 4u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueDeathTest, LanePostsTakeOrdersFromTheSameField) {
  EventQueue queue;
  const std::uint64_t last = (std::uint64_t{1} << EventQueue::kOrderBits) - 2;
  int fired = 0;
  const auto kick = queue.add_producer([&] { ++fired; });
  EventQueueProbe::set_next_order(queue, last);
  queue.post(kick, 100, 100);  // the last order that fits
  EXPECT_EQ(queue.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DEATH(queue.post(kick, 200, 100), "order field of the heap key");
}

TEST(EventQueueDeathTest, OrderFieldOverflowAbortsInEveryBuild) {
  EventQueue queue;
  const std::uint64_t last = (std::uint64_t{1} << EventQueue::kOrderBits) - 2;
  EventQueueProbe::set_next_order(queue, last);
  int fired = 0;
  queue.schedule(0, [&] { ++fired; });  // the last order that fits
  EXPECT_EQ(queue.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DEATH(queue.schedule(0, [] {}), "order field of the heap key");
}

// A miniature stochastic simulation whose result folds in event timestamps
// and execution order; any nondeterminism in scheduling or in the trial
// sharding shows up as a checksum mismatch.
std::uint64_t simulation_checksum(std::size_t trial) {
  EventQueue queue;
  Xoshiro256 rng(trial * 0x9E3779B97F4A7C15ull + 1);
  std::uint64_t checksum = trial;
  std::uint64_t sequence = 0;
  for (int i = 0; i < 200; ++i) {
    queue.schedule(rng.bounded(5'000), [&queue, &checksum, &sequence] {
      checksum = checksum * 1099511628211ull ^ (queue.now() + ++sequence);
    });
  }
  queue.run();
  return checksum;
}

TEST(TrialRunner, ResultsAreWorkerCountInvariant) {
  const auto serial = run_trials(16, simulation_checksum, /*workers=*/1);
  const auto sharded = run_trials(16, simulation_checksum, /*workers=*/4);
  ASSERT_EQ(serial.size(), 16u);
  EXPECT_EQ(serial, sharded);
  // More workers than trials must also merge identically.
  EXPECT_EQ(serial, run_trials(16, simulation_checksum, /*workers=*/32));
}

TEST(TrialRunner, PropagatesTrialExceptions) {
  auto trial = [](std::size_t i) -> int {
    if (i == 3) throw std::runtime_error("trial 3 failed");
    return static_cast<int>(i);
  };
  EXPECT_THROW(run_trials(8, trial, 4), std::runtime_error);
  EXPECT_THROW(run_trials(8, trial, 1), std::runtime_error);
}

TEST(TrialRunner, WorkerCountResolution) {
  EXPECT_EQ(trial_workers(3), 3u);  // explicit request wins
  ASSERT_EQ(setenv("RXL_TRIAL_WORKERS", "5", 1), 0);
  EXPECT_EQ(trial_workers(), 5u);
  EXPECT_EQ(trial_workers(2), 2u);
  ASSERT_EQ(setenv("RXL_TRIAL_WORKERS", "garbage", 1), 0);
  EXPECT_GE(trial_workers(), 1u);  // invalid env: hardware fallback
  ASSERT_EQ(unsetenv("RXL_TRIAL_WORKERS"), 0);
  EXPECT_GE(trial_workers(), 1u);
}

}  // namespace
}  // namespace rxl::sim
