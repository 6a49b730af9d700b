// Simulation-kernel microbenchmarks (google-benchmark): ns/event for the
// discrete-event core that every fabric Monte Carlo trial spins millions of
// times — schedule+dispatch at steady heap depth, endpoint-style timer
// rearm, a fabric-shaped mix of lane posts and timers, a full
// LinkChannel send->deliver hop (a flit held as bytes, a data flit held by
// reference and a control flit held as its prefix, as endpoints send
// them), and a retry buffer's steady window.
//
// Unless a row says otherwise, each benchmark iteration executes exactly
// ONE event, so the reported ns/iter reads directly as ns/event.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rxl/common/rng.hpp"
#include "rxl/link/credit.hpp"
#include "rxl/link/retry_buffer.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/obs/trace.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/sim/timer.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/flit_codec.hpp"

using namespace rxl;

namespace {

// Steady-state schedule+dispatch: the heap holds `depth` pending events;
// every iteration pushes one more and pops/runs the earliest.
void BM_EventQueue_ScheduleDispatch(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  Xoshiro256 rng(42);
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < depth; ++i)
    queue.schedule(rng.bounded(10'000) + 1, [&sink] { ++sink; });
  for (auto _ : state) {
    queue.schedule(rng.bounded(10'000) + 1, [&sink] { ++sink; });
    queue.run(1);
  }
  queue.run();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueue_ScheduleDispatch)->Arg(16)->Arg(1024);

// A heap of timers: N - 8 far-future Timer carriers that stay pending for
// the whole run, plus 8 near-term timers that re-arm on every fire, as
// retry timers do. Each iteration runs one near-term fire whose re-arm goes
// back into a heap of N entries. (Channel flits and endpoint kicks wait in
// delay lanes instead; BM_EventQueue_FabricMix covers them.)
void BM_EventQueue_NearChurn(benchmark::State& state) {
  constexpr std::size_t kNear = 8;
  const auto entries = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  Xoshiro256 rng(7);
  std::vector<std::unique_ptr<sim::Timer>> far;
  for (std::size_t i = kNear; i < entries; ++i) {
    far.push_back(std::make_unique<sim::Timer>(queue, [] {}));
    far.back()->arm((TimePs{1} << 50) + rng.bounded(1'000'000'000));
  }
  struct Producer {
    Producer(sim::EventQueue& q, Xoshiro256& r)
        : rng(r), timer(q, [this] { rearm(); }) {}
    void rearm() { timer.arm(1'000 + rng.bounded(4'000)); }
    Xoshiro256& rng;
    sim::Timer timer;
  };
  std::vector<std::unique_ptr<Producer>> near;
  for (std::size_t i = 0; i < kNear; ++i) {
    near.push_back(std::make_unique<Producer>(queue, rng));
    near.back()->rearm();
  }
  for (auto _ : state) queue.run(1);
  state.counters["pending"] = static_cast<double>(queue.pending());
}
BENCHMARK(BM_EventQueue_NearChurn)->Arg(32)->Arg(96);

// A queue shaped like a fabric's: N LinkChannels (slot 2 000, latency
// 8 000), each fed by a sender shaped like Endpoint::kick, which sends one
// flit and re-posts itself one slot later through the same lane API, plus
// 2N far-future Timer carriers that stay pending. The senders start spread
// over one slot. Each iteration runs one dispatch: a kick or a delivery.
void BM_EventQueue_FabricMix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  Xoshiro256 rng(7);
  std::vector<std::unique_ptr<sim::Timer>> far;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    far.push_back(std::make_unique<sim::Timer>(queue, [] {}));
    far.back()->arm((TimePs{1} << 50) + rng.bounded(1'000'000'000));
  }
  struct Sender {
    explicit Sender(sim::EventQueue& q)
        : queue(q),
          channel(q, std::make_unique<phy::NoErrors>(), 1, /*slot=*/2'000,
                  /*latency=*/8'000),
          kick(q.add_producer([this] { send(); })) {
      channel.set_receiver([](sim::FlitEnvelope&&) {});
      proto.seal = sim::SealState::kUnsealed;
    }
    void send() {
      channel.send(proto);
      queue.post(kick, channel.next_free(), channel.slot());
    }
    sim::EventQueue& queue;
    sim::LinkChannel channel;
    sim::EventQueue::Producer kick;
    sim::FlitEnvelope proto;
  };
  std::vector<std::unique_ptr<Sender>> senders;
  for (std::size_t i = 0; i < n; ++i) {
    senders.push_back(std::make_unique<Sender>(queue));
    Sender* sender = senders.back().get();
    queue.schedule(2'000 * i / n, [sender] { sender->send(); });
  }
  for (auto _ : state) queue.run(1);
  state.counters["pending"] = static_cast<double>(queue.pending());
}
BENCHMARK(BM_EventQueue_FabricMix)->Arg(8)->Arg(32);

// Endpoint-style retry/ack timer: a one-shot deadline armed anew after each
// firing (the pattern behind Endpoint::arm_retry_timer). The baseline
// capture measured the old schedule-a-closure form of the same pattern.
void BM_EventQueue_TimerRearm(benchmark::State& state) {
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  sim::Timer timer(queue, [&fired] { ++fired; });
  for (auto _ : state) {
    timer.arm(1'000);
    queue.run(1);
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueue_TimerRearm);

// Rearm-while-armed: the deadline moves out before the timer's carrier
// entry is due, so the carrier pops at the first deadline and re-pushes
// itself under the second one's key. Each iteration executes two events
// (the carrier's pop and the live fire).
void BM_EventQueue_TimerCancelRearm(benchmark::State& state) {
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  sim::Timer timer(queue, [&fired] { ++fired; });
  for (auto _ : state) {
    timer.arm(1'000);
    timer.arm(2'000);  // supersede: the 1'000 entry goes stale
    queue.run();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueue_TimerCancelRearm);

// Cancel-and-re-arm churn, the credit-probe pattern: each iteration cancels
// the timer, re-arms it `lapse` + 1 ticks of 100 ps out, and advances time
// by one tick, so the deadline keeps lapsing and never fires. A heap entry
// per arm would keep ~`lapse` lapsed deadlines pending and pop one per
// iteration; the timer's single carrier pops about once per `lapse`
// iterations.
void BM_TimerCancelRearm(benchmark::State& state) {
  const auto lapse = static_cast<TimePs>(state.range(0));
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  sim::Timer timer(queue, [&fired] { ++fired; });
  for (auto _ : state) {
    timer.cancel();
    timer.arm((lapse + 1) * 100);
    queue.run_until(queue.now() + 100);
  }
  benchmark::DoNotOptimize(fired);
  state.counters["pending"] = static_cast<double>(queue.pending());
}
BENCHMARK(BM_TimerCancelRearm)->Arg(1)->Arg(64)->Arg(4096);

// One LinkChannel hop with K flits in flight: each iteration sends one flit
// and delivers the oldest. Every flit's key waits in the lane of the
// channel's delay, so a hop is a ring append and a ring pop, and the cost
// per hop should not grow with K. K = 1 is BM_LinkChannel_SendDeliver.
void BM_ChannelBurst(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  sim::LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1,
                           /*slot=*/2'000, /*latency=*/8'000);
  std::uint64_t delivered = 0;
  channel.set_receiver(
      [&delivered](sim::FlitEnvelope&&) { ++delivered; });
  sim::FlitEnvelope proto;
  proto.flit.payload()[0] = 0xAB;
  for (int i = 0; i + 1 < depth; ++i) channel.send(proto);
  for (auto _ : state) {
    channel.send(proto);
    queue.run(1);
  }
  benchmark::DoNotOptimize(delivered);
  state.counters["pending"] = static_cast<double>(queue.pending());
}
BENCHMARK(BM_ChannelBurst)->Arg(8)->Arg(64);

// One LinkChannel hop: serialisation bookkeeping + error-model pass +
// delivery event. Two events of real simulations' profile. The flit holds
// its payload as bytes, as a hub's regenerated flit or one an error
// touched does, so the whole 256 B image is copied into the in-flight slot.
void BM_LinkChannel_SendDeliver(benchmark::State& state) {
  sim::EventQueue queue;
  sim::LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1,
                           /*slot=*/2'000, /*latency=*/8'000);
  std::uint64_t delivered = 0;
  channel.set_receiver(
      [&delivered](sim::FlitEnvelope&&) { ++delivered; });
  sim::FlitEnvelope proto;
  proto.flit.payload()[0] = 0xAB;
  proto.seal = sim::SealState::kCodeword;
  for (auto _ : state) {
    channel.send(proto);  // held as bytes: copies the 256 B image
    queue.run(1);
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_LinkChannel_SendDeliver);

// The same hop for a data flit as endpoints send it: unsealed, its payload
// held by reference, so only the 2 B header is copied.
void BM_LinkChannel_SendDeliver_ByReference(benchmark::State& state) {
  sim::EventQueue queue;
  sim::LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1,
                           /*slot=*/2'000, /*latency=*/8'000);
  std::uint64_t delivered = 0;
  channel.set_receiver(
      [&delivered](sim::FlitEnvelope&&) { ++delivered; });
  sim::PayloadFn payload = [](std::uint64_t index,
                              std::span<std::uint8_t, kPayloadBytes> out) {
    out[0] = static_cast<std::uint8_t>(index);
  };
  flit::Flit image;
  image.bytes()[0] = 0x12;
  sim::FlitTags tags;
  tags.has_truth = true;
  tags.seal = sim::SealState::kUnsealed;
  tags.payload_of = &payload;
  for (auto _ : state) {
    channel.send(image, tags);
    queue.run(1);
    ++tags.truth_index;
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_LinkChannel_SendDeliver_ByReference);

// The same hop for a control flit as endpoints send it: unsealed and held
// as its 24 B prefix (an ACK with eight credit words and the ECN byte), so
// only the prefix is copied.
void BM_LinkChannel_SendDeliver_Control(benchmark::State& state) {
  sim::EventQueue queue;
  sim::LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1,
                           /*slot=*/2'000, /*latency=*/8'000);
  std::uint64_t delivered = 0;
  channel.set_receiver(
      [&delivered](sim::FlitEnvelope&&) { ++delivered; });
  const std::array<std::uint16_t, link::kMaxVcs> words{1, 2, 3, 4,
                                                       5, 6, 7, 8};
  flit::ControlPrefix prefix;
  transport::FlitCodec::write_control(prefix, flit::ReplayCmd::kAck, 9,
                                      {words, 0x3});
  sim::FlitTags tags;
  tags.seal = sim::SealState::kUnsealed;
  tags.control_prefix = true;
  for (auto _ : state) {
    channel.send(prefix, tags);
    queue.run(1);
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_LinkChannel_SendDeliver_Control);

// A retry buffer sliding at a window of 30 flits: each iteration reserves
// and commits the newest entry and ACKs the oldest, as an endpoint does
// per data flit sent and acknowledged. Every third iteration the window
// leaves a block and needs a new one; the thread's pool of released blocks
// supplies it.
void BM_RetryBuffer_SteadyWindow(benchmark::State& state) {
  constexpr std::uint16_t kWindow = 30;
  link::RetryBuffer buffer(64);
  std::uint16_t next = 0;
  for (; next < kWindow; ++next) {
    (void)buffer.reserve();
    buffer.commit(next);
  }
  for (auto _ : state) {
    flit::Flit& slot = buffer.reserve();
    slot.bytes()[0] = static_cast<std::uint8_t>(next);
    buffer.commit(next, {.truth_index = next});
    next = link::seq_next(next);
    benchmark::DoNotOptimize(buffer.ack_up_to(*buffer.oldest_seq()));
  }
  state.counters["window"] = static_cast<double>(buffer.size());
}
BENCHMARK(BM_RetryBuffer_SteadyWindow);

// One TraceRing write: the marginal cost of every emission site when
// tracing is on (a bounded ring store, no allocation). The trace-off cost
// is a single null-pointer branch and is measured end-to-end below.
void BM_TraceRing_Record(benchmark::State& state) {
  obs::TraceRing ring(4096);
  obs::TraceEvent event;
  event.kind = obs::TraceEventKind::kTx;
  TimePs at = 0;
  for (auto _ : state) {
    event.at = at++;
    ring.record(event);
  }
  benchmark::DoNotOptimize(ring.overruns());
}
BENCHMARK(BM_TraceRing_Record);

// Whole-fabric overhead of the trace knob: one chain-DAG Monte Carlo trial
// (two relays, burst errors, credits on) with tracing compiled in but off
// vs on. The off/compiled-out delta is the cost of the null-pointer
// branches at every emission site; the on/off delta is ring writes plus
// capture. EXPERIMENTS.md records both ratios.
transport::DagConfig traced_chain_config(bool traced) {
  transport::DagScenarioSpec spec;
  spec.protocol.protocol = transport::Protocol::kRxl;
  spec.protocol.coalesce_factor = 10;
  spec.burst_injection_rate = 1e-3;
  spec.seed = 311;
  spec.hop_credits = 8;
  spec.sample_latency = true;
  spec.flits_per_flow = 48;
  spec.horizon = 50'000'000;
  transport::DagConfig config = transport::make_chain_dag(spec, 2);
  config.trace.enabled = traced;
  return config;
}

void BM_DagChain_TraceOff(benchmark::State& state) {
  const transport::DagConfig config = traced_chain_config(false);
  std::uint64_t delivered = 0;
  for (auto _ : state)
    delivered += transport::run_dag_fabric(config).total_in_order();
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_DagChain_TraceOff)->Unit(benchmark::kMicrosecond);

void BM_DagChain_TraceOn(benchmark::State& state) {
  const transport::DagConfig config = traced_chain_config(true);
  std::uint64_t events = 0;
  for (auto _ : state)
    events += transport::run_dag_fabric(config).trace.total_events();
  benchmark::DoNotOptimize(events);
}
BENCHMARK(BM_DagChain_TraceOn)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
