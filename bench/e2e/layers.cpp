#include "layers.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "rxl/common/rng.hpp"
#include "rxl/obs/export.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/sim/timer.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/transport/flit_codec.hpp"
#include "rxl/transport/traffic.hpp"

namespace e2e {

using rxl::transport::DagConfig;
using rxl::transport::DagReport;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t Spans::begin(std::string name, std::size_t parent) {
  spans_.push_back(Span{std::move(name), parent,
                        std::chrono::steady_clock::now(), {}});
  return spans_.size() - 1;
}

void Spans::end(std::size_t id) {
  spans_[id].end = std::chrono::steady_clock::now();
}

std::string Spans::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  if (!spans_.empty()) {
    const auto origin = spans_.front().start;
    auto micros = [](std::chrono::steady_clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    char buffer[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (i > 0) out += ',';
      out += "\n{\"name\":\"";
      out += span.name;
      std::snprintf(buffer, sizeof buffer,
                    "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":",
                    micros(span.start - origin), micros(span.end - span.start),
                    i);
      out += buffer;
      out += span.parent == kNoParent ? std::string("null")
                                      : std::to_string(span.parent);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

namespace {

/// Keeps `value` alive past the optimiser without changing it.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// CPU ns per call of `body` in the fastest of five ~20 ms batches (the
/// ops are timed at their fastest repetition too).
template <typename Body>
double ns_per_call(Body&& body) {
  std::size_t iters = 64;
  double elapsed = 0;
  for (;;) {
    const double start = thread_cpu_s();
    for (std::size_t i = 0; i < iters; ++i) body();
    elapsed = thread_cpu_s() - start;
    if (elapsed >= 2e-3) break;
    iters *= 4;
  }
  const auto batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(iters) * 0.02 / elapsed));
  std::array<double, 5> per_call{};
  for (double& sample : per_call) {
    const double start = thread_cpu_s();
    for (std::size_t i = 0; i < batch; ++i) body();
    sample = (thread_cpu_s() - start) * 1e9 / static_cast<double>(batch);
  }
  return *std::min_element(per_call.begin(), per_call.end());
}

std::size_t trace_ring_depth(const DagReport& report) {
  std::uint64_t need = 0;
  for (const auto& flow : report.flows) need = std::max(need, flow.offered);
  for (const auto& hop : report.hops) {
    for (int side = 0; side < 2; ++side) {
      const auto& link = side == 0 ? hop.a : hop.b;
      const auto& extra = side == 0 ? hop.a_extra : hop.b_extra;
      need = std::max(need, link.data_flits_sent +
                                link.data_flits_retransmitted +
                                link.control_flits_sent + link.flits_received +
                                2 * extra.credit_stalls);
    }
  }
  for (const auto& relay : report.relays) {
    std::uint64_t relayed = 0;
    for (const auto& port : relay.ports) relayed += port.stats.relayed_in;
    need = std::max(need, relayed);
  }
  return static_cast<std::size_t>(need + need / 4 + 1024);
}

std::optional<std::size_t> kind_slot(rxl::obs::TraceEventKind kind) {
  using K = rxl::obs::TraceEventKind;
  switch (kind) {
    case K::kTx: return 0;
    case K::kRetry: return 1;
    case K::kNack: return 2;
    case K::kAck: return 3;
    case K::kCreditStall: return 4;
    case K::kEnqueue: return 5;
    case K::kDeliver: return 6;
    case K::kDrop: return 7;
    case K::kInject:
    case K::kEcnMark:
    case K::kRerouteDrain:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

UnitCosts measure_unit_costs(const std::vector<OpSpec>& ops,
                             std::size_t heap_depth, Spans* spans,
                             std::size_t parent) {
  namespace rt = rxl::transport;
  UnitCosts costs;
  const rt::FlitCodec codec(ops.front().protocol);
  const std::vector<std::uint8_t> payload = rt::make_stream_payload(7, 1);
  std::uint16_t seq = 0;

  {
    ScopedSpan span(spans, "unit.plan_dag", parent);
    std::vector<DagConfig> configs;
    for (std::size_t i = 0; i < std::min<std::size_t>(ops.size(), 256); ++i)
      configs.push_back(build_config(ops[i]));
    costs.plan_us = ns_per_call([&] {
                      for (const DagConfig& config : configs)
                        keep(rt::plan_dag(config));
                    }) /
                    1e3 / static_cast<double>(configs.size());
  }
  {
    ScopedSpan span(spans, "unit.encode_data", parent);
    costs.encode_data_ns = ns_per_call([&] {
      keep(codec.encode_data(payload, seq, std::nullopt));
      seq = static_cast<std::uint16_t>((seq + 1) & rxl::kSeqMask);
    });
  }
  {
    ScopedSpan span(spans, "unit.encode_control", parent);
    costs.encode_control_ns = ns_per_call([&] {
      keep(codec.encode_control(rxl::flit::ReplayCmd::kAck, seq, 5));
      seq = static_cast<std::uint16_t>((seq + 1) & rxl::kSeqMask);
    });
  }
  const rxl::flit::Flit clean = codec.encode_data(payload, 5, std::nullopt);
  {
    ScopedSpan span(spans, "unit.check_clean", parent);
    costs.check_clean_ns =
        ns_per_call([&] { keep(codec.check_data(clean, 5)); });
  }
  {
    ScopedSpan span(spans, "unit.check_dirty", parent);
    // Images hit by the workloads' 4-symbol burst, decoded the way an
    // endpoint decodes a non-pristine arrival.
    rxl::phy::SymbolBurstInjector burst(4);
    rxl::Xoshiro256 rng(ops.front().seed);
    std::vector<rxl::flit::Flit> dirty(64, clean);
    for (rxl::flit::Flit& image : dirty) (void)burst.corrupt(image.bytes(), rng);
    std::size_t next = 0;
    rxl::flit::Flit arrival;
    costs.check_dirty_ns = ns_per_call([&] {
      arrival = dirty[next++ & 63];
      keep(codec.fec().decode(arrival.bytes()));
      keep(codec.check_data(arrival, 5));
    });
  }
  {
    ScopedSpan span(spans, "unit.corrupt", parent);
    // Weighted by how many ops use each error process.
    std::map<double, std::size_t> bursts;
    for (const OpSpec& op : ops) bursts[op.burst] += 1;
    double weighted = 0;
    for (const auto& [rate, count] : bursts) {
      const auto model = rt::make_error_model(0.0, rate, 4);
      rxl::Xoshiro256 rng(ops.front().seed);
      rxl::flit::Flit image = clean;
      weighted += static_cast<double>(count) * ns_per_call([&] {
        keep(model->corrupt(image.bytes(), rng));
      });
    }
    costs.corrupt_ns = weighted / static_cast<double>(ops.size());
  }
  {
    ScopedSpan span(spans, "unit.dispatch", parent);
    rxl::sim::EventQueue queue;
    rxl::Xoshiro256 rng(42);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < heap_depth; ++i)
      queue.schedule(rng.bounded(10'000) + 1, [&sink] { ++sink; });
    costs.dispatch_ns = ns_per_call([&] {
      queue.schedule(rng.bounded(10'000) + 1, [&sink] { ++sink; });
      keep(queue.run(1));
    });
    keep(sink);
  }
  {
    ScopedSpan span(spans, "unit.timer_rearm", parent);
    rxl::sim::EventQueue queue;
    std::uint64_t fired = 0;
    rxl::sim::Timer timer(queue, [&fired] { ++fired; });
    costs.timer_rearm_ns = ns_per_call([&] {
      timer.arm(1'000);
      keep(queue.run(1));
    });
    keep(fired);
  }
  {
    ScopedSpan span(spans, "unit.channel_hop", parent);
    rxl::sim::EventQueue queue;
    rxl::sim::LinkChannel channel(queue,
                                  std::make_unique<rxl::phy::NoErrors>(), 1,
                                  rxl::kFlitSlotPs, 8'000);
    std::uint64_t delivered = 0;
    channel.set_receiver(
        [&delivered](rxl::sim::FlitEnvelope&&) { ++delivered; });
    rxl::sim::FlitEnvelope envelope;
    envelope.flit = clean;
    costs.channel_hop_ns = ns_per_call([&] {
      keep(channel.send(envelope));
      keep(queue.run(1));
    });
    keep(delivered);
  }
  return costs;
}

TracedRun measure_tracing(const std::vector<OpSpec>& ops, Spans* spans,
                          std::size_t parent) {
  TracedRun out;
  std::vector<DagConfig> configs;
  configs.reserve(ops.size());
  for (const OpSpec& op : ops) {
    DagConfig config = build_config(op);
    // Raw samples identify each flow's p99 flit for journey reconstruction.
    config.debug_latency_samples = true;
    configs.push_back(std::move(config));
  }

  // Size the rings from an untraced run, then grow them until no event is
  // overwritten; the final traced run feeds the event and journey counts.
  rxl::TimePs queue = 0, stall = 0, retry = 0, wire = 0;
  {
    ScopedSpan span(spans, "traced.analyse", parent);
    for (DagConfig& config : configs) {
      config.trace.ring_depth =
          trace_ring_depth(rxl::transport::run_dag_fabric(config));
      config.trace.enabled = true;
      DagReport report = rxl::transport::run_dag_fabric(config);
      while (report.trace.total_overruns() != 0 &&
             config.trace.ring_depth < (std::size_t{1} << 24)) {
        config.trace.ring_depth *= 2;
        report = rxl::transport::run_dag_fabric(config);
      }
      out.overruns += report.trace.total_overruns();
      for (const auto& component : report.trace.components)
        for (const auto& event : component.events)
          if (const auto slot = kind_slot(event.kind)) out.events[*slot] += 1;
      for (std::size_t f = 0; f < report.flows.size(); ++f) {
        const std::vector<rxl::TimePs>& samples = report.flows[f].latency_samples;
        if (samples.empty()) continue;
        std::vector<std::size_t> order(samples.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return samples[a] < samples[b];
                         });
        // In-order delivery: the i-th delivery of a flow is truth index i.
        const std::size_t truth =
            order[rxl::stats::nearest_rank_index(samples.size(), 99)];
        const rxl::obs::FlitJourney journey = rxl::obs::reconstruct_journey(
            report.trace, static_cast<std::uint16_t>(f), truth);
        if (!journey.complete) continue;
        queue += journey.total_queue_wait();
        stall += journey.total_credit_stall();
        retry += journey.total_retry_time();
        wire += journey.total_wire_time();
      }
    }
  }
  const double total = static_cast<double>(queue + stall + retry + wire);
  if (total > 0) {
    out.queue_share = static_cast<double>(queue) / total;
    out.stall_share = static_cast<double>(stall) / total;
    out.retry_share = static_cast<double>(retry) / total;
    out.wire_share = static_cast<double>(wire) / total;
  }

  // Overhead: three alternating untraced/traced passes; every op at its
  // fastest pass on each side.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::array<std::vector<double>, 2> fastest{
      std::vector<double>(configs.size(), kInf),
      std::vector<double>(configs.size(), kInf)};
  for (int round = 0; round < 3; ++round) {
    ScopedSpan span(spans, "traced.overhead_pair", parent);
    for (int side = 0; side < 2; ++side) {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        configs[i].trace.enabled = side == 1;
        const double start = thread_cpu_s();
        const DagReport report = rxl::transport::run_dag_fabric(configs[i]);
        fastest[side][i] = std::min(fastest[side][i], thread_cpu_s() - start);
        keep(report);
      }
    }
  }
  const double untraced = std::accumulate(fastest[0].begin(), fastest[0].end(), 0.0);
  const double traced = std::accumulate(fastest[1].begin(), fastest[1].end(), 0.0);
  out.overhead_pct = (traced / untraced - 1.0) * 100.0;
  return out;
}

}  // namespace e2e
