#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "rxl/common/rng.hpp"
#include "rxl/obs/metrics.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/transport/star_fabric.hpp"

namespace e2e {

using rxl::TimePs;
using rxl::transport::DagConfig;
using rxl::transport::DagReport;
using rxl::transport::Protocol;

namespace {

constexpr TimePs kUs = 1'000'000;

/// `count` ops of one shape, each with its own seed drawn from `seed`.
std::vector<OpSpec> repeated(const OpSpec& shape, std::size_t count,
                             std::uint64_t seed) {
  rxl::Xoshiro256 gen(seed);
  std::vector<OpSpec> ops(count, shape);
  for (OpSpec& op : ops) op.seed = gen();
  return ops;
}

std::vector<OpSpec> sweep_tiny(std::uint64_t seed, std::size_t count) {
  constexpr double kBursts[] = {0.0, 1e-2, 5e-2};
  rxl::Xoshiro256 gen(seed);
  std::vector<OpSpec> ops(count);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    OpSpec& op = ops[i];
    op.family = Family::kChain;
    op.protocol = i % 2 == 0 ? Protocol::kRxl : Protocol::kCxl;
    op.size = gen.bounded(2);
    op.flits = 8 + gen.bounded(9);
    op.burst = kBursts[gen.bounded(3)];
    op.credits = 8;
    op.horizon = 20 * kUs;
    op.seed = gen();
  }
  return ops;
}

DagConfig incast(const rxl::transport::DagScenarioSpec& spec, std::size_t n,
                 Family family) {
  if (family == Family::kIncastPoisson) {
    DagConfig config = rxl::transport::make_incast_dag(spec, n);
    // The aggregate arrival rate is 90 % of the sink hop's one flit per
    // slot, split evenly over the flows (bench_load_curves' 90 % cell).
    const std::uint64_t flows = config.flows.size();
    for (rxl::transport::DagFlow& flow : config.flows) {
      flow.arrival = rxl::transport::ArrivalKind::kPoisson;
      flow.interval = config.slot * flows * 100 / 90;
    }
    return config;
  }
  // Four VCs, DRR weights 1..4, four flows per VC.
  const std::array<rxl::transport::DagFlowClass, 4> classes{{
      {0, 1, 0, 0}, {1, 2, 0, 0}, {2, 3, 0, 0}, {3, 4, 0, 0}}};
  return rxl::transport::make_incast_dag(spec, n, classes);
}

}  // namespace

bool is_workload(std::string_view name) {
  return std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                   name) != std::end(kWorkloadNames);
}

std::vector<OpSpec> make_ops(std::string_view workload, std::uint64_t seed,
                             std::uint64_t scale) {
  // A rep of a long workload is 20 ops of ~50 ms CPU each: short enough
  // that most repetitions of an op run between bursts of host
  // interference. Flit budgets are sized so every credited op drains
  // before its horizon; the fabric is then quiescent at the end of the
  // run, which is what lets the credit ledger close (see inspect()).
  const std::size_t count = std::max<std::uint64_t>(1, 20 / scale);
  OpSpec op;
  if (workload == "chain4-clean") {
    op.family = Family::kChain;
    op.size = 3;
    op.flits = 9'000;
    op.credits = 32;
    op.horizon = 20 * kUs;
    return repeated(op, count, seed);
  }
  if (workload == "incast16-greedy") {
    op.family = Family::kIncastDrr;
    op.size = 16;
    op.flits = 650;
    op.burst = 1e-3;
    op.credits = 8;
    op.horizon = 40 * kUs;
    return repeated(op, count, seed);
  }
  if (workload == "incast4-load90") {
    op.family = Family::kIncastPoisson;
    op.size = 4;
    op.flits = 3'500;
    op.burst = 1e-3;
    op.credits = 32;
    op.horizon = 40 * kUs;
    return repeated(op, count, seed);
  }
  if (workload == "star8-noisy") {
    op.family = Family::kStar;
    op.size = 8;
    op.flits = 1'000'000;  // saturating: the horizon ends the run
    op.burst = 3e-3;
    op.horizon = 4 * kUs;
    // RXL and CXL alternate; each pair shares its seed, so both stacks
    // see the same channel error streams.
    std::vector<OpSpec> ops = repeated(op, 2 * std::max<std::size_t>(1, count / 2), seed);
    for (std::size_t i = 1; i < ops.size(); i += 2) {
      ops[i].protocol = Protocol::kCxl;
      ops[i].seed = ops[i - 1].seed;
    }
    return ops;
  }
  if (workload == "sweep-tiny") return sweep_tiny(seed, 20'000 / scale);
  throw std::invalid_argument("unknown workload");
}

DagConfig build_config(const OpSpec& op) {
  if (op.family == Family::kStar) {
    rxl::transport::StarConfig star;
    star.protocol.protocol = op.protocol;
    star.protocol.coalesce_factor = 10;
    star.pairs = op.size;
    star.burst_injection_rate = op.burst;
    star.seed = op.seed;
    star.flits_per_direction = op.flits;
    star.horizon = op.horizon;
    return rxl::transport::make_star_dag(star);
  }
  rxl::transport::DagScenarioSpec spec;
  spec.protocol.protocol = op.protocol;
  spec.protocol.coalesce_factor = 10;
  spec.burst_injection_rate = op.burst;
  spec.flits_per_flow = op.flits;
  spec.seed = op.seed;
  spec.horizon = op.horizon;
  spec.hop_credits = op.credits;
  if (op.family == Family::kChain)
    return rxl::transport::make_chain_dag(spec, op.size);
  if (op.family == Family::kIncastDrr)
    spec.egress_policy = rxl::switchdev::EgressPolicy::kDrr;
  else
    spec.sample_latency = true;
  return incast(spec, op.size, op.family);
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

OpOutcome inspect(const OpSpec& op, const DagReport& report) {
  OpOutcome out;
  out.in_order = report.total_in_order();
  out.offered = report.total_offered();
  out.order_failures = report.total_order_failures();
  out.missing = report.total_missing();
  out.corruptions = report.total_data_corruptions();
  out.hop_retransmissions = report.total_hop_retransmissions();
  const rxl::stats::LatencyHistogram latency = report.merged_latency();
  const std::uint64_t misrouted = report.misrouted;
  const std::uint64_t latency_misses = report.total_latency_sample_misses();
  const std::string csv = rxl::obs::collect_metrics(report).to_csv();
  const std::uint64_t fields[] = {
      out.in_order,    out.offered,       out.order_failures,
      out.missing,     out.corruptions,   out.hop_retransmissions,
      latency.p50(),   latency.p99(),     latency.p999(),
      misrouted,       latency_misses,    fnv1a(csv.data(), csv.size())};
  out.fingerprint = fnv1a(fields, sizeof fields);

  auto fail = [&out](const char* what, std::uint64_t value) {
    if (!out.violation.empty()) return;
    out.violation = what;
    out.violation += '=';
    out.violation += std::to_string(value);
  };
  if (misrouted != 0) fail("misrouted", misrouted);
  if (latency_misses != 0) fail("latency_misses", latency_misses);
  if (op.protocol == Protocol::kRxl) {
    std::uint64_t duplicates = 0;
    for (const auto& flow : report.flows)
      duplicates += flow.scoreboard.duplicates;
    if (out.order_failures != 0) fail("rxl_order_failures", out.order_failures);
    if (duplicates != 0) fail("rxl_duplicates", duplicates);
    if (out.corruptions != 0) fail("rxl_corruptions", out.corruptions);
  }
  // Credit ledger, per hop direction, once the fabric is quiescent: the
  // peer freed every slot the TX charged, and each charged slot came back
  // as a grant or a dead-hop refund. The grant side closes exactly only
  // when the return wire corrupted nothing: a lost final return on a hop
  // whose window never ran dry triggers no credit probe, so it stays lost.
  auto ledger = [&](const rxl::transport::EndpointExtraStats& tx,
                    const rxl::transport::EndpointExtraStats& rx,
                    const rxl::sim::ChannelStats& return_wire,
                    std::uint32_t segment) {
    const std::uint64_t closed = tx.credits_granted + tx.credits_refunded;
    if (tx.credits_consumed != rx.credits_returned)
      fail("credit_slots_not_freed_on_segment", segment);
    if (closed > tx.credits_consumed ||
        (return_wire.flits_corrupted == 0 && closed != tx.credits_consumed))
      fail("credit_ledger_open_on_segment", segment);
  };
  for (const auto& hop : report.hops) {
    ledger(hop.a_extra, hop.b_extra, hop.reverse_channel, hop.segment);
    ledger(hop.b_extra, hop.a_extra, hop.forward_channel, hop.segment);
  }
  return out;
}

std::uint64_t counters_hash(const DagReport& report) {
  // Every struct hashed here is a padding-free run of std::uint64_t
  // (src/obs/metrics.cpp static_asserts that for its registry).
  std::uint64_t hash = fnv1a(nullptr, 0);
  auto mix = [&hash](const auto& value) {
    hash = fnv1a(&value, sizeof value, hash);
  };
  for (const auto& flow : report.flows) {
    mix(flow.offered);
    mix(flow.scoreboard);
    mix(flow.latency_sample_misses);
    mix(flow.latency.count());
    mix(flow.latency.max());
  }
  for (const auto& hop : report.hops) {
    mix(hop.a);
    mix(hop.b);
    mix(hop.a_extra);
    mix(hop.b_extra);
    mix(hop.a_vc_consumed);
    mix(hop.a_vc_returned);
    mix(hop.b_vc_consumed);
    mix(hop.b_vc_returned);
    mix(hop.forward_channel);
    mix(hop.reverse_channel);
  }
  for (const auto& relay : report.relays)
    for (const auto& port : relay.ports) mix(port.stats);
  for (const auto& hub : report.hubs) mix(hub.stats);
  mix(report.misrouted);
  return hash;
}

void LayerCounts::add(const DagReport& report) {
  for (const auto& hop : report.hops) {
    for (const auto* link : {&hop.a, &hop.b}) {
      data_tx += link->data_flits_sent;
      retx += link->data_flits_retransmitted;
      control_tx += link->control_flits_sent;
      piggybacked += link->acks_piggybacked;
      received += link->flits_received;
      retry_rounds += link->retry_rounds;
      discards += link->flits_discarded_crc + link->flits_discarded_fec +
                  link->flits_discarded_seq;
    }
    for (const auto* extra : {&hop.a_extra, &hop.b_extra}) {
      retry_timeouts += extra->retry_timeouts;
      credit_stalls += extra->credit_stalls;
      discards += extra->stale_discards;
    }
    for (const auto* channel : {&hop.forward_channel, &hop.reverse_channel}) {
      wire_flits += channel->flits_carried;
      corrupted += channel->flits_corrupted;
    }
  }
  for (const auto& relay : report.relays) {
    for (const auto& port : relay.ports) {
      relayed_out += port.stats.relayed_out;
      max_queue_depth = std::max(max_queue_depth, port.stats.max_queue_depth);
      ingress_high_water =
          std::max(ingress_high_water, port.stats.ingress_high_water);
    }
  }
  for (const auto& hub : report.hubs) {
    // A forwarded flit crosses one more wire, hub egress -> peer, which no
    // hop's channel stats cover.
    hub_forwarded += hub.stats.flits_forwarded;
    wire_flits += hub.stats.flits_forwarded;
    hub_dropped += hub.stats.dropped_fec + hub.stats.dropped_crc +
                   hub.stats.dropped_no_route;
  }
  const std::uint64_t in_order = report.total_in_order();
  delivered += in_order;
  max_op_delivered = std::max(max_op_delivered, in_order);
  max_op_endpoints = std::max<std::uint64_t>(max_op_endpoints,
                                             2 * report.hops.size());
}

}  // namespace e2e
