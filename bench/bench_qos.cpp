// QoS table: flow isolation under overload — FIFO vs round-robin vs
// weighted DRR egress scheduling, with ECN-style early backpressure.
//
// Three questions, on the congestion fabrics with per-flow virtual
// channels:
//  * FAIRNESS — when greedy "elephant" flows hold UNEQUAL credit depths on
//    their private ingress hops, the legacy shared FIFO egress queue hands
//    each flow throughput proportional to its buffer share (Jain index
//    well below 1). Per-VC queues drained round-robin (or DRR with equal
//    weights) equalize the shares regardless of buffer asymmetry.
//  * WEIGHTS — DRR quanta split the bottleneck wire in a configured ratio.
//  * MICE LATENCY — a paced low-rate "mouse" flow crossing the same
//    bottleneck port queues behind the elephants' whole backlog under FIFO
//    (head-of-line blocking); on its own VC under DRR it waits at most one
//    service round, holding its p99 near the uncontended reference. An
//    ECN threshold additionally throttles elephants BEFORE their credit
//    windows run dry, shifting the backpressure from credit exhaustion
//    to explicit marks at no cost in goodput or tail latency.
//
// Links are clean (no injected errors): the tails measured here are pure
// queueing, not retry noise — bench_congestion covers errors + credits.
// Output is deterministic (a pure function of the fixed seeds) and byte
// identical for any RXL_TRIAL_WORKERS; CI diffs the 1-vs-4-worker outputs.
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "rxl/sim/stats.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/switchdev/egress_scheduler.hpp"
#include "rxl/transport/dag_fabric.hpp"

using namespace rxl;

namespace {

using switchdev::EgressPolicy;

enum class Layout {
  kUnevenIncast,   // 4 greedy elephants, own VCs, ingress credits 16/4/16/4
  kWeightedIncast, // 4 greedy elephants, own VCs, DRR weights 6/2/1/1
  kMiceIncast,     // 3 elephants on VC1 + 1 paced mouse on VC0
  kMiceOnly,       // the mouse alone: the uncontended latency reference
  kMiceTrunk,      // trunk-4: 3 elephants + 1 mouse through one trunk hop
  kUnevenHotspot,  // hot flows with credits 16/4/16 + a paced cold mouse
};

struct QosCase {
  const char* name;
  Layout layout;
  EgressPolicy policy;
  std::size_t ecn;  // 0 = ECN off
};

constexpr TimePs kMousePace = 500'000;  // one mouse flit per 0.5 us

transport::DagConfig build(const QosCase& scenario) {
  transport::DagScenarioSpec spec;
  spec.protocol.protocol = transport::Protocol::kRxl;
  spec.protocol.coalesce_factor = 10;
  spec.flits_per_flow = 20'000;  // saturating: more than the horizon carries
  spec.seed = 311;
  spec.horizon = 100'000'000;  // 100 us
  spec.egress_policy = scenario.policy;
  spec.ecn_threshold = scenario.ecn;
  spec.sample_latency = true;

  const transport::DagFlowClass elephant1{1, 1, 0, 0};
  const transport::DagFlowClass mouse{0, 1, kMousePace, 0};
  switch (scenario.layout) {
    case Layout::kUnevenIncast: {
      spec.hop_credits = 8;
      const transport::DagFlowClass classes[] = {
          {0, 1, 0, 0}, {1, 1, 0, 0}, {2, 1, 0, 0}, {3, 1, 0, 0}};
      transport::DagConfig config =
          transport::make_incast_dag(spec, 4, classes);
      // Asymmetric private ingress buffers: the FIFO egress queue hands
      // each elephant throughput proportional to these.
      config.edges[0].credits = 16;
      config.edges[1].credits = 4;
      config.edges[2].credits = 16;
      config.edges[3].credits = 4;
      return config;
    }
    case Layout::kWeightedIncast: {
      spec.hop_credits = 16;
      // The heavy flow gets a larger budget: its 6/10 share of the wire
      // exceeds flits_per_flow, and a flow that finishes early would hand
      // its quanta back and mask the configured ratio.
      const transport::DagFlowClass classes[] = {
          {0, 6, 0, 40'000}, {1, 2, 0, 0}, {2, 1, 0, 0}, {3, 1, 0, 0}};
      return transport::make_incast_dag(spec, 4, classes);
    }
    case Layout::kMiceIncast:
    case Layout::kMiceOnly: {
      spec.hop_credits = 16;
      const transport::DagFlowClass classes[] = {mouse, elephant1, elephant1,
                                                 elephant1};
      transport::DagConfig config =
          transport::make_incast_dag(spec, 4, classes);
      if (scenario.layout == Layout::kMiceOnly) {
        for (std::size_t f = 1; f < config.flows.size(); ++f)
          config.flows[f].flits = 0;  // elephants idle: pure-transit baseline
      }
      return config;
    }
    case Layout::kMiceTrunk: {
      spec.hop_credits = 16;
      const transport::DagFlowClass classes[] = {mouse, elephant1, elephant1,
                                                 elephant1};
      return transport::make_trunk_dag(spec, 4, classes);
    }
    case Layout::kUnevenHotspot:
      break;
  }
  // Hot flows 0..2 ride their own VCs into the shared hot egress port; the
  // cold flow is a paced mouse with a private egress hop either way.
  spec.hop_credits = 8;
  const transport::DagFlowClass classes[] = {
      {1, 1, 0, 0}, {2, 1, 0, 0}, {3, 1, 0, 0}, mouse};
  transport::DagConfig config = transport::make_hotspot_dag(spec, 4, classes);
  config.edges[0].credits = 16;
  config.edges[1].credits = 4;
  config.edges[2].credits = 16;
  return config;
}

struct Row {
  double jain = -1.0;           // over greedy (unpaced) flows; <0 = n/a
  std::string shares;           // per-greedy-flow delivered counts
  std::int64_t mice_p50 = -1;   // ns; <0 = no paced flow
  std::int64_t mice_p99 = -1;
  std::uint64_t mice_delivered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t ecn_stalls = 0;
  std::uint64_t max_ingress = 0;
  std::uint64_t order_failures = 0;
};

Row run_scenario(const QosCase& scenario) {
  transport::DagConfig config = build(scenario);
  // Keep the raw per-delivery samples (not just the histogram): the mice
  // percentiles below are exact nearest-rank values over the full sample
  // set, and these runs are small enough that the debug opt-in's
  // delivered-proportional memory is harmless.
  config.debug_latency_samples = true;
  const transport::DagReport report = transport::run_dag_fabric(config);
  Row row;
  row.delivered = report.total_in_order();
  row.order_failures = report.total_order_failures();
  row.ecn_marks = report.total_ecn_mark_events();
  row.ecn_stalls = report.total_ecn_stalls();
  row.max_ingress = report.max_ingress_occupancy();

  double sum = 0.0, sum_sq = 0.0;
  std::size_t greedy = 0;
  std::vector<TimePs> mice_samples;
  row.shares.reserve(64);  // also defeats a GCC 12 -Wrestrict false positive
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const transport::DagFlowReport& flow = report.flows[f];
    if (config.flows[f].arrival == transport::ArrivalKind::kPaced) {
      row.mice_delivered += flow.scoreboard.in_order;
      mice_samples.insert(mice_samples.end(), flow.latency_samples.begin(),
                          flow.latency_samples.end());
      continue;
    }
    if (config.flows[f].flits == 0) continue;
    greedy += 1;
    const double x = static_cast<double>(flow.scoreboard.in_order);
    sum += x;
    sum_sq += x * x;
    if (!row.shares.empty()) row.shares += "/";
    row.shares += std::to_string(flow.scoreboard.in_order);
  }
  if (greedy > 0 && sum_sq > 0.0)
    row.jain = (sum * sum) / (static_cast<double>(greedy) * sum_sq);
  if (row.shares.empty()) row.shares.push_back('-');
  if (!mice_samples.empty()) {
    // Sort once, then ceiling nearest-rank per quantile (stats helper):
    // the old floor((q*(n-1))/100) under-reported tails at small n (p99 of
    // 50 samples read index 48, not 49).
    std::sort(mice_samples.begin(), mice_samples.end());
    const std::span<const TimePs> sorted(mice_samples);
    row.mice_p50 =
        static_cast<std::int64_t>(stats::percentile_sorted(sorted, 50) / 1000);
    row.mice_p99 =
        static_cast<std::int64_t>(stats::percentile_sorted(sorted, 99) / 1000);
  }
  return row;
}

std::string fixed3(double value) {
  if (value < 0.0) return "-";
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

std::string ns_or_dash(std::int64_t value) {
  return value < 0 ? std::string("-") : std::to_string(value);
}

}  // namespace

int main() {
  std::printf(
      "RXL reproduction — QoS egress scheduling and flow isolation\n"
      "===========================================================\n\n"
      "Clean links, horizon 100 us, saturating elephants. uneven-incast:\n"
      "four greedy flows on private ingress hops with credit depths\n"
      "16/4/16/4 share one sink hop; weighted-incast: DRR quanta 6/2/1/1\n"
      "split the wire; mice-incast / mice-trunk: three elephants plus one\n"
      "paced mouse (1 flit / 0.5 us, own VC) cross the same bottleneck\n"
      "port; mice-alone is the uncontended latency reference; hotspot: hot\n"
      "flows with uneven credits plus a paced cold mouse on its own hop.\n"
      "ECN = mark threshold in ingress-VC slots (0 = off).\n\n");

  const QosCase cases[] = {
      {"uneven-incast", Layout::kUnevenIncast, EgressPolicy::kFifo, 0},
      {"uneven-incast", Layout::kUnevenIncast, EgressPolicy::kRoundRobin, 0},
      {"uneven-incast", Layout::kUnevenIncast, EgressPolicy::kDrr, 0},
      {"uneven-incast", Layout::kUnevenIncast, EgressPolicy::kDrr, 8},
      {"weighted-incast", Layout::kWeightedIncast, EgressPolicy::kDrr, 0},
      {"mice-alone", Layout::kMiceOnly, EgressPolicy::kFifo, 0},
      {"mice-incast", Layout::kMiceIncast, EgressPolicy::kFifo, 0},
      {"mice-incast", Layout::kMiceIncast, EgressPolicy::kDrr, 0},
      {"mice-incast", Layout::kMiceIncast, EgressPolicy::kDrr, 8},
      {"mice-trunk", Layout::kMiceTrunk, EgressPolicy::kFifo, 0},
      {"mice-trunk", Layout::kMiceTrunk, EgressPolicy::kDrr, 0},
      {"hotspot", Layout::kUnevenHotspot, EgressPolicy::kFifo, 0},
      {"hotspot", Layout::kUnevenHotspot, EgressPolicy::kDrr, 0},
  };
  constexpr std::size_t kCases = sizeof(cases) / sizeof(cases[0]);

  const auto rows = sim::run_trials(
      kCases, [&](std::size_t trial) { return run_scenario(cases[trial]); });

  sim::TextTable table({"scenario", "policy", "ecn", "jain", "shares",
                        "mice p50 ns", "mice p99 ns", "mice dlvd",
                        "delivered", "ord fail", "ecn marks", "ecn stalls",
                        "ingr hw"});
  for (std::size_t i = 0; i < kCases; ++i) {
    const Row& row = rows[i];
    table.add_row({cases[i].name,
                   switchdev::egress_policy_name(cases[i].policy),
                   std::to_string(cases[i].ecn), fixed3(row.jain), row.shares,
                   ns_or_dash(row.mice_p50), ns_or_dash(row.mice_p99),
                   std::to_string(row.mice_delivered),
                   std::to_string(row.delivered),
                   std::to_string(row.order_failures),
                   std::to_string(row.ecn_marks),
                   std::to_string(row.ecn_stalls),
                   std::to_string(row.max_ingress)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: under FIFO the uneven-credit elephants split the wire in\n"
      "proportion to their buffers (Jain well below 1) and the mouse's p99\n"
      "sits behind the whole elephant backlog; RR/DRR pin Jain at ~1 from\n"
      "the same buffers, the weighted quanta split the wire ~6/2/1/1, and\n"
      "the mouse's p99 stays within ~2x of the uncontended reference. ECN\n"
      "rows move the elephants' backpressure from credit exhaustion to\n"
      "explicit marks (ecn stalls > 0) at identical goodput and mice tails.\n"
      "Zero ord-fail everywhere: scheduling never reorders a flow.\n");
  return 0;
}
