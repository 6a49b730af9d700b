// rxl-trace: flit-lifecycle trace explorer.
//
// Runs one of four canned traced scenarios (each 3 trials through
// sim::run_trials, so RXL_TRIAL_WORKERS exercises the sharded merge) and
// exports the captures:
//
//   rxl_trace <scenario> chrome              combined Chrome-trace JSON
//                                            (trial i = pid i; open in
//                                            chrome://tracing or Perfetto)
//   rxl_trace <scenario> csv [trial]         one trial's events as CSV
//   rxl_trace <scenario> summary [trial]     per-component event-kind counts
//   rxl_trace <scenario> journey <flow> <truth> [trial]
//                                            one flit's per-hop latency
//                                            attribution (queue wait vs
//                                            credit stall vs retry vs wire)
//   rxl_trace <scenario> timeseries [trial]  occupancy/goodput samples
//
// Scenarios: chain (one flow over three hops, burst errors), incast (four
// sources onto one sink hop at 125% load, Poisson arrivals), trunk (four
// flows through one relay-relay trunk, ECN on), fault (diamond with a
// mid-run link death and a reroute onto the surviving branch), qos (the
// trunk with its four flows on VCs 0-3, DRR weights 1-4).
//
// Every output is deterministic — a pure function of the fixed seeds,
// byte-identical at any worker count. CTest pins `rxl_trace incast chrome`
// against bench/expected/trace_chrome.json, and the SHA-256 of every
// scenario x command output against bench/expected/rxl_trace.sha256, at 1
// and 4 workers.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "rxl/obs/export.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/transport/dag_fabric.hpp"

using namespace rxl;

namespace {

constexpr std::size_t kTrials = 3;

transport::DagScenarioSpec base_spec(std::size_t trial) {
  transport::DagScenarioSpec spec;
  spec.protocol.protocol = transport::Protocol::kRxl;
  spec.protocol.coalesce_factor = 10;
  spec.burst_injection_rate = 1e-3;
  spec.seed = 311 + trial;
  spec.hop_credits = 8;
  spec.sample_latency = true;
  return spec;
}

transport::DagConfig build_scenario(const std::string& name,
                                    std::size_t trial) {
  transport::DagConfig config;
  // The time series samples every 1 us, except in the three scenarios
  // whose traffic drains within about 0.5 us, which sample every 20 ns so
  // their occupancy and goodput rows show the run rather than its end.
  TimePs sample_period = 1'000'000;
  if (name == "chain") {
    transport::DagScenarioSpec spec = base_spec(trial);
    spec.flits_per_flow = 48;
    spec.horizon = 50'000'000;  // 50 us
    config = transport::make_chain_dag(spec, 2);
  } else if (name == "incast") {
    transport::DagScenarioSpec spec = base_spec(trial);
    spec.flits_per_flow = 60;
    spec.horizon = 60'000'000;  // 60 us
    config = transport::make_incast_dag(spec, 4);
    sample_period = 20'000;
    // 125% aggregate load on the shared sink hop: the overload regime
    // whose tail the journey breakdown attributes.
    const std::uint64_t flows = config.flows.size();
    for (transport::DagFlow& flow : config.flows) {
      flow.arrival = transport::ArrivalKind::kPoisson;
      flow.interval = config.slot * flows * 100 / 125;
    }
  } else if (name == "trunk") {
    transport::DagScenarioSpec spec = base_spec(trial);
    spec.flits_per_flow = 60;
    spec.horizon = 60'000'000;  // 60 us
    spec.ecn_threshold = 6;
    config = transport::make_trunk_dag(spec, 4);
    sample_period = 20'000;
  } else if (name == "qos") {
    transport::DagScenarioSpec spec = base_spec(trial);
    spec.flits_per_flow = 60;
    spec.horizon = 60'000'000;  // 60 us
    spec.ecn_threshold = 6;
    spec.egress_policy = switchdev::EgressPolicy::kDrr;
    const transport::DagFlowClass classes[] = {
        {0, 1, 0, 0}, {1, 2, 0, 0}, {2, 3, 0, 0}, {3, 4, 0, 0}};
    config = transport::make_trunk_dag(spec, 4, classes);
    sample_period = 20'000;
  } else if (name == "fault") {
    transport::DagScenarioSpec spec = base_spec(trial);
    spec.burst_injection_rate = 0.0;
    spec.protocol.max_retry_episodes = 6;
    spec.flits_per_flow = 300;
    spec.horizon = 400'000'000;  // 400 us
    spec.hop_credits = 4;
    config = transport::make_diamond_dag(spec, 2, 2);
    // Kill the R0 -> M_0 edge both primaries ride: the TX declares the hop
    // dead, drains its retry buffer, and the controller swaps the flows
    // onto the M_1 branch (kRerouteDrain events from both layers).
    config.faults.edge(2).add_window(30'000'000, 0);
  } else {
    std::fprintf(stderr, "rxl_trace: unknown scenario '%s'\n", name.c_str());
    std::exit(2);
  }
  config.trace.enabled = true;
  config.trace.ring_depth = 1u << 15;
  config.trace.sample_period = sample_period;
  return config;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: rxl_trace <chain|incast|trunk|fault|qos> <command> [args]\n"
      "  chrome                      combined Chrome-trace JSON (pid = trial)\n"
      "  csv [trial]                 one trial's events as CSV\n"
      "  summary [trial]             per-component event-kind counts\n"
      "  journey <flow> <truth> [trial]  per-hop latency attribution\n"
      "  timeseries [trial]          occupancy/goodput samples as CSV\n");
  std::exit(2);
}

std::size_t parse_trial(int argc, char** argv, int index) {
  if (index >= argc) return 0;
  const unsigned long value = std::strtoul(argv[index], nullptr, 10);
  if (value >= kTrials) {
    std::fprintf(stderr, "rxl_trace: trial must be < %zu\n", kTrials);
    std::exit(2);
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string scenario = argv[1];
  const std::string command = argv[2];

  const std::vector<transport::DagReport> reports =
      sim::run_trials(kTrials, [&](std::size_t trial) {
        return transport::run_dag_fabric(build_scenario(scenario, trial));
      });

  if (command == "chrome") {
    std::vector<obs::TraceCapture> captures;
    captures.reserve(reports.size());
    for (const transport::DagReport& report : reports)
      captures.push_back(report.trace);
    std::fputs(obs::chrome_trace_json(captures).c_str(), stdout);
    return 0;
  }
  if (command == "csv") {
    const std::size_t trial = parse_trial(argc, argv, 3);
    std::fputs(obs::trace_csv(reports[trial].trace).c_str(), stdout);
    return 0;
  }
  if (command == "summary") {
    const std::size_t trial = parse_trial(argc, argv, 3);
    const transport::DagReport& report = reports[trial];
    std::printf("scenario %s trial %zu: %llu events, %llu overruns\n\n",
                scenario.c_str(), trial,
                static_cast<unsigned long long>(report.trace.total_events()),
                static_cast<unsigned long long>(
                    report.trace.total_overruns()));
    std::fputs(obs::trace_summary(report.trace).c_str(), stdout);
    return 0;
  }
  if (command == "journey") {
    if (argc < 5) usage();
    const auto flow =
        static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10));
    const std::uint64_t truth = std::strtoull(argv[4], nullptr, 10);
    const std::size_t trial = parse_trial(argc, argv, 5);
    const obs::TraceCapture& capture = reports[trial].trace;
    const obs::FlitJourney journey =
        obs::reconstruct_journey(capture, flow, truth);
    if (!journey.complete) {
      std::printf("flit (flow %u, truth %llu): no complete journey in the "
                  "capture (%s)\n",
                  flow, static_cast<unsigned long long>(truth),
                  journey.dropped ? "dropped" : "not traced or ring overran");
      return 1;
    }
    std::printf("flit (flow %u, truth %llu), trial %zu: injected at %llu ps, "
                "delivered at %llu ps, end-to-end %llu ps over %zu hops\n\n",
                flow, static_cast<unsigned long long>(truth), trial,
                static_cast<unsigned long long>(journey.inject),
                static_cast<unsigned long long>(journey.delivered),
                static_cast<unsigned long long>(journey.total()),
                journey.hops.size());
    std::fputs(obs::journey_table(journey, capture).c_str(), stdout);
    return 0;
  }
  if (command == "timeseries") {
    const std::size_t trial = parse_trial(argc, argv, 3);
    std::printf("at_ps,delivered,queued\n");
    for (const obs::TimeSeriesPoint& point : reports[trial].timeseries)
      std::printf("%llu,%llu,%llu\n",
                  static_cast<unsigned long long>(point.at),
                  static_cast<unsigned long long>(point.delivered),
                  static_cast<unsigned long long>(point.queued));
    return 0;
  }
  usage();
}
