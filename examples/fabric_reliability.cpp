// Fabric reliability demo: the same error-prone 2-level switched fabric run
// under baseline CXL and under RXL, with the application-level damage
// reported side by side.
//
// Usage: fabric_reliability [burst_rate] [levels]
//   burst_rate  per-link, per-flit 4-symbol burst probability (default 5e-3)
//   levels      switching levels (default 2)
#include <cstdio>
#include <cstdlib>

#include "rxl/sim/stats.hpp"
#include "rxl/transport/dag_fabric.hpp"

using namespace rxl;

int main(int argc, char** argv) {
  const double burst_rate = argc > 1 ? std::atof(argv[1]) : 5e-3;
  const unsigned levels = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 2;

  std::printf(
      "Fabric reliability: CXL vs RXL, %u switching level(s), burst rate %g\n"
      "====================================================================\n\n"
      "Topology: host <-> %u switch(es) <-> device, bidirectional saturating\n"
      "traffic, 200k flits per direction. Burst errors make switches drop\n"
      "flits silently; the scoreboard reports what the application sees.\n\n",
      levels, burst_rate, levels);

  sim::TextTable table({"metric", "CXL", "RXL"});
  transport::DagReport reports[2];
  int column = 0;
  for (const auto protocol :
       {transport::Protocol::kCxl, transport::Protocol::kRxl}) {
    transport::DagScenarioSpec spec;
    spec.protocol.protocol = protocol;
    spec.protocol.coalesce_factor = 10;
    spec.burst_injection_rate = burst_rate;
    spec.seed = 1234;
    spec.flits_per_flow = 200'000;
    spec.horizon = 1'000'000'000;  // 1 ms
    reports[column++] =
        transport::run_dag_fabric(transport::make_linear_dag(spec, levels));
  }

  auto row = [&](const char* name, auto getter) {
    table.add_row({name, std::to_string(getter(reports[0])),
                   std::to_string(getter(reports[1]))});
  };
  using Report = transport::DagReport;
  row("flits delivered in order",
      [](const Report& r) { return r.total_in_order(); });
  row("switch drops (silent)", [](const Report& r) {
    std::uint64_t drops = 0;
    for (const auto& hub : r.hubs) drops += hub.stats.dropped_fec;
    return drops;
  });
  row("ordering violations", [](const Report& r) {
    return r.flows[0].scoreboard.order_violations +
           r.flows[1].scoreboard.order_violations;
  });
  row("duplicate deliveries", [](const Report& r) {
    return r.flows[0].scoreboard.duplicates + r.flows[1].scoreboard.duplicates;
  });
  row("flits lost forever", [](const Report& r) { return r.total_missing(); });
  row("corrupt data consumed",
      [](const Report& r) { return r.total_data_corruptions(); });
  row("go-back-N retry rounds", [](const Report& r) {
    return r.hops[0].a.retry_rounds + r.hops[0].b.retry_rounds;
  });
  row("unchecked (ack-masked) deliveries", [](const Report& r) {
    return r.hops[0].a_extra.unchecked_deliveries +
           r.hops[0].b_extra.unchecked_deliveries;
  });

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: identical physics, different protocols. CXL turns silent\n"
      "switch drops into application-visible ordering damage through its\n"
      "ack-carrying (sequence-less) flits; RXL turns every one of them into\n"
      "a retry. RXL pays the same bandwidth as CXL-with-piggybacking\n"
      "(compare retry rounds) — reliability is the only difference.\n");
  return 0;
}
