// Scale-out demo: N host/device pairs sharing one multi-port switch — the
// paper's title scenario. Sweeps the pair count and shows aggregate
// application-level damage growing for CXL while RXL stays clean.
//
// Usage: scale_out_star [burst_rate]
#include <cstdio>
#include <cstdlib>

#include "rxl/sim/stats.hpp"
#include "rxl/transport/dag_fabric.hpp"

using namespace rxl;

int main(int argc, char** argv) {
  const double burst_rate = argc > 1 ? std::atof(argv[1]) : 2e-3;
  std::printf(
      "Scaling out: N pairs through one shared switch (burst rate %g/link)\n"
      "====================================================================\n\n"
      "Each pair runs 20k flits per direction; every flit crosses the\n"
      "shared multi-port switch, which silently drops FEC-uncorrectable\n"
      "flits. Aggregate failures across all pairs:\n\n",
      burst_rate);

  sim::TextTable table({"pairs", "protocol", "in-order flits", "switch drops",
                        "order failures", "lost flits", "corrupt data"});
  for (const std::size_t pairs : {2u, 4u, 8u}) {
    for (const auto protocol :
         {transport::Protocol::kCxl, transport::Protocol::kRxl}) {
      transport::StarConfig config;
      config.protocol.protocol = protocol;
      config.protocol.coalesce_factor = 10;
      config.pairs = pairs;
      config.burst_injection_rate = burst_rate;
      config.seed = 2025;
      config.flits_per_direction = 20'000;
      config.horizon = 300'000'000;
      const transport::DagReport report =
          transport::run_dag_fabric(transport::make_star_dag(config));
      table.add_row(
          {std::to_string(pairs), transport::protocol_name(protocol),
           std::to_string(report.total_in_order()),
           std::to_string(report.hubs[0].stats.dropped_fec),
           std::to_string(report.total_order_failures()),
           std::to_string(report.total_missing()),
           std::to_string(report.total_data_corruptions())});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: the aggregate §4.1 damage scales with the number of\n"
      "endpoints sharing the fabric — exactly the compounding effect the\n"
      "paper warns makes baseline CXL 'insufficient for maintaining\n"
      "reliable chip interconnect networks' at scale (§7.1.4). RXL's\n"
      "columns stay at zero as the fabric grows: reliability is per-link-\n"
      "error-rate, not per-system-size.\n");
  return 0;
}
