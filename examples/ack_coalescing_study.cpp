// ACK coalescing study: the trade-off the paper's §7.2.2 dissects.
//
// Baseline CXL must choose between two evils:
//   * piggyback ACKs  -> cheap, but every ack-carrying flit is a
//                        sequence-blind spot (ordering failures, Eq. 7);
//   * standalone ACKs -> sequence-safe, but the reverse link burns a slot
//                        per ACK (bandwidth loss = p_coalescing, Eq. 13).
// RXL removes the dilemma: piggybacked ACKs at zero reliability cost.
#include <cstdio>

#include "rxl/analysis/bandwidth_model.hpp"
#include "rxl/analysis/reliability_model.hpp"
#include "rxl/sim/stats.hpp"
#include "rxl/transport/dag_fabric.hpp"

using namespace rxl;

int main() {
  std::printf(
      "ACK coalescing study (paper §7.2.2)\n"
      "===================================\n\n"
      "1 switching level, burst rate 3e-3/link, 150k flits per direction.\n"
      "Sweeping the coalescing factor c (p_coalescing = 1/c):\n\n");

  sim::TextTable table({"c", "p", "mode", "protocol", "order fails",
                        "reverse ACK flits", "analytic BW loss (Eq. 13)"});

  for (const unsigned coalesce : {1u, 4u, 16u}) {
    struct Mode {
      const char* name;
      transport::Protocol protocol;
      link::AckPolicy policy;
    };
    const Mode modes[] = {
        {"piggyback", transport::Protocol::kCxl, link::AckPolicy::kPiggyback},
        {"standalone", transport::Protocol::kCxl, link::AckPolicy::kStandalone},
        {"piggyback", transport::Protocol::kRxl, link::AckPolicy::kPiggyback},
    };
    for (const Mode& mode : modes) {
      transport::DagScenarioSpec spec;
      spec.protocol.protocol = mode.protocol;
      spec.protocol.ack_policy = mode.policy;
      spec.protocol.coalesce_factor = coalesce;
      spec.burst_injection_rate = 3e-3;
      spec.seed = 31;
      spec.flits_per_flow = 150'000;
      spec.horizon = 900'000'000;
      const auto report =
          transport::run_dag_fabric(transport::make_linear_dag(spec, 1));

      const std::uint64_t order = report.total_order_failures();
      const std::uint64_t ack_flits = report.hops[0].a.control_flits_sent +
                                      report.hops[0].b.control_flits_sent;
      analysis::BandwidthParams params;
      params.p_coalescing = 1.0 / coalesce;
      const double eq13 = mode.policy == link::AckPolicy::kStandalone
                              ? analysis::bw_loss_cxl_standalone_ack(params)
                              : 0.0;
      table.add_row({std::to_string(coalesce), sim::sci(1.0 / coalesce, 1),
                     mode.name, transport::protocol_name(mode.protocol),
                     std::to_string(order), std::to_string(ack_flits),
                     mode.policy == link::AckPolicy::kStandalone
                         ? sim::pct(eq13)
                         : "~0 (rides on data)"});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: CXL+piggyback shows ordering failures that grow with\n"
      "p_coalescing; CXL+standalone eliminates them but pays Eq. 13's\n"
      "bandwidth (one reverse ACK flit per c data flits — 100%% of a link at\n"
      "c=1). RXL+piggyback sits in the empty quadrant: zero ordering\n"
      "failures AND zero ACK bandwidth, which is the paper's point.\n");
  return 0;
}
