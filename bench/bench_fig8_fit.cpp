// E4: Fig. 8 — FIT_device of CXL vs RXL against increasing switching levels.
//
// The paper's figure is analytic (rates like 1.6e-24 cannot be observed);
// we regenerate the same series from the model, then validate the SHAPE by
// Monte-Carlo at an inflated error rate: CXL's ordering-failure rate grows
// with switching depth while RXL's stays at zero.
#include <cstdio>
#include <string>

#include "rxl/analysis/reliability_model.hpp"
#include "rxl/sim/stats.hpp"
#include "rxl/transport/dag_fabric.hpp"

using namespace rxl;

namespace {

void analytic_fig8() {
  analysis::ReliabilityParams params;
  const auto rows = analysis::fig8_series(params, 4);
  sim::TextTable table(
      {"switch levels", "FIT CXL", "FIT RXL", "CXL/RXL ratio"});
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.levels), sim::sci(row.fit_cxl),
                   sim::sci(row.fit_rxl),
                   sim::sci(row.fit_cxl / row.fit_rxl, 1)});
  }
  std::printf(
      "== Fig. 8 (analytic, paper operating point: BER 1e-6, FER_UC 3e-5,\n"
      "   p_coalescing 0.1, 500M flits/s) ==\n%s\n"
      "Reading: both protocols are equally reliable on a direct link\n"
      "(level 0); one switching level degrades CXL by ~18 orders of\n"
      "magnitude; RXL stays flat — the paper's headline result.\n\n",
      table.to_string().c_str());
}

void monte_carlo_shape() {
  std::printf(
      "== Fig. 8 shape validation (Monte-Carlo, inflated burst rate 1e-3,\n"
      "   150k flits/direction per point) ==\n\n");
  sim::TextTable table({"switch levels", "protocol", "drops", "order fails",
                        "order rate/flit", "95% CI", "missing"});
  for (const unsigned levels : {0u, 1u, 2u, 3u, 4u}) {
    for (const auto protocol :
         {transport::Protocol::kCxl, transport::Protocol::kRxl}) {
      transport::DagScenarioSpec spec;
      spec.protocol.protocol = protocol;
      spec.protocol.coalesce_factor = 10;
      spec.burst_injection_rate = 1e-3;
      spec.seed = 42 + levels;
      spec.flits_per_flow = 150'000;
      spec.horizon = 700'000'000;
      const auto report =
          transport::run_dag_fabric(transport::make_linear_dag(spec, levels));
      const std::uint64_t order = report.total_order_failures();
      const std::uint64_t sent =
          report.hops[0].a.data_flits_sent + report.hops[0].b.data_flits_sent;
      std::uint64_t drops = 0;
      for (const auto& hub : report.hubs) drops += hub.stats.dropped_fec;
      const auto ci = sim::wilson_interval(order, sent);
      const std::string interval =
          sim::interval_str(sim::sci(ci.lower, 1), sim::sci(ci.upper, 1));
      table.add_row({std::to_string(levels), transport::protocol_name(protocol),
                     std::to_string(drops), std::to_string(order),
                     sim::sci(ci.estimate), interval,
                     std::to_string(report.total_missing())});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: CXL ordering failures scale with switching depth (drops\n"
      "accumulate per level, Eq. 6); RXL registers zero ordering failures\n"
      "and zero losses at every depth. Absolute rates differ from Fig. 8\n"
      "because the error rate is inflated ~1e13x to make events observable;\n"
      "the analytic table above carries the paper's absolute numbers.\n\n");
}

}  // namespace

int main() {
  std::printf(
      "RXL reproduction — Fig. 8: FIT vs switching levels\n"
      "===================================================\n\n");
  analytic_fig8();
  monte_carlo_shape();
  return 0;
}
