// E1-E3: reproduces the reliability numbers of §7.1 (Eqs. 1-10).
//
// Analytic columns evaluate the paper's formulas exactly; the Monte-Carlo
// columns validate the mechanisms the formulas abstract (FEC correction
// fraction, drop rate at a switch, CXL ordering-failure rate vs RXL's zero)
// at an inflated error rate where events are observable, then report the
// measured per-flit rates next to the model's prediction at that same
// operating point.
#include <cstdio>

#include "rxl/analysis/reliability_model.hpp"
#include "rxl/sim/stats.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/transport/dag_fabric.hpp"

using namespace rxl;

namespace {

void analytic_section() {
  analysis::ReliabilityParams params;  // the paper's operating point
  sim::TextTable table({"quantity", "paper (§7.1)", "this model", "where"});
  table.add_row({"FER (Eq. 1)", "2.0e-03",
                 sim::sci(analysis::flit_error_rate(params)),
                 "BER 1e-6, 2048-bit flit"});
  table.add_row({"FER_UC (Eq. 2)", "3.0e-05", sim::sci(params.fer_uncorrectable),
                 "PCIe 6.0 bound (input)"});
  table.add_row({"FEC correct share (Eq. 3)", ">98.5%",
                 sim::pct(analysis::fec_correct_fraction(params)),
                 "1 - FER_UC/FER"});
  table.add_row({"FER_UD direct (Eq. 4)", "1.6e-24",
                 sim::sci(analysis::fer_undetected_direct(params)),
                 "FER_UC x 2^-64"});
  table.add_row({"FIT direct (Eq. 5)", "2.9e-03",
                 sim::sci(analysis::fit_cxl(params, 0)), "500M flits/s"});
  table.add_row({"FER_drop 1 switch (Eq. 6)", "3.0e-05",
                 sim::sci(analysis::fer_drop(params, 1)), "= FER_UC"});
  table.add_row({"FER_order CXL (Eq. 7)", "3.0e-06",
                 sim::sci(analysis::fer_order_cxl(params, 1)),
                 "p_coalescing 0.1"});
  table.add_row({"FIT CXL 1 switch (Eq. 8)", "5.4e+15",
                 sim::sci(analysis::fit_cxl(params, 1)), "ordering failures"});
  table.add_row({"FER_UD RXL (Eq. 9)", "1.6e-24",
                 sim::sci(analysis::fer_undetected_rxl(params, 1)),
                 "all drops detected"});
  table.add_row({"FIT RXL 1 switch (Eq. 10)", "2.9e-03",
                 sim::sci(analysis::fit_rxl(params, 1)), "CRC escapes only"});
  std::printf("== E1-E3: analytic reliability (paper operating point) ==\n%s\n",
              table.to_string().c_str());
}

void monte_carlo_section() {
  // Inflated operating point: per-link 4-symbol burst injection at 1e-2.
  // A 4-symbol burst is FEC-uncorrectable; a switch detects (and drops)
  // ~2/3 of them, so the model predicts:
  //   drop rate      ~= rate x 2/3
  //   CXL order rate ~= drop rate x p_coalescing
  //   RXL order rate  = 0
  const double kRate = 3e-3;
  const double kCoalescing = 0.1;
  std::printf(
      "== E2/E3 mechanism validation: Monte-Carlo at inflated error rate ==\n"
      "   (per-link 4-symbol burst injection rate %.0e, p_coalescing %.1f,\n"
      "    1 switch level, bidirectional saturating traffic)\n\n",
      kRate, kCoalescing);

  sim::TextTable table({"protocol", "flits delivered", "drops@switch",
                        "drop rate", "predicted", "order fails", "order rate",
                        "predicted", "dups", "missing"});
  // The two protocol sims are independent Monte Carlo trials; shard them
  // across workers (RXL_TRIAL_WORKERS overrides) and merge in protocol
  // order, so this table is byte-identical at any worker count.
  constexpr transport::Protocol kProtocols[] = {transport::Protocol::kCxl,
                                                transport::Protocol::kRxl};
  const auto reports = sim::run_trials(2, [&](std::size_t trial) {
    transport::DagScenarioSpec spec;
    spec.protocol.protocol = kProtocols[trial];
    spec.protocol.coalesce_factor = 10;
    spec.burst_injection_rate = kRate;
    spec.seed = 7;
    spec.flits_per_flow = 400'000;
    spec.horizon = 1'800'000'000;  // 1.8 ms
    return transport::run_dag_fabric(transport::make_linear_dag(spec, 1));
  });
  for (std::size_t trial = 0; trial < reports.size(); ++trial) {
    const transport::Protocol protocol = kProtocols[trial];
    const auto& report = reports[trial];

    const auto& board = report.flows[0].scoreboard;
    const auto& up = report.flows[1].scoreboard;
    const auto& host = report.hops[0].a;
    const auto& device = report.hops[0].b;
    const double sent = static_cast<double>(
        host.data_flits_sent + device.data_flits_sent +
        host.data_flits_retransmitted + device.data_flits_retransmitted);
    std::uint64_t hub_drops = 0;
    for (const auto& hub : report.hubs) hub_drops += hub.stats.dropped_fec;
    const double drops = static_cast<double>(hub_drops);
    const double order =
        static_cast<double>(board.order_violations + up.order_violations);
    const double drop_rate = drops / sent;
    table.add_row({transport::protocol_name(protocol),
                   std::to_string(board.in_order + up.in_order),
                   std::to_string(static_cast<unsigned long long>(drops)),
                   sim::sci(drop_rate), sim::sci(kRate * 2.0 / 3.0),
                   std::to_string(static_cast<unsigned long long>(order)),
                   sim::sci(order / sent),
                   protocol == transport::Protocol::kCxl
                       ? sim::sci(drop_rate * kCoalescing)
                       : std::string("0"),
                   std::to_string(board.duplicates + up.duplicates),
                   std::to_string(board.missing + up.missing)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: CXL's measured ordering-failure rate tracks drop_rate x\n"
      "p_coalescing (Eq. 7's mechanism); RXL shows zero ordering failures and\n"
      "zero losses under identical physics — the paper's §7.1.3 claim.\n\n");
}

void flit68_section() {
  // Why the paper restricts itself to 256 B flits (§4): the 68 B low-speed
  // format has no FEC and only a CRC-16, so at full-speed BERs its
  // undetected-error floor is catastrophically higher. Worst-case escape
  // (2^-16 for errors beyond the CRC's guaranteed classes) upper-bounds it.
  std::printf(
      "== Context: 68 B vs 256 B flit undetected-error floor (direct link,\n"
      "   upper bound with worst-case CRC escape) ==\n\n");
  sim::TextTable table({"flit", "BER", "FER", "UD floor/flit", "FIT bound"});
  for (const double ber : {1e-12, 1e-6}) {
    {
      analysis::ReliabilityParams p68;
      p68.ber = ber;
      p68.flit_bits = 68 * 8;
      p68.crc_escape = 0x1p-16;
      p68.flits_per_second = analysis::kFlitsPerSecond * 256.0 / 68.0;
      const double fer = analysis::flit_error_rate(p68);
      const double ud = fer * p68.crc_escape;  // no FEC stage
      table.add_row({"68 B (CRC-16, no FEC)", sim::sci(ber, 0), sim::sci(fer),
                     sim::sci(ud), sim::sci(analysis::fit_from_rate(ud, p68))});
    }
    {
      analysis::ReliabilityParams p256;
      p256.ber = ber;
      const double fer_uc =
          ber >= 1e-6 ? p256.fer_uncorrectable
                      : p256.fer_uncorrectable * (ber / 1e-6);  // scaled bound
      const double ud = fer_uc * p256.crc_escape;
      table.add_row({"256 B (CRC-64 + FEC)", sim::sci(ber, 0),
                     sim::sci(analysis::flit_error_rate(p256)), sim::sci(ud),
                     sim::sci(analysis::fit_from_rate(ud, p256))});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: at CXL 2.0's BER (1e-12) the light 68 B format is tenable;\n"
      "at CXL 3.0's 1e-6 it is not — which is why the paper's analysis (and\n"
      "this reproduction) centres on the 256 B flit. ISN itself is format-\n"
      "agnostic: the library provides the same XOR-fold construction over\n"
      "the 68 B flit's CRC-16 (rxl::flit::Flit68Codec).\n\n");
}

}  // namespace

int main() {
  std::printf(
      "RXL reproduction — reliability tables (paper §7.1, Eqs. 1-10)\n"
      "==============================================================\n\n");
  analytic_section();
  monte_carlo_section();
  flit68_section();
  return 0;
}
