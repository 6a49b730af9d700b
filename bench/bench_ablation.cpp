// Ablation sweeps for the design choices DESIGN.md calls out:
//   A1 — ACK coalescing level p_coalescing: CXL's reliability/overhead
//        trade-off (Eq. 7 vs Eq. 13) against RXL, which decouples them.
//   A2 — BER sweep: end-to-end behaviour of the full stack as the channel
//        degrades (FEC correction share, retries, failures).
//   A3 — switch-internal corruption: CXL's CRC regeneration masks it;
//        RXL's end-to-end ECRC catches it (§6.3).
#include <cstdio>

#include "rxl/analysis/reliability_model.hpp"
#include "rxl/common/rng.hpp"
#include "rxl/flit/flit.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/rs/flit_fec.hpp"
#include "rxl/sim/stats.hpp"
#include "rxl/transport/dag_fabric.hpp"

using namespace rxl;

namespace {

transport::DagScenarioSpec base(transport::Protocol protocol) {
  transport::DagScenarioSpec spec;
  spec.protocol.protocol = protocol;
  spec.seed = 11;
  spec.flits_per_flow = 150'000;
  spec.horizon = 700'000'000;
  return spec;
}

/// Runs host <-> 1 switch level <-> device. In the report, hubs[0] is the
/// downstream switch and hubs[1] the upstream one, channels[0..1] carry the
/// downstream direction, and hops[0].a / .b are the host / device.
transport::DagReport run_one_level(const transport::DagScenarioSpec& spec,
                                   double switch_internal_error_rate = 0.0) {
  transport::DagConfig config = transport::make_linear_dag(spec, 1);
  config.hub_internal_error_rate = switch_internal_error_rate;
  return transport::run_dag_fabric(config);
}

void coalescing_sweep() {
  std::printf(
      "== A1: ACK coalescing sweep (1 switch, burst rate 2e-3) ==\n"
      "p_coalescing = 1/c. For CXL, more piggybacked ACK flits mean more\n"
      "drop-masking opportunities (Eq. 7: FER_order = FER_drop x p).\n\n");
  sim::TextTable table({"coalesce c", "p", "protocol", "order fails",
                        "analytic ratio vs c=2", "piggybacked acks"});
  double cxl_reference = -1.0;
  for (const unsigned coalesce : {2u, 5u, 10u, 20u}) {
    for (const auto protocol :
         {transport::Protocol::kCxl, transport::Protocol::kRxl}) {
      auto spec = base(protocol);
      spec.protocol.coalesce_factor = coalesce;
      spec.burst_injection_rate = 2e-3;
      const auto report = run_one_level(spec);
      const std::uint64_t order = report.total_order_failures();
      std::string ratio = "-";
      if (protocol == transport::Protocol::kCxl) {
        if (cxl_reference < 0) cxl_reference = static_cast<double>(order);
        ratio = sim::sci(2.0 / coalesce, 1);  // Eq. 7 scaling prediction
      }
      table.add_row({std::to_string(coalesce),
                     sim::sci(1.0 / coalesce, 1),
                     transport::protocol_name(protocol), std::to_string(order),
                     ratio,
                     std::to_string(report.hops[0].a.acks_piggybacked +
                                    report.hops[0].b.acks_piggybacked)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void ber_sweep() {
  std::printf(
      "== A2: BER sweep (RXL, 1 switch, independent bit errors) ==\n\n");
  sim::TextTable table({"BER", "FER (Eq. 1)", "corrupted flits",
                        "FEC corrected", "switch drops", "retry rounds",
                        "in-order", "missing"});
  for (const double ber : {1e-6, 1e-5, 1e-4, 3e-4}) {
    auto spec = base(transport::Protocol::kRxl);
    spec.ber = ber;
    spec.flits_per_flow = 80'000;
    spec.horizon = 400'000'000;
    const auto report = run_one_level(spec);
    const auto& down_switch = report.hubs[0].stats;
    const auto& down = report.flows[0].scoreboard;
    analysis::ReliabilityParams params;
    params.ber = ber;
    table.add_row(
        {sim::sci(ber, 0), sim::sci(analysis::flit_error_rate(params)),
         std::to_string(report.channels[0].flits_corrupted +
                        report.channels[1].flits_corrupted),
         std::to_string(down_switch.fec_corrected +
                        report.hops[0].b.fec_corrected_flits),
         std::to_string(down_switch.dropped_fec),
         std::to_string(report.hops[0].a.retry_rounds),
         std::to_string(down.in_order), std::to_string(down.missing)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void internal_corruption_sweep() {
  std::printf(
      "== A3: switch-internal corruption sweep (§6.3; no link errors) ==\n\n");
  sim::TextTable table({"internal rate", "protocol", "corruptions injected",
                        "Fail_data at app", "retries", "missing"});
  for (const double rate : {1e-4, 1e-3, 1e-2}) {
    for (const auto protocol :
         {transport::Protocol::kCxl, transport::Protocol::kRxl}) {
      auto spec = base(protocol);
      spec.flits_per_flow = 80'000;
      spec.horizon = 400'000'000;
      const auto report = run_one_level(spec, rate);
      table.add_row(
          {sim::sci(rate, 0), transport::protocol_name(protocol),
           std::to_string(report.hubs[0].stats.internal_corruptions +
                          report.hubs[1].stats.internal_corruptions),
           std::to_string(report.total_data_corruptions()),
           std::to_string(report.hops[0].a.retry_rounds +
                          report.hops[0].b.retry_rounds),
           std::to_string(report.total_missing())});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: every internally corrupted flit a CXL switch re-signs is\n"
      "consumed by the application as valid data (Fail_data ~= injected);\n"
      "RXL converts every one into a retry — zero corrupt deliveries.\n");
}

void dfe_burst_sweep() {
  // §2.2: DFE error propagation turns single bit errors into bursts. The
  // 3-way interleaved FEC corrects bursts up to 24 bits; as the propagation
  // probability grows, more bursts exceed one symbol per lane and the
  // uncorrectable (drop/retry) share rises.
  std::printf(
      "== A4: DFE error-propagation sweep (flit FEC vs burst length;\n"
      "   seed BER 1e-5, 60k flits per point) ==\n\n");
  sim::TextTable table({"propagation p", "mean flips/corrupted flit",
                        "corrupted flits", "FEC corrected",
                        "uncorrectable (drop pressure)"});
  for (const double propagation : {0.0, 0.5, 0.8, 0.95}) {
    phy::DfeBurstErrors model(1e-5, propagation);
    Xoshiro256 rng(77);
    rs::FlitFec fec;
    std::uint64_t corrupted = 0, corrected = 0, uncorrectable = 0, flips = 0;
    constexpr int kFlits = 60'000;
    for (int i = 0; i < kFlits; ++i) {
      flit::Flit image;
      Xoshiro256 fill(1000 + i);
      for (std::size_t b = 0; b < kFecProtectedBytes; ++b)
        image.bytes()[b] = static_cast<std::uint8_t>(fill.bounded(256));
      fec.encode(image.bytes());
      const std::size_t f = model.corrupt(image.bytes(), rng);
      if (f == 0) continue;
      ++corrupted;
      flips += f;
      const auto result = fec.decode(image.bytes());
      if (result.status == rs::DecodeStatus::kCorrected) ++corrected;
      if (!result.accepted()) ++uncorrectable;
    }
    const double mean_run =
        corrupted == 0 ? 0.0
                       : static_cast<double>(flips) / static_cast<double>(corrupted);
    table.add_row({sim::sci(propagation, 1), sim::sci(mean_run, 1),
                   std::to_string(corrupted), std::to_string(corrected),
                   std::to_string(uncorrectable)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: without propagation nearly every corrupted flit is a single\n"
      "bit error the FEC fixes; aggressive DFE propagation (mean runs of\n"
      "many bits) pushes errors past the 3-symbol interleave budget and the\n"
      "uncorrectable share — the drop pressure on switches — climbs. This\n"
      "is the §2.2 mechanism that motivates strong link FEC in the first\n"
      "place.\n");
}

void retry_mode_sweep() {
  // §5's trade-off, measured: selective repeat resends one flit per drop
  // instead of a window, at the price of an on-chip reorder buffer (and it
  // still does NOT fix the §4.1 ack-masking hole — only ISN does).
  std::printf(
      "== A5: go-back-N vs selective repeat (CXL, 1 switch, burst 2e-3) ==\n\n");
  sim::TextTable table({"retry mode", "retransmitted flits", "retry rounds",
                        "in-order", "order fails", "reorder buf peak",
                        "unchecked deliveries"});
  for (const transport::RetryMode mode :
       {transport::RetryMode::kGoBackN, transport::RetryMode::kSelectiveRepeat}) {
    auto spec = base(transport::Protocol::kCxl);
    spec.protocol.retry_mode = mode;
    spec.burst_injection_rate = 2e-3;
    spec.flits_per_flow = 80'000;
    spec.horizon = 400'000'000;
    const auto report = run_one_level(spec);
    const auto& hop = report.hops[0];
    table.add_row(
        {mode == transport::RetryMode::kGoBackN ? "go-back-N"
                                                : "selective repeat",
         std::to_string(hop.a.data_flits_retransmitted +
                        hop.b.data_flits_retransmitted),
         std::to_string(hop.a.retry_rounds + hop.b.retry_rounds),
         std::to_string(report.total_in_order()),
         std::to_string(report.total_order_failures()), "(see note)",
         std::to_string(hop.a_extra.unchecked_deliveries +
                        hop.b_extra.unchecked_deliveries)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: selective repeat cuts retransmission volume by roughly the\n"
      "in-flight window factor, paying with receiver-side reorder buffering\n"
      "(the paper's 1 Mb/us-of-stop-window argument, §5). Note it is only\n"
      "available to the explicit-sequence baseline: RXL rejects the mode at\n"
      "construction because ISN cannot place out-of-order flits — and even\n"
      "with selective repeat, CXL's ack-carrying flits remain sequence-blind\n"
      "(nonzero unchecked deliveries above). The in-order column also shows\n"
      "a finding: piggybacked (sequence-less) ACK flits cannot be reorder-\n"
      "buffered, so each one discarded during an open gap becomes a new gap,\n"
      "serialising recovery — supporting the paper's observation that the\n"
      "traffic saved by selective repeat is often marginal next to its\n"
      "costs (§5), and go-back-N is the sane pairing for piggybacked acks.\n");
}

}  // namespace

int main() {
  std::printf(
      "RXL reproduction — ablation sweeps\n"
      "===================================\n\n");
  coalescing_sweep();
  ber_sweep();
  internal_corruption_sweep();
  dfe_burst_sweep();
  retry_mode_sweep();
  return 0;
}
