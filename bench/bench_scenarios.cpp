// E10/E11: the paper's Fig. 4 / Fig. 5 failure traces, replayed through the
// full protocol stack with a deterministic switch drop, for both protocols.
#include <cstdio>
#include <span>
#include <vector>

#include "rxl/flit/message_pack.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/stats.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/switchdev/port_switch.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/txn/scoreboard.hpp"

using namespace rxl;

namespace {

struct TraceResult {
  std::vector<std::uint64_t> delivery_order;
  txn::StreamScoreboard::Stats stream;
  txn::TxnScoreboard::Stats txn;
  std::uint64_t switch_drops = 0;
};

/// The trace's payload for stream position `index`: one message, same CQID,
/// tag = stream index.
void pack_trace_payload(flit::MessageKind kind, std::uint64_t index,
                        transport::Endpoint::PayloadOut out) {
  const flit::PackedMessage message{kind, 0,
                                    static_cast<std::uint16_t>(index)};
  flit::pack_messages(std::span<const flit::PackedMessage>(&message, 1), out);
}

TraceResult run_trace(transport::Protocol protocol, flit::MessageKind kind) {
  sim::EventQueue queue;
  transport::ProtocolConfig config;
  config.protocol = protocol;
  config.coalesce_factor = 100;
  config.ack_timeout = 0;
  config.retry_timeout = 0;
    config.nack_retransmit_timeout = 0;

  transport::Endpoint host(queue, config, "host");
  transport::Endpoint device(queue, config, "device");
  sim::LinkChannel host_to_switch(
      queue, std::make_unique<phy::TargetedDoubleError>(1), 1, 2000, 2000);
  sim::LinkChannel switch_to_device(queue, std::make_unique<phy::NoErrors>(),
                                    2, 2000, 2000);
  sim::LinkChannel device_to_host(queue, std::make_unique<phy::NoErrors>(), 3,
                                  2000, 2000);
  switchdev::PortSwitch::Config sw_config;
  sw_config.protocol = protocol;
  sw_config.forward_latency = 2000;
  sw_config.ports = 1;
  switchdev::PortSwitch sw(queue, sw_config, 4);

  host.set_output(&host_to_switch);
  host_to_switch.set_receiver(
      [&sw](sim::FlitEnvelope&& envelope) { sw.on_flit(std::move(envelope)); });
  sw.set_output(0, &switch_to_device);
  switch_to_device.set_receiver([&device](sim::FlitEnvelope&& envelope) {
    device.on_flit(std::move(envelope));
  });
  device.set_output(&device_to_host);
  device_to_host.set_receiver(
      [&host](sim::FlitEnvelope&& envelope) { host.on_flit(std::move(envelope)); });

  TraceResult result;
  txn::StreamScoreboard stream(
      [kind](std::uint64_t index, transport::Endpoint::PayloadOut out) {
        pack_trace_payload(kind, index, out);
      });
  txn::TxnScoreboard txn_board;
  host.set_source([&stream, kind](std::uint64_t index,
                                  transport::Endpoint::PayloadOut out) {
    if (index >= 4) return false;
    pack_trace_payload(kind, index, out);
    stream.register_sent(index);
    return true;
  });
  device.set_deliver([&](std::span<const std::uint8_t> payload,
                         const sim::FlitEnvelope& envelope) {
    stream.on_deliver(payload, envelope);
    txn_board.on_deliver_payload(payload);
    if (envelope.has_truth) result.delivery_order.push_back(envelope.truth_index);
  });
  queue.schedule(3000, [&host] { host.debug_arm_ack(100); });

  host.kick();
  device.kick();
  queue.run_until(1'000'000);

  result.stream = stream.finalize();
  result.txn = txn_board.stats();
  result.switch_drops = sw.stats().dropped_fec;
  return result;
}

std::string order_string(const std::vector<std::uint64_t>& order) {
  std::string out;
  for (const std::uint64_t index : order) {
    if (!out.empty()) out += ",";
    out += static_cast<char>('A' + index);
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "RXL reproduction — Fig. 4 / Fig. 5 failure traces\n"
      "==================================================\n\n"
      "Trace: host streams flits A,B,C,D through one switch; flit B is\n"
      "killed on the first link (deterministic FEC-fatal double error); an\n"
      "ACK is pending when C is encoded, so C piggybacks it (Fig. 4's\n"
      "precondition). Paper outcome for CXL: device consumes A,C,B,C,D.\n\n");

  sim::TextTable table({"scenario", "protocol", "delivery order",
                        "order fails", "dups", "late", "missing",
                        "dup req exec", "ooo data"});
  // Four independent traces (scenario x protocol), sharded across workers
  // and merged in the fixed table order.
  struct TraceCase {
    flit::MessageKind kind;
    transport::Protocol protocol;
  };
  constexpr TraceCase kCases[] = {
      {flit::MessageKind::kRequest, transport::Protocol::kCxl},
      {flit::MessageKind::kRequest, transport::Protocol::kRxl},
      {flit::MessageKind::kData, transport::Protocol::kCxl},
      {flit::MessageKind::kData, transport::Protocol::kRxl},
  };
  const auto results = sim::run_trials(4, [&](std::size_t trial) {
    return run_trace(kCases[trial].protocol, kCases[trial].kind);
  });
  for (std::size_t trial = 0; trial < results.size(); ++trial) {
    const TraceCase& trace = kCases[trial];
    const TraceResult& result = results[trial];
    const char* scenario = trace.kind == flit::MessageKind::kRequest
                               ? "Fig. 5a (requests)"
                               : "Fig. 5b (same-CQID data)";
    table.add_row({scenario, transport::protocol_name(trace.protocol),
                   order_string(result.delivery_order),
                   std::to_string(result.stream.order_violations),
                   std::to_string(result.stream.duplicates),
                   std::to_string(result.stream.late_deliveries),
                   std::to_string(result.stream.missing),
                   std::to_string(result.txn.duplicate_executions),
                   std::to_string(result.txn.out_of_order_data)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: CXL delivers A,C,B,C,D — C is consumed before B and then a\n"
      "second time after the replay (the paper's redundant execution and\n"
      "out-of-order data failures). RXL, under the identical physical drop,\n"
      "delivers A,B,C,D exactly once, in order: the ISN ECRC rejected the\n"
      "ack-carrying flit the moment the sequence slipped.\n");
  return 0;
}
