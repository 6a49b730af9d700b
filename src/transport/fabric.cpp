#include "rxl/transport/fabric.hpp"

#include <cassert>
#include <cstdio>

#include "rxl/sim/event_queue.hpp"
#include "rxl/transport/traffic.hpp"

namespace rxl::transport {
namespace {

/// One direction of the fabric: TX endpoint -> L+1 channels / L switches ->
/// RX endpoint, carrying the payload stream salted by `salt`.
struct Direction {
  explicit Direction(std::uint64_t salt)
      : salt(salt),
        scoreboard([salt](std::uint64_t index,
                          std::span<std::uint8_t, kPayloadBytes> out) {
          fill_stream_payload(index, salt, out);
        }) {}

  std::uint64_t salt;
  std::vector<std::unique_ptr<sim::LinkChannel>> channels;
  std::vector<std::unique_ptr<switchdev::SwitchDevice>> switches;
  txn::StreamScoreboard scoreboard;
};

void build_direction(sim::EventQueue& queue, const FabricConfig& config,
                     Direction& direction, Endpoint& tx, Endpoint& rx,
                     Xoshiro256& seeder) {
  const unsigned hops = config.switch_levels + 1;
  direction.channels.reserve(hops);
  direction.switches.reserve(config.switch_levels);
  for (unsigned hop = 0; hop < hops; ++hop) {
    direction.channels.push_back(std::make_unique<sim::LinkChannel>(
        queue,
        make_error_model(config.ber, config.burst_injection_rate,
                         config.burst_symbols),
        seeder(), config.slot,
        config.propagation_latency));
  }
  for (unsigned level = 0; level < config.switch_levels; ++level) {
    switchdev::SwitchDevice::Config sw;
    sw.protocol = config.protocol.protocol;
    sw.internal_error_rate = config.switch_internal_error_rate;
    sw.forward_latency = config.switch_latency;
    direction.switches.push_back(
        std::make_unique<switchdev::SwitchDevice>(queue, sw, seeder()));
  }
  // Wire: tx -> chan[0] -> sw[0] -> chan[1] -> ... -> chan[L] -> rx.
  tx.set_output(direction.channels.front().get());
  for (unsigned level = 0; level < config.switch_levels; ++level) {
    switchdev::SwitchDevice* sw = direction.switches[level].get();
    direction.channels[level]->set_receiver(
        [sw](sim::FlitEnvelope&& envelope) { sw->on_flit(std::move(envelope)); });
    sw->set_output(direction.channels[level + 1].get());
  }
  direction.channels.back()->set_receiver(
      [&rx](sim::FlitEnvelope&& envelope) { rx.on_flit(std::move(envelope)); });
}

void attach_traffic(Endpoint& tx, Endpoint& rx, Direction& direction,
                    std::uint64_t flit_budget) {
  Direction* const d = &direction;
  tx.set_source([d, flit_budget](std::uint64_t index,
                                 Endpoint::PayloadOut out) {
    if (index >= flit_budget) return false;
    fill_stream_payload(index, d->salt, out);
    d->scoreboard.register_sent(index);
    return true;
  });
  rx.set_deliver([d](std::span<const std::uint8_t> payload,
                     const sim::FlitEnvelope& envelope) {
    d->scoreboard.on_deliver(payload, envelope);
  });
}

DirectionReport report_direction(const FabricConfig& config,
                                 const Direction& direction,
                                 const Endpoint& tx, const Endpoint& rx,
                                 std::uint64_t slots) {
  DirectionReport report;
  report.tx = tx.stats();
  report.rx = rx.stats();
  report.tx_extra = tx.extra_stats();
  report.rx_extra = rx.extra_stats();
  report.scoreboard = direction.scoreboard.finalize();
  for (const auto& sw : direction.switches) {
    report.switch_dropped_fec += sw->stats().dropped_fec;
    report.switch_dropped_crc += sw->stats().dropped_crc;
    report.switch_fec_corrected += sw->stats().fec_corrected;
    report.switch_internal_corruptions += sw->stats().internal_corruptions;
  }
  for (const auto& channel : direction.channels)
    report.channel_flits_corrupted += channel->stats().flits_corrupted;
  if (slots > 0) {
    report.goodput = static_cast<double>(report.scoreboard.in_order) /
                     static_cast<double>(slots);
    report.bandwidth_loss = 1.0 - report.goodput;
  }
  (void)config;
  return report;
}

}  // namespace

FabricReport run_fabric(const FabricConfig& config) {
  assert(config.horizon > 0);
  sim::EventQueue queue;
  Xoshiro256 seeder(config.seed);

  Endpoint host(queue, config.protocol, "host");
  Endpoint device(queue, config.protocol, "device");

  Direction downstream(/*salt=*/0x00D0);
  Direction upstream(/*salt=*/0x0B0Bu);
  build_direction(queue, config, downstream, host, device, seeder);
  build_direction(queue, config, upstream, device, host, seeder);

  attach_traffic(host, device, downstream, config.downstream_flits);
  attach_traffic(device, host, upstream, config.upstream_flits);

  host.kick();
  device.kick();
  queue.run_until(config.horizon);

  FabricReport report;
  report.horizon = config.horizon;
  report.slots = config.horizon / config.slot;
  report.downstream =
      report_direction(config, downstream, host, device, report.slots);
  report.upstream =
      report_direction(config, upstream, device, host, report.slots);
  return report;
}

std::string summarize(const FabricReport& report) {
  char buf[512];
  const auto& d = report.downstream.scoreboard;
  const auto& u = report.upstream.scoreboard;
  std::snprintf(
      buf, sizeof buf,
      "downstream: %llu in-order, %llu order-violations, %llu dups, "
      "%llu corrupt | upstream: %llu in-order, %llu order-violations, "
      "%llu dups, %llu corrupt | switch drops (fec) %llu/%llu",
      static_cast<unsigned long long>(d.in_order),
      static_cast<unsigned long long>(d.order_violations),
      static_cast<unsigned long long>(d.duplicates),
      static_cast<unsigned long long>(d.data_corruptions),
      static_cast<unsigned long long>(u.in_order),
      static_cast<unsigned long long>(u.order_violations),
      static_cast<unsigned long long>(u.duplicates),
      static_cast<unsigned long long>(u.data_corruptions),
      static_cast<unsigned long long>(report.downstream.switch_dropped_fec),
      static_cast<unsigned long long>(report.upstream.switch_dropped_fec));
  return buf;
}

}  // namespace rxl::transport
