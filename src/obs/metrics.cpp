#include "rxl/obs/metrics.hpp"

#include <utility>

namespace rxl::obs {

namespace {

// Registration completeness, pinned at compile time: every struct consumed
// below must be exactly its registered fields, each one std::uint64_t (or
// TimePs, same width). Adding a counter field without extending the
// matching add_* helper (and the count constant in metrics.hpp) changes
// sizeof and fails these asserts.
static_assert(sizeof(link::EndpointStats) ==
                  MetricsRegistry::kEndpointMetricCount * sizeof(std::uint64_t),
              "link::EndpointStats field added: register it in add_endpoint");
static_assert(sizeof(transport::EndpointExtraStats) ==
                  MetricsRegistry::kEndpointExtraMetricCount *
                      sizeof(std::uint64_t),
              "EndpointExtraStats field added: register it in "
              "add_endpoint_extra");
static_assert(sizeof(switchdev::RelayPortStats) ==
                  MetricsRegistry::kRelayPortMetricCount * sizeof(std::uint64_t),
              "RelayPortStats field added: register it in add_relay_port");
static_assert(sizeof(sim::ChannelStats) ==
                  MetricsRegistry::kChannelMetricCount * sizeof(std::uint64_t),
              "ChannelStats field added: register it in add_channel");
static_assert(sizeof(switchdev::PortSwitchStats) ==
                  MetricsRegistry::kHubMetricCount * sizeof(std::uint64_t),
              "PortSwitchStats field added: register it in add_hub");
static_assert(sizeof(txn::StreamScoreboard::Stats) ==
                  MetricsRegistry::kScoreboardMetricCount *
                      sizeof(std::uint64_t),
              "StreamScoreboard::Stats field added: register it in "
              "add_scoreboard");

// Dotted-name assembly via += appends (never operator+ chains): GCC 12's
// -Wrestrict false-positives on chained string operator+ at -O2 under
// -Werror (see sim/stats.hpp::interval_str).
std::string join(const std::string& prefix, const char* field) {
  std::string name = prefix;
  name += '.';
  name += field;
  return name;
}

void add_latency_summary(MetricsRegistry& registry, const std::string& prefix,
                         const stats::LatencyHistogram& latency) {
  registry.add(join(prefix, "latency.count"), latency.count());
  registry.add(join(prefix, "latency.p50"), latency.p50());
  registry.add(join(prefix, "latency.p99"), latency.p99());
  registry.add(join(prefix, "latency.p999"), latency.p999());
  registry.add(join(prefix, "latency.max"), latency.max());
}

}  // namespace

void MetricsRegistry::add(std::string name, std::uint64_t value) {
  metrics_.push_back(Metric{std::move(name), value});
}

void MetricsRegistry::add_endpoint(const std::string& prefix,
                                   const link::EndpointStats& s) {
  add(join(prefix, "data_flits_sent"), s.data_flits_sent);
  add(join(prefix, "retries"), s.data_flits_retransmitted);
  add(join(prefix, "control_flits_sent"), s.control_flits_sent);
  add(join(prefix, "acks_piggybacked"), s.acks_piggybacked);
  add(join(prefix, "nacks_sent"), s.nacks_sent);
  add(join(prefix, "flits_received"), s.flits_received);
  add(join(prefix, "flits_delivered"), s.flits_delivered);
  add(join(prefix, "discarded_crc"), s.flits_discarded_crc);
  add(join(prefix, "discarded_fec"), s.flits_discarded_fec);
  add(join(prefix, "discarded_seq"), s.flits_discarded_seq);
  add(join(prefix, "fec_corrected"), s.fec_corrected_flits);
  add(join(prefix, "retry_rounds"), s.retry_rounds);
  add(join(prefix, "tx_stalls"), s.tx_stalls);
}

void MetricsRegistry::add_endpoint_extra(
    const std::string& prefix, const transport::EndpointExtraStats& s) {
  add(join(prefix, "unchecked_deliveries"), s.unchecked_deliveries);
  add(join(prefix, "stale_discards"), s.stale_discards);
  add(join(prefix, "retry_timeouts"), s.retry_timeouts);
  add(join(prefix, "ack_timeout_flushes"), s.ack_timeout_flushes);
  add(join(prefix, "forward_resyncs"), s.forward_resyncs);
  add(join(prefix, "credit_stalls"), s.credit_stalls);
  add(join(prefix, "credits_consumed"), s.credits_consumed);
  add(join(prefix, "credits_granted"), s.credits_granted);
  add(join(prefix, "credits_returned"), s.credits_returned);
  add(join(prefix, "credit_adverts"), s.credit_adverts);
  add(join(prefix, "credit_probes"), s.credit_probes);
  add(join(prefix, "ecn_marks_seen"), s.ecn_marks_seen);
  add(join(prefix, "ecn_stalls"), s.ecn_stalls);
  add(join(prefix, "hops_declared_dead"), s.hops_declared_dead);
  add(join(prefix, "dead_flits_drained"), s.dead_flits_drained);
  add(join(prefix, "credits_refunded"), s.credits_refunded);
  add(join(prefix, "flap_recoveries"), s.flap_recoveries);
}

void MetricsRegistry::add_relay_port(const std::string& prefix,
                                     const switchdev::RelayPortStats& s) {
  add(join(prefix, "relayed_in"), s.relayed_in);
  add(join(prefix, "relayed_out"), s.relayed_out);
  add(join(prefix, "dropped_no_route"), s.dropped_no_route);
  add(join(prefix, "max_queue_depth"), s.max_queue_depth);
  add(join(prefix, "ingress_high_water"), s.ingress_high_water);
  add(join(prefix, "queue_occupancy"), s.queue_occupancy);
  add(join(prefix, "credit_stalls"), s.credit_stalls);
  for (std::size_t vc = 0; vc < link::kMaxVcs; ++vc) {
    std::string name = prefix;
    name += ".vc";
    name += std::to_string(vc);
    name += ".high_water";
    add(std::move(name), s.vc_ingress_high_water[vc]);
  }
  add(join(prefix, "ecn_mark_events"), s.ecn_mark_events);
  add(join(prefix, "ecn_clear_events"), s.ecn_clear_events);
}

void MetricsRegistry::add_channel(const std::string& prefix,
                                  const sim::ChannelStats& s) {
  add(join(prefix, "flits_carried"), s.flits_carried);
  add(join(prefix, "flits_corrupted"), s.flits_corrupted);
  add(join(prefix, "bits_flipped"), s.bits_flipped);
  add(join(prefix, "flits_blackholed"), s.flits_blackholed);
  add(join(prefix, "busy_time"), s.busy_time);
}

void MetricsRegistry::add_hub(const std::string& prefix,
                              const switchdev::PortSwitchStats& s) {
  add(join(prefix, "flits_in"), s.flits_in);
  add(join(prefix, "flits_forwarded"), s.flits_forwarded);
  add(join(prefix, "dropped_fec"), s.dropped_fec);
  add(join(prefix, "dropped_crc"), s.dropped_crc);
  add(join(prefix, "dropped_no_route"), s.dropped_no_route);
  add(join(prefix, "fec_corrected"), s.fec_corrected);
  add(join(prefix, "internal_corruptions"), s.internal_corruptions);
}

void MetricsRegistry::add_scoreboard(const std::string& prefix,
                                     const txn::StreamScoreboard::Stats& s) {
  add(join(prefix, "delivered"), s.delivered);
  add(join(prefix, "in_order"), s.in_order);
  add(join(prefix, "order_violations"), s.order_violations);
  add(join(prefix, "duplicates"), s.duplicates);
  add(join(prefix, "late_deliveries"), s.late_deliveries);
  add(join(prefix, "data_corruptions"), s.data_corruptions);
  add(join(prefix, "untracked"), s.untracked);
  add(join(prefix, "missing"), s.missing);
}

std::string MetricsRegistry::to_csv() const {
  std::string out;
  out += "metric,value\n";
  for (const Metric& metric : metrics_) {
    out += metric.name;
    out += ',';
    out += std::to_string(metric.value);
    out += '\n';
  }
  return out;
}

MetricsRegistry collect_metrics(const transport::DagReport& report) {
  MetricsRegistry registry;

  for (std::size_t f = 0; f < report.flows.size(); ++f) {
    const transport::DagFlowReport& flow = report.flows[f];
    std::string prefix = "flow.";
    prefix += std::to_string(f);
    registry.add(join(prefix, "offered"), flow.offered);
    registry.add_scoreboard(prefix, flow.scoreboard);
    registry.add(join(prefix, "rerouted"), flow.rerouted ? 1 : 0);
    registry.add(join(prefix, "latency_sample_misses"),
                 flow.latency_sample_misses);
    add_latency_summary(registry, prefix, flow.latency);
  }

  for (const transport::DagLinkStats& hop : report.hops) {
    std::string suffix = ".s";
    suffix += std::to_string(hop.segment);
    for (int side = 0; side < 2; ++side) {
      std::string prefix = "endpoint.n";
      prefix += std::to_string(side == 0 ? hop.node_a : hop.node_b);
      prefix += suffix;
      registry.add_endpoint(prefix, side == 0 ? hop.a : hop.b);
      registry.add_endpoint_extra(prefix,
                                  side == 0 ? hop.a_extra : hop.b_extra);
      const auto& consumed = side == 0 ? hop.a_vc_consumed : hop.b_vc_consumed;
      const auto& returned = side == 0 ? hop.a_vc_returned : hop.b_vc_returned;
      for (std::size_t vc = 0; vc < link::kMaxVcs; ++vc) {
        std::string vc_prefix = prefix;
        vc_prefix += ".vc";
        vc_prefix += std::to_string(vc);
        registry.add(join(vc_prefix, "consumed"), consumed[vc]);
        registry.add(join(vc_prefix, "returned"), returned[vc]);
      }
    }
    std::string wire_prefix = "wire";
    wire_prefix += suffix;
    registry.add_channel(join(wire_prefix, "fwd"), hop.forward_channel);
    registry.add_channel(join(wire_prefix, "rev"), hop.reverse_channel);
  }

  for (const transport::DagRelayReport& relay : report.relays) {
    for (std::size_t p = 0; p < relay.ports.size(); ++p) {
      std::string prefix = "relay.n";
      prefix += std::to_string(relay.node);
      prefix += ".p";
      prefix += std::to_string(p);
      registry.add_relay_port(prefix, relay.ports[p].stats);
    }
  }

  for (const transport::DagHubReport& hub : report.hubs) {
    std::string prefix = "hub.n";
    prefix += std::to_string(hub.node);
    registry.add_hub(prefix, hub.stats);
  }

  registry.add("fabric.offered", report.total_offered());
  registry.add("fabric.in_order", report.total_in_order());
  registry.add("fabric.order_failures", report.total_order_failures());
  registry.add("fabric.missing", report.total_missing());
  registry.add("fabric.data_corruptions", report.total_data_corruptions());
  registry.add("fabric.hop_retransmissions", report.total_hop_retransmissions());
  registry.add("fabric.relay_no_route_drops",
               report.total_relay_no_route_drops());
  registry.add("fabric.credit_stalls", report.total_credit_stalls());
  registry.add("fabric.credits_consumed", report.total_credits_consumed());
  registry.add("fabric.credits_returned", report.total_credits_returned());
  registry.add("fabric.credits_granted", report.total_credits_granted());
  registry.add("fabric.max_ingress_occupancy", report.max_ingress_occupancy());
  registry.add("fabric.max_relay_queue_depth", report.max_relay_queue_depth());
  registry.add("fabric.ecn_mark_events", report.total_ecn_mark_events());
  registry.add("fabric.ecn_stalls", report.total_ecn_stalls());
  registry.add("fabric.hops_declared_dead", report.total_hops_declared_dead());
  registry.add("fabric.dead_flits_drained", report.total_dead_flits_drained());
  registry.add("fabric.credits_refunded", report.total_credits_refunded());
  registry.add("fabric.flap_recoveries", report.total_flap_recoveries());
  registry.add("fabric.flits_blackholed", report.total_flits_blackholed());
  registry.add("fabric.reroutes_executed", report.total_reroutes_executed());
  registry.add("fabric.latency_sample_misses",
               report.total_latency_sample_misses());
  registry.add("fabric.misrouted", report.misrouted);
  registry.add("fabric.slots", report.slots);
  add_latency_summary(registry, "fabric", report.merged_latency());

  return registry;
}

}  // namespace rxl::obs
