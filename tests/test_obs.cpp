// Observability-layer tests: trace-ring overrun accounting, registry
// completeness re-counts against the compile-time pinned constants,
// trace-on/trace-off trajectory equality, capture determinism, and the
// journey reconstruction's exact-partition invariant (per-hop attribution
// buckets sum to the histogram-recorded end-to-end latency, sample for
// sample).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rxl/obs/export.hpp"
#include "rxl/obs/metrics.hpp"
#include "rxl/obs/trace.hpp"
#include "rxl/transport/dag_fabric.hpp"

namespace rxl {
namespace {

obs::TraceEvent event_at(TimePs at) {
  obs::TraceEvent event;
  event.at = at;
  event.kind = obs::TraceEventKind::kTx;
  return event;
}

TEST(TraceRing, OverrunAccountingKeepsNewestAndCountsLoss) {
  obs::TraceRing ring(4);
  for (TimePs t = 0; t < 7; ++t) ring.record(event_at(t));

  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.overruns(), 3u);  // events 0,1,2 overwritten, accounted
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring.at(i).at, static_cast<TimePs>(3 + i)) << i;

  const std::vector<obs::TraceEvent> copy = ring.snapshot();
  ASSERT_EQ(copy.size(), 4u);
  for (std::size_t i = 0; i < copy.size(); ++i)
    EXPECT_EQ(copy[i], ring.at(i)) << i;
}

TEST(TraceRing, BelowCapacityLosesNothing) {
  obs::TraceRing ring(8);
  for (TimePs t = 0; t < 5; ++t) ring.record(event_at(t));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.overruns(), 0u);
  EXPECT_EQ(ring.at(0).at, 0u);
  EXPECT_EQ(ring.at(4).at, 4u);
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  obs::TraceRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.record(event_at(10));
  ring.record(event_at(20));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.overruns(), 1u);
  EXPECT_EQ(ring.at(0).at, 20u);
}

TEST(TraceSink, RoutesByComponentAndStampsId) {
  obs::TraceSink sink(4);
  const std::uint16_t src = sink.add_component("src");
  const std::uint16_t dst = sink.add_component("dst");

  obs::TraceEvent event = event_at(7);
  event.component = 999;  // record() overwrites with the routed id
  sink.record(dst, event);

  const obs::TraceCapture capture = sink.capture();
  ASSERT_EQ(capture.components.size(), 2u);
  EXPECT_EQ(capture.components[src].name, "src");
  EXPECT_EQ(capture.components[dst].name, "dst");
  EXPECT_TRUE(capture.components[src].events.empty());
  ASSERT_EQ(capture.components[dst].events.size(), 1u);
  EXPECT_EQ(capture.components[dst].events[0].component, dst);
  EXPECT_EQ(capture.total_events(), 1u);
  EXPECT_EQ(capture.total_overruns(), 0u);
}

TEST(TraceSink, CaptureAccumulatesOverrunsAcrossComponents) {
  obs::TraceSink sink(2);
  const std::uint16_t a = sink.add_component("a");
  const std::uint16_t b = sink.add_component("b");
  for (TimePs t = 0; t < 5; ++t) sink.record(a, event_at(t));
  for (TimePs t = 0; t < 3; ++t) sink.record(b, event_at(t));
  const obs::TraceCapture capture = sink.capture();
  EXPECT_EQ(capture.total_overruns(), 3u + 1u);
  EXPECT_EQ(capture.components[a].overruns, 3u);
  EXPECT_EQ(capture.components[b].overruns, 1u);
  EXPECT_EQ(capture.total_events(), 4u);  // both rings retain capacity
}

TEST(TraceEventKinds, NamesAreDistinctAndExhaustive) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < obs::kTraceEventKindCount; ++k)
    names.insert(obs::trace_event_kind_name(
        static_cast<obs::TraceEventKind>(k)));
  EXPECT_EQ(names.size(), obs::kTraceEventKindCount);
}

// ---------------------------------------------------------------------------
// Metrics registry: the runtime half of the completeness pin. metrics.cpp
// static_asserts sizeof(struct) against the registered field count at
// compile time; these re-count the registered names per prefix so the two
// can never drift apart silently.

/// Number of registered metrics whose name starts with `prefix`.
std::size_t metrics_under(const obs::MetricsRegistry& registry,
                          std::string_view prefix) {
  return static_cast<std::size_t>(
      std::count_if(registry.metrics().begin(), registry.metrics().end(),
                    [&](const obs::Metric& metric) {
                      return metric.name.starts_with(prefix);
                    }));
}

/// The value registered under `name`, or nullptr when absent.
const std::uint64_t* value_of(const obs::MetricsRegistry& registry,
                              std::string_view name) {
  for (const obs::Metric& metric : registry.metrics())
    if (metric.name == name) return &metric.value;
  return nullptr;
}

TEST(MetricsRegistry, PerStructCountsMatchPinnedConstants) {
  obs::MetricsRegistry registry;
  registry.add_endpoint("ep", link::EndpointStats{});
  registry.add_endpoint_extra("ex", transport::EndpointExtraStats{});
  registry.add_relay_port("rp", switchdev::RelayPortStats{});
  registry.add_channel("ch", sim::ChannelStats{});
  registry.add_hub("hub", switchdev::PortSwitchStats{});
  registry.add_scoreboard("sb", txn::StreamScoreboard::Stats{});

  EXPECT_EQ(metrics_under(registry, "ep."),
            obs::MetricsRegistry::kEndpointMetricCount);
  EXPECT_EQ(metrics_under(registry, "ex."),
            obs::MetricsRegistry::kEndpointExtraMetricCount);
  EXPECT_EQ(metrics_under(registry, "rp."),
            obs::MetricsRegistry::kRelayPortMetricCount);
  EXPECT_EQ(metrics_under(registry, "ch."),
            obs::MetricsRegistry::kChannelMetricCount);
  EXPECT_EQ(metrics_under(registry, "hub."),
            obs::MetricsRegistry::kHubMetricCount);
  EXPECT_EQ(metrics_under(registry, "sb."),
            obs::MetricsRegistry::kScoreboardMetricCount);
  EXPECT_EQ(registry.size(), obs::MetricsRegistry::kEndpointMetricCount +
                                 obs::MetricsRegistry::kEndpointExtraMetricCount +
                                 obs::MetricsRegistry::kRelayPortMetricCount +
                                 obs::MetricsRegistry::kChannelMetricCount +
                                 obs::MetricsRegistry::kHubMetricCount +
                                 obs::MetricsRegistry::kScoreboardMetricCount);
}

TEST(MetricsRegistry, CsvListsMetricsInRegistrationOrder) {
  obs::MetricsRegistry registry;
  registry.add("x.one", 13);
  registry.add("x.two", 6);
  EXPECT_EQ(registry.to_csv(), "metric,value\nx.one,13\nx.two,6\n");
}

// ---------------------------------------------------------------------------
// Fabric-level properties. One small traced chain scenario (two relays,
// burst errors, credits on) exercises every emission site cheaply.

transport::DagConfig chain_config(bool traced) {
  transport::DagScenarioSpec spec;
  spec.protocol.protocol = transport::Protocol::kRxl;
  spec.protocol.coalesce_factor = 10;
  spec.burst_injection_rate = 1e-3;
  spec.seed = 311;
  spec.hop_credits = 8;
  spec.sample_latency = true;
  spec.flits_per_flow = 48;
  spec.horizon = 50'000'000;
  transport::DagConfig config = transport::make_chain_dag(spec, 2);
  config.debug_latency_samples = true;
  if (traced) {
    config.trace.enabled = true;
    config.trace.ring_depth = 1u << 14;
    config.trace.sample_period = 1'000'000;
  }
  return config;
}

TEST(TraceFabric, TracingDoesNotPerturbTheTrajectory) {
  const transport::DagReport off = run_dag_fabric(chain_config(false));
  const transport::DagReport on = run_dag_fabric(chain_config(true));

  // Every counter the fabric records, compared through the unified
  // registry: one mismatch anywhere is a determinism-contract break.
  const obs::MetricsRegistry moff = obs::collect_metrics(off);
  const obs::MetricsRegistry mon = obs::collect_metrics(on);
  ASSERT_EQ(moff.size(), mon.size());
  EXPECT_TRUE(moff.metrics() == mon.metrics());

  // The raw per-delivery latency samples too: identical draw order means
  // identical delivery times, not just identical totals.
  ASSERT_EQ(off.flows.size(), on.flows.size());
  for (std::size_t f = 0; f < off.flows.size(); ++f)
    EXPECT_EQ(off.flows[f].latency_samples, on.flows[f].latency_samples) << f;

  EXPECT_TRUE(off.trace.empty());
  EXPECT_TRUE(off.timeseries.empty());
  EXPECT_FALSE(on.trace.empty());
  EXPECT_GT(on.trace.total_events(), 0u);
}

TEST(TraceFabric, CaptureIsDeterministicAcrossRuns) {
  const transport::DagReport first = run_dag_fabric(chain_config(true));
  const transport::DagReport second = run_dag_fabric(chain_config(true));
  EXPECT_TRUE(first.trace == second.trace);
  EXPECT_TRUE(first.timeseries == second.timeseries);
}

TEST(TraceFabric, ComponentRegistrationOrderIsStableAndNamed) {
  const transport::DagReport report = run_dag_fabric(chain_config(true));
  ASSERT_FALSE(report.trace.components.empty());
  // Terminal endpoints first, then relay ports/fabrics, wires, control
  // wires — all named, no duplicates.
  std::set<std::string> names;
  for (const obs::TraceComponentCapture& component : report.trace.components) {
    EXPECT_FALSE(component.name.empty());
    EXPECT_TRUE(names.insert(component.name).second)
        << "duplicate component " << component.name;
  }
}

TEST(TraceFabric, JourneyPartitionMatchesHistogramSampleExactly) {
  const transport::DagConfig config = chain_config(true);
  const transport::DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.flows.size(), 1u);
  const transport::DagFlowReport& flow = report.flows[0];
  ASSERT_GT(flow.latency_samples.size(), 0u);
  // In-order acceptance on every hop: the i-th delivery is truth index i.
  ASSERT_EQ(flow.scoreboard.in_order, flow.scoreboard.delivered);

  std::size_t verified = 0;
  for (std::size_t i = 0; i < flow.latency_samples.size(); ++i) {
    const obs::FlitJourney journey =
        obs::reconstruct_journey(report.trace, 0, i);
    ASSERT_TRUE(journey.complete) << "truth " << i;
    EXPECT_FALSE(journey.dropped);

    // The journey's end-to-end latency IS the histogram's sample: both
    // measure inject due time -> sink delivery in sim time.
    EXPECT_EQ(journey.total(), flow.latency_samples[i]) << "truth " << i;

    // Exact partition per hop, telescoping across hops.
    TimePs previous_edge = journey.inject;
    TimePs summed = 0;
    for (const obs::JourneyHop& hop : journey.hops) {
      EXPECT_EQ(hop.ready, previous_edge);
      EXPECT_EQ(hop.queue_wait + hop.credit_stall + hop.retry_time +
                    hop.wire_time,
                hop.delivered - hop.ready);
      summed += hop.queue_wait + hop.credit_stall + hop.retry_time +
                hop.wire_time;
      previous_edge = hop.delivered;
    }
    EXPECT_EQ(previous_edge, journey.delivered);
    EXPECT_EQ(summed, journey.total()) << "truth " << i;
    EXPECT_EQ(journey.total_queue_wait() + journey.total_credit_stall() +
                  journey.total_retry_time() + journey.total_wire_time(),
              journey.total());
    verified += 1;
  }
  EXPECT_EQ(verified, flow.latency_samples.size());
}

/// CXL pairs through a lossy hub: the scoreboards see duplicates, late
/// deliveries and deliveries past a gap, which are not in-order goodput.
transport::DagConfig lossy_cxl_star_config() {
  transport::StarConfig star;
  star.protocol.protocol = transport::Protocol::kCxl;
  star.pairs = 4;
  star.flits_per_direction = 3'000;
  star.burst_injection_rate = 3e-3;
  star.seed = 7;
  star.horizon = 40'000'000;
  transport::DagConfig config = transport::make_star_dag(star);
  config.trace.enabled = true;
  config.trace.sample_period = 1'000'000;
  return config;
}

TEST(TraceFabric, TimeSeriesSamplerIsMonotonicSimTime) {
  for (const transport::DagConfig& config :
       {chain_config(true), lossy_cxl_star_config()}) {
    const transport::DagReport report = run_dag_fabric(config);
    ASSERT_FALSE(report.timeseries.empty());
    TimePs last_at = 0;
    std::uint64_t last_delivered = 0;
    for (const obs::TimeSeriesPoint& point : report.timeseries) {
      EXPECT_GE(point.at, last_at);
      EXPECT_GE(point.delivered, last_delivered);
      last_at = point.at;
      last_delivered = point.delivered;
    }
    // The goodput column counts in-order deliveries only.
    EXPECT_LE(last_delivered, report.total_in_order());
  }
}

TEST(TraceFabric, ExportShapesAreWellFormed) {
  const transport::DagReport report = run_dag_fabric(chain_config(true));

  const std::string json = obs::chrome_trace_json(
      std::span<const obs::TraceCapture>(&report.trace, 1));
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  const std::string csv = obs::trace_csv(report.trace);
  EXPECT_EQ(csv.rfind("component,name,at_ps,kind,flow,truth,seq,vc,arg", 0),
            0u);
  // Header plus one line per retained event.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, 1u + report.trace.total_events());

  const std::string summary = obs::trace_summary(report.trace);
  EXPECT_NE(summary.find("component"), std::string::npos);
}

TEST(TraceFabric, CollectMetricsCoversEveryAggregate) {
  const transport::DagReport report = run_dag_fabric(chain_config(true));
  const obs::MetricsRegistry registry = obs::collect_metrics(report);
  EXPECT_EQ(metrics_under(registry, "fabric."),
            obs::MetricsRegistry::kFabricMetricCount);
  ASSERT_NE(value_of(registry, "fabric.in_order"), nullptr);
  EXPECT_EQ(*value_of(registry, "fabric.in_order"), report.total_in_order());
  ASSERT_NE(value_of(registry, "fabric.latency.count"), nullptr);
  EXPECT_EQ(*value_of(registry, "fabric.latency.count"),
            report.merged_latency().count());
  // Per-flow: offered + scoreboard + rerouted + sample_misses + the
  // 5-entry latency summary.
  EXPECT_EQ(metrics_under(registry, "flow.0."),
            obs::MetricsRegistry::kScoreboardMetricCount + 3 + 5);
}

TEST(TraceFabric, RelayIngressDeliverCarriesTheFlitsVc) {
  // A flit carries its flow's VC from the source, so the relay's ingress
  // port logs each delivery on the VC its source sent it on (a per-flow
  // table at the relay would have to be wired to agree).
  transport::DagScenarioSpec spec;
  spec.protocol.protocol = transport::Protocol::kRxl;
  spec.flits_per_flow = 50;
  spec.seed = 29;
  spec.hop_credits = 4;
  spec.horizon = 50'000'000;
  const std::array<transport::DagFlowClass, 4> classes{
      {{0, 1, 0, 0}, {1, 1, 0, 0}, {2, 1, 0, 0}, {3, 1, 0, 0}}};
  transport::DagConfig config = transport::make_incast_dag(spec, 4, classes);
  config.trace.enabled = true;
  config.trace.ring_depth = 1u << 14;
  const transport::DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.total_in_order(), 4u * 50u);

  std::vector<std::string> relay_ports;
  for (const transport::DagNode& node : config.nodes)
    if (node.kind == transport::DagNodeKind::kRelay)
      relay_ports.push_back(node.name + ".p");
  const auto is_relay_port = [&](const std::string& name) {
    return std::any_of(relay_ports.begin(), relay_ports.end(),
                       [&](const std::string& prefix) {
                         return name.starts_with(prefix);
                       });
  };
  // The VC each flow's source sends on, from its kTx events.
  std::array<int, 4> tx_vc{-1, -1, -1, -1};
  for (const obs::TraceComponentCapture& component : report.trace.components) {
    EXPECT_EQ(component.overruns, 0u) << component.name;
    if (is_relay_port(component.name)) continue;
    for (const obs::TraceEvent& event : component.events) {
      if (event.kind != obs::TraceEventKind::kTx) continue;
      ASSERT_LT(event.flow, tx_vc.size()) << component.name;
      int& vc = tx_vc[event.flow];
      if (vc < 0) vc = event.vc;
      EXPECT_EQ(event.vc, vc) << component.name;
    }
  }
  for (std::size_t f = 0; f < tx_vc.size(); ++f)
    EXPECT_EQ(tx_vc[f], static_cast<int>(config.flows[f].vc)) << "flow " << f;

  std::array<std::uint64_t, 4> relay_delivers{};
  for (const obs::TraceComponentCapture& component : report.trace.components) {
    if (!is_relay_port(component.name)) continue;
    for (const obs::TraceEvent& event : component.events) {
      if (event.kind != obs::TraceEventKind::kDeliver) continue;
      ASSERT_LT(event.flow, tx_vc.size()) << component.name;
      EXPECT_EQ(static_cast<int>(event.vc), tx_vc[event.flow])
          << component.name << " flow " << event.flow;
      relay_delivers[event.flow] += 1;
    }
  }
  // Every flow, those on VCs 1-3 included, crossed a relay ingress port.
  for (std::size_t f = 0; f < relay_delivers.size(); ++f)
    EXPECT_EQ(relay_delivers[f], 50u) << "flow " << f;
}

TEST(TraceFabric, DropsAttributeTheFlitTheyDrop) {
  // A drop is booked from the dropped flit's own tags: a data flit keeps
  // its flow, stream position and VC, and a control flit, which belongs to
  // no stream, is booked to kTraceNoFlow. No flow rides VC 0 here, so a
  // drop logged on VC 0, or a control flit booked to flow 0, shows up as a
  // VC mismatch. Burst errors drop flits of both kinds at the endpoints,
  // and a down window on the shared sink hop (edge 4) black-holes both
  // kinds on its wires.
  transport::DagScenarioSpec spec;
  spec.protocol.protocol = transport::Protocol::kRxl;
  spec.flits_per_flow = 200;
  spec.seed = 29;
  spec.hop_credits = 4;
  spec.burst_injection_rate = 2e-2;
  spec.horizon = 200'000'000;
  spec.egress_policy = switchdev::EgressPolicy::kDrr;
  const std::array<transport::DagFlowClass, 4> classes{
      {{1, 1, 0, 0}, {2, 2, 0, 0}, {3, 3, 0, 0}, {4, 4, 0, 0}}};
  transport::DagConfig config = transport::make_incast_dag(spec, 4, classes);
  config.faults.edge(4).add_window(500'000, 2'500'000);
  config.trace.enabled = true;
  config.trace.ring_depth = 1u << 15;
  const transport::DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.total_in_order(), 4u * 200u);

  // [data flit, control flit] drops, at endpoints and on wires.
  std::array<std::uint64_t, 2> endpoint_drops{};
  std::array<std::uint64_t, 2> wire_drops{};
  for (const obs::TraceComponentCapture& component : report.trace.components) {
    EXPECT_EQ(component.overruns, 0u) << component.name;
    for (const obs::TraceEvent& event : component.events) {
      if (event.kind != obs::TraceEventKind::kDrop) continue;
      const bool control = event.flow == obs::kTraceNoFlow;
      if (control) {
        EXPECT_EQ(event.vc, 0u) << component.name;
        EXPECT_EQ(event.truth_index, 0u) << component.name;
      } else {
        ASSERT_LT(event.flow, config.flows.size()) << component.name;
        EXPECT_EQ(static_cast<int>(event.vc),
                  static_cast<int>(config.flows[event.flow].vc))
            << component.name << " flow " << event.flow;
        EXPECT_LT(event.truth_index, spec.flits_per_flow) << component.name;
      }
      std::array<std::uint64_t, 2>& drops =
          event.arg == obs::kDropBlackhole ? wire_drops : endpoint_drops;
      drops[control ? 1 : 0] += 1;
    }
  }
  for (std::size_t kind = 0; kind < 2; ++kind) {
    EXPECT_GT(endpoint_drops[kind], 0u) << (kind == 0 ? "data" : "control");
    EXPECT_GT(wire_drops[kind], 0u) << (kind == 0 ? "data" : "control");
  }
}

}  // namespace
}  // namespace rxl
