// Unified metrics registry: every counter the fabric records, under one
// stable hierarchical namespace.
//
// Naming scheme (dot-separated, all lowercase, ids in declaration order):
//   flow.<f>.<field>                 scoreboard + latency per DagFlow
//   endpoint.n<node>.s<seg>.<field>  one hop termination (link stats,
//                                    extra stats, vc<k>.consumed/returned)
//   wire.s<seg>.fwd|rev.<field>      the hop's channels
//   relay.n<node>.p<port>.<field>    relay port counters (vc<k>.high_water)
//   hub.n<node>.<field>              transparent-switch counters
//   fabric.<aggregate>               DagReport aggregate methods
//
// The registry is an insertion-ordered vector, and registration order is a
// pure function of the topology (flows, then hops, then relays, then hubs,
// then aggregates), so collect_metrics() output is bit-identical for any
// sim::run_trials worker count.
//
// Completeness is pinned at compile time: src/obs/metrics.cpp
// static_asserts sizeof() of every registered counter struct against its
// registered field count, so adding a counter field without registering it
// fails the build (and the obs tests re-count at runtime).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rxl/link/link_layer.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/switchdev/port_switch.hpp"
#include "rxl/switchdev/relay_switch.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/txn/scoreboard.hpp"

namespace rxl::obs {

struct Metric {
  std::string name;
  std::uint64_t value = 0;

  [[nodiscard]] bool operator==(const Metric&) const = default;
};

/// Insertion-ordered name -> value registry. Not a hot-path type: it is
/// built once per report, after the simulation has finished.
class MetricsRegistry {
 public:
  /// Metrics registered per counter struct. The definitions in metrics.cpp
  /// static_assert these against sizeof(struct), so a new counter field
  /// cannot ship unregistered.
  static constexpr std::size_t kEndpointMetricCount = 13;
  static constexpr std::size_t kEndpointExtraMetricCount = 17;
  static constexpr std::size_t kRelayPortMetricCount = 9 + link::kMaxVcs;
  static constexpr std::size_t kChannelMetricCount = 5;
  static constexpr std::size_t kHubMetricCount = 7;
  static constexpr std::size_t kScoreboardMetricCount = 8;
  /// DagReport scalar aggregates (22 methods + misrouted + slots) plus the
  /// merged-latency summary (count/p50/p99/p999/max).
  static constexpr std::size_t kFabricMetricCount = 24 + 5;

  void add(std::string name, std::uint64_t value);

  /// Per-struct registration under `prefix` (no trailing dot).
  void add_endpoint(const std::string& prefix, const link::EndpointStats& s);
  void add_endpoint_extra(const std::string& prefix,
                          const transport::EndpointExtraStats& s);
  void add_relay_port(const std::string& prefix,
                      const switchdev::RelayPortStats& s);
  void add_channel(const std::string& prefix, const sim::ChannelStats& s);
  void add_hub(const std::string& prefix, const switchdev::PortSwitchStats& s);
  void add_scoreboard(const std::string& prefix,
                      const txn::StreamScoreboard::Stats& s);

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }

  /// "name,value\n" lines in registration order.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<Metric> metrics_;
};

/// Registers every counter in the report under the scheme above.
[[nodiscard]] MetricsRegistry collect_metrics(const transport::DagReport& report);

}  // namespace rxl::obs
