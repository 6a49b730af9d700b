#include "rxl/transport/dag_fabric.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rxl/link/credit.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/transport/traffic.hpp"

namespace rxl::transport {
namespace {

/// Symbols per injected burst on every edge (DagEdge::burst_injection_rate):
/// one past the flit FEC's 3-symbol correction limit (§2.5).
constexpr std::size_t kBurstSymbols = 4;

template <typename Part>
void append_part(std::string& message, const Part& part) {
  if constexpr (std::is_integral_v<Part>) {
    message += std::to_string(part);  // a std::uint8_t VC prints as a number
  } else {
    message += part;
  }
}

/// Rejects a DagConfig: the message is `parts` (strings, C strings and
/// integers) appended in order (appends, not operator+ chains, which GCC 12
/// -O2/-O3 flags under -Wrestrict).
template <typename... Parts>
[[noreturn]] void invalid(const Parts&... parts) {
  std::string message;
  (append_part(message, parts), ...);
  throw std::invalid_argument(std::move(message));
}

std::string node_label(const DagConfig& config, std::size_t node) {
  if (node < config.nodes.size() && !config.nodes[node].name.empty())
    return config.nodes[node].name;
  std::string label = "node#";
  label += std::to_string(node);
  return label;
}

/// Breadth-first shortest path from `from` to `to`, ties broken by lowest
/// edge id (out-edge lists are in edge-id order, so the first edge to reach
/// a node wins). Traffic transits no terminal but `from` and takes no edge
/// that `doomed` marks (an empty span marks none). Returns the path's edges
/// in order, or no edges when `to` is unreachable.
std::vector<std::uint16_t> shortest_path(
    const DagConfig& config,
    const std::vector<std::vector<std::uint16_t>>& out_edges,
    std::uint16_t from, std::uint16_t to,
    std::span<const std::uint8_t> doomed) {
  const std::size_t n = config.nodes.size();
  std::vector<std::int32_t> parent_edge(n, -1);
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<std::uint16_t> frontier{from};
  visited[from] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::uint16_t u = frontier[head];
    if (u != from && config.nodes[u].kind == DagNodeKind::kTerminal) continue;
    for (const std::uint16_t e : out_edges[u]) {
      if (!doomed.empty() && doomed[e] != 0) continue;
      const std::uint16_t w = config.edges[e].dst;
      if (visited[w]) continue;
      visited[w] = 1;
      parent_edge[w] = static_cast<std::int32_t>(e);
      frontier.push_back(w);
    }
  }
  std::vector<std::uint16_t> path;
  if (!visited[to]) return path;
  for (std::uint16_t v = to; v != from;) {
    const std::int32_t e = parent_edge[v];
    assert(e >= 0);
    path.push_back(static_cast<std::uint16_t>(e));
    v = config.edges[static_cast<std::size_t>(e)].src;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// The fault compiler: fills DagPlan::failed and DagPlan::edge_faults from
/// a validated fault plan.
void compile_faults(const DagConfig& config, DagPlan& plan) {
  plan.failed.assign(config.nodes.size(), 0);
  if (config.faults.empty()) return;
  plan.edge_faults = config.faults.edges;
  plan.edge_faults.resize(config.edges.size());
  for (const sim::RelayFailStop& failure : config.faults.relay_failures) {
    plan.failed[failure.node] = 1;
    for (std::size_t e = 0; e < config.edges.size(); ++e) {
      if (config.edges[e].src == failure.node ||
          config.edges[e].dst == failure.node)
        plan.edge_faults[e].add_window(failure.at, 0);
    }
  }
  for (sim::LinkFaultSchedule& schedule : plan.edge_faults)
    schedule.normalize();
}

}  // namespace

// ---------------------------------------------------------------------------
// Validation + routing plan
// ---------------------------------------------------------------------------

DagPlan plan_dag(const DagConfig& config) {
  const std::size_t n = config.nodes.size();
  if (n == 0) invalid("DAG topology has no nodes");
  if (n >= 0xFFFF || config.edges.size() >= 0xFFF0 ||
      config.flows.size() >= 0xFFFF)
    invalid("DAG topology exceeds the 16-bit id space");

  auto kind = [&](std::size_t node) { return config.nodes[node].kind; };
  auto label = [&](std::size_t node) { return node_label(config, node); };

  // Edge sanity + adjacency (out/in lists stay in edge-id order).
  std::vector<std::vector<std::uint16_t>> out_edges(n);
  std::vector<std::vector<std::uint16_t>> in_edges(n);
  for (std::size_t e = 0; e < config.edges.size(); ++e) {
    const DagEdge& edge = config.edges[e];
    if (edge.src >= n || edge.dst >= n)
      invalid("edge ", e, " references a node out of range");
    if (edge.src == edge.dst) invalid("self-edge at ", label(edge.src));
    if (edge.credits.has_value()) {
      // Deadlock safety: the acyclicity check below guarantees progress
      // only if every flow-controlled hop can hold at least one flit
      // (sinks drain unconditionally, so one credit per hop suffices for
      // induction along the acyclic downstream order). A zero-credit hop
      // could never transmit at all.
      if (*edge.credits == 0)
        invalid("edge ", e, " into ", label(edge.dst),
                " declares a zero-credit buffer (the hop could never "
                "transmit); use at least one credit, or leave the edge at "
                "the DagConfig default");
      if (*edge.credits > link::kMaxCreditWindow)
        invalid("edge ", e, " credit window exceeds link::kMaxCreditWindow");
      // A hop's buffer lives at its terminating end, so credits are
      // resolved from the edge INTO the receiving termination. An edge
      // entering a hub never terminates a hop — credits set there would
      // be silently inert, so refuse them instead.
      if (kind(edge.dst) == DagNodeKind::kHub)
        invalid("edge ", e, " enters hub ", label(edge.dst),
                ", which does not terminate the hop; set credits on the "
                "hub's egress edge (into the receiving termination)");
    }
    out_edges[edge.src].push_back(static_cast<std::uint16_t>(e));
    in_edges[edge.dst].push_back(static_cast<std::uint16_t>(e));
  }
  if (config.hop_credits > link::kMaxCreditWindow)
    invalid("hop_credits exceeds link::kMaxCreditWindow");

  // Fault-plan sanity: the plan may address fewer edges than the topology
  // declares (missing tail entries mean "no faults") but never more,
  // fail-stop events must name relay nodes, and every finite down window
  // must have positive length.
  if (config.faults.edges.size() > config.edges.size())
    invalid("fault plan addresses more edges than the topology declares");
  for (std::size_t e = 0; e < config.faults.edges.size(); ++e) {
    for (const sim::FaultWindow& window : config.faults.edges[e].windows()) {
      if (window.up_at != 0 && window.up_at <= window.down_at)
        invalid("fault window on edge ", e, " ends at or before it starts");
    }
  }
  for (const sim::RelayFailStop& failure : config.faults.relay_failures) {
    if (failure.node >= n || kind(failure.node) != DagNodeKind::kRelay)
      invalid("relay fail-stop event at node ", failure.node,
              " does not name a relay");
  }
  {
    std::vector<std::pair<std::uint16_t, std::uint16_t>> pairs;
    pairs.reserve(config.edges.size());
    for (const DagEdge& edge : config.edges)
      pairs.emplace_back(edge.src, edge.dst);
    std::sort(pairs.begin(), pairs.end());
    const auto dup = std::adjacent_find(pairs.begin(), pairs.end());
    if (dup != pairs.end())
      invalid("duplicate edge ", label(dup->first), " -> ", label(dup->second));
  }

  // Per-node-kind constraints.
  for (std::size_t v = 0; v < n; ++v) {
    switch (kind(v)) {
      case DagNodeKind::kTerminal:
        if (out_edges[v].size() > 1)
          invalid("terminal ", label(v), " has more than one uplink edge");
        if (in_edges[v].size() > 1)
          invalid("terminal ", label(v), " has more than one downlink edge");
        break;
      case DagNodeKind::kHub:
        if (out_edges[v].empty() || in_edges[v].empty())
          invalid("hub ", label(v),
                  " needs at least one ingress and one egress edge");
        break;
      case DagNodeKind::kRelay:
        break;
    }
  }

  // Acyclicity of the switching core. Traffic cannot transit a terminal
  // (flows only originate/terminate there), so the only cycles reachable by
  // routed flits are cycles among relays/hubs: DFS with colors over edges
  // whose endpoints are both non-terminal.
  {
    std::vector<std::uint8_t> color(n, 0);  // 0=white 1=grey 2=black
    struct Frame {
      std::uint16_t node;
      std::size_t next;
    };
    std::vector<Frame> stack;
    for (std::size_t start = 0; start < n; ++start) {
      if (kind(start) == DagNodeKind::kTerminal || color[start] != 0) continue;
      color[start] = 1;
      stack.push_back(Frame{static_cast<std::uint16_t>(start), 0});
      while (!stack.empty()) {
        Frame& frame = stack.back();
        if (frame.next < out_edges[frame.node].size()) {
          const std::uint16_t e = out_edges[frame.node][frame.next++];
          const std::uint16_t w = config.edges[e].dst;
          if (kind(w) == DagNodeKind::kTerminal) continue;
          if (color[w] == 1)
            invalid("the switching core contains a cycle through ", label(w));
          if (color[w] == 0) {
            color[w] = 1;
            stack.push_back(Frame{w, 0});
          }
        } else {
          color[frame.node] = 2;
          stack.pop_back();
        }
      }
    }
  }

  // Per-flow routing: the shortest path, ties broken by lowest edge id.
  DagPlan plan;
  plan.flow_paths.resize(config.flows.size());
  plan.flow_segments.resize(config.flows.size());
  std::vector<std::int32_t> origin_flow(n, -1);
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    if (flow.src >= n || flow.dst >= n)
      invalid("flow ", f, " references a node out of range");
    if (kind(flow.src) != DagNodeKind::kTerminal ||
        kind(flow.dst) != DagNodeKind::kTerminal)
      invalid("flow ", f, " endpoints must be terminals");
    if (flow.src == flow.dst) invalid("flow ", f, " sends to its own source");
    if (origin_flow[flow.src] >= 0)
      invalid("terminal ", label(flow.src), " originates more than one flow");
    origin_flow[flow.src] = static_cast<std::int32_t>(f);
    if (flow.vc >= link::kMaxVcs)
      invalid("flow ", f, " rides VC ", flow.vc, ", beyond link::kMaxVcs");

    plan.flow_paths[f] = shortest_path(config, out_edges, flow.src, flow.dst,
                                       {});
    if (plan.flow_paths[f].empty())
      invalid("flow ", label(flow.src), " -> ", label(flow.dst),
              " is unreachable");
  }

  // QoS. Relays schedule VCs, not flows, so every flow sharing a VC must
  // declare the same DRR weight — a mismatch would silently pick one. The
  // agreed weights and the VC count go into the plan.
  {
    std::array<bool, link::kMaxVcs> declared{};
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const DagFlow& flow = config.flows[f];
      plan.vcs = std::max<std::size_t>(plan.vcs, flow.vc + 1u);
      if (!declared[flow.vc]) {
        declared[flow.vc] = true;
        plan.vc_weights[flow.vc] = flow.weight;
      } else if (plan.vc_weights[flow.vc] != flow.weight) {
        invalid("flow ", f, " declares weight ", flow.weight, " for VC ",
                flow.vc, ", but an earlier flow on the same VC declared ",
                plan.vc_weights[flow.vc]);
      }
    }
  }
  // Arrival-process sanity: a rate-shaped kind needs its interval, and a
  // greedy flow takes none — a silently-ignored knob would misstate the
  // offered load.
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    const char* const arrivals = arrival_kind_name(flow.arrival);
    switch (flow.arrival) {
      case ArrivalKind::kGreedy:
        if (flow.interval > 0)
          invalid("flow ", f, " (", arrivals,
                  " arrivals) sets interval; pick a rate-shaped arrival kind");
        break;
      case ArrivalKind::kPaced:
      case ArrivalKind::kPoisson:
        if (flow.interval == 0)
          invalid("flow ", f, " (", arrivals, " arrivals) needs interval > 0");
        break;
    }
  }

  // ECN marks ride on the credit machinery (they throttle a VC BEFORE its
  // window exhausts, and endpoints ignore the mark byte with credits off),
  // so a threshold with every hop unbounded could never fire.
  if (config.ecn_threshold > 0 && config.hop_credits == 0 &&
      std::none_of(config.edges.begin(), config.edges.end(),
                   [](const DagEdge& edge) { return edge.credits.has_value(); }))
    invalid(
        "ecn_threshold set with credit flow control off everywhere; ECN "
        "early backpressure needs hop_credits or per-edge credits");

  // Segment extraction: split each path at terminating nodes. A run between
  // terminations is one direct edge or a chain through one or more hubs
  // (paths end at a terminal, so every chain ends at a termination). Each
  // edge belongs to exactly one domain direction: a run that meets an
  // edge of another domain is either that same domain (same origin edge,
  // same chain) or an error.
  std::vector<std::int32_t> segment_of_edge(config.edges.size(), -1);
  auto extract_segments = [&](const std::vector<std::uint16_t>& path,
                              std::vector<std::uint32_t>& into) {
    std::size_t i = 0;
    while (i < path.size()) {
      DagPlan::Segment segment;
      segment.origin = config.edges[path[i]].src;
      do {
        segment.edges.push_back(path[i]);
      } while (kind(config.edges[path[i++]].dst) == DagNodeKind::kHub);
      segment.egress_edge = segment.edges.front();
      segment.ingress_edge = segment.edges.back();
      segment.peer = config.edges[segment.ingress_edge].dst;
      segment.credits =
          config.edges[segment.ingress_edge].credits.value_or(
              config.hop_credits);
      if (segment.edges.size() > 1)
        segment.hub = config.edges[segment.egress_edge].dst;
      // An edge out of a termination can only open a chain, so a claimed
      // egress edge is the first edge of the claiming segment.
      const std::int32_t existing = segment_of_edge[segment.egress_edge];
      if (existing >= 0) {
        const DagPlan::Segment& other =
            plan.segments[static_cast<std::size_t>(existing)];
        if (other.edges != segment.edges) {
          const auto fork =
              std::mismatch(segment.edges.begin(), segment.edges.end(),
                            other.edges.begin(), other.edges.end());
          invalid("ISN domain leaving ", label(segment.origin),
                  " fans out at hub ", label(config.edges[*fork.first].src),
                  " (one TX termination cannot feed two receivers)");
        }
        into.push_back(static_cast<std::uint32_t>(existing));
        continue;
      }
      for (const std::uint16_t e : segment.edges) {
        if (segment_of_edge[e] < 0) continue;
        invalid("two ISN domains are multiplexed onto edge ",
                label(config.edges[e].src), " -> ", label(config.edges[e].dst),
                " (an implicit-sequence receiver cannot demux them)");
      }
      const std::uint32_t index =
          static_cast<std::uint32_t>(plan.segments.size());
      for (const std::uint16_t e : segment.edges)
        segment_of_edge[e] = static_cast<std::int32_t>(index);
      plan.segments.push_back(std::move(segment));
      into.push_back(index);
    }
  };
  for (std::size_t f = 0; f < config.flows.size(); ++f)
    extract_segments(plan.flow_paths[f], plan.flow_segments[f]);

  // Backup routes for planned faults: for every (flow, primary segment)
  // with a doomed edge — one whose compiled timeline ends down for good, as
  // every edge incident to a fail-stop relay does — precompute a detour
  // from the dead segment's origin to the flow's destination over the
  // surviving graph, with the same BFS and lowest-edge-id tie-break as
  // primaries. Backup segments go through the same dedup maps BEFORE mate
  // pairing below, so they pair with reverse topology edges exactly like
  // primary segments. Empty backup_edges records "no surviving route": the
  // reroute controller reports the abandonment and the flow degrades.
  compile_faults(config, plan);
  if (!plan.edge_faults.empty()) {
    std::vector<std::uint8_t> edge_doomed(config.edges.size(), 0);
    for (std::size_t e = 0; e < config.edges.size(); ++e)
      edge_doomed[e] = plan.edge_faults[e].permanently_down() ? 1 : 0;
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const DagFlow& flow = config.flows[f];
      for (const std::uint32_t si : plan.flow_segments[f]) {
        const DagPlan::Segment& segment = plan.segments[si];
        if (std::none_of(segment.edges.begin(), segment.edges.end(),
                         [&](std::uint16_t e) { return edge_doomed[e] != 0; }))
          continue;
        // A fail-stop relay raises no usable HopDownEvent for its own
        // egress hops (its protocol state is lost with it); the upstream
        // segment INTO the failed relay owns the recovery instead.
        if (plan.failed[segment.origin] != 0) continue;
        DagPlan::Reroute reroute;
        reroute.flow = static_cast<std::uint16_t>(f);
        reroute.dead_segment = si;
        reroute.backup_edges = shortest_path(config, out_edges, segment.origin,
                                             flow.dst, edge_doomed);
        extract_segments(reroute.backup_edges, reroute.backup_segments);
        plan.reroutes.push_back(std::move(reroute));
      }
    }
  }

  // Credit accounting assumes exactly-once delivery within the domain: a
  // slot is charged per first transmission and freed per delivery. A CXL
  // domain spliced through a transparent hub breaks that — the hub drops
  // silently and a following ack-carrying flit masks the gap (§4.1), so a
  // lost flit leaks its credit forever (the cumulative-count healing cannot
  // recover a slot that will never be delivered) and a duplicate delivery
  // inflates the window past the advertised depth. Relay-terminated hops
  // and hubless CXL domains detect every drop at the receiving endpoint
  // and stay exactly-once, so only the hub-crossing CXL combination is
  // rejected.
  if (config.protocol.protocol == Protocol::kCxl) {
    for (const DagPlan::Segment& segment : plan.segments) {
      if (segment.hub.has_value() && segment.credits > 0)
        invalid("credit flow control on the CXL domain through hub ",
                label(*segment.hub),
                " would leak credits on silently dropped flits (§4.1 losses "
                "are invisible to the cumulative return count); use RXL, "
                "terminate the hop at a relay, or disable credits on this "
                "edge");
    }
  }

  // Pair mutually reverse segments into bidirectional domains: two segments
  // are mates when each one's origin is the other's peer, whatever hubs
  // either crosses. The scan takes the first unpaired candidate, so the
  // pairing is deterministic.
  for (std::size_t i = 0; i < plan.segments.size(); ++i) {
    if (plan.segments[i].mate.has_value()) continue;
    for (std::size_t j = i + 1; j < plan.segments.size(); ++j) {
      if (plan.segments[j].mate.has_value()) continue;
      if (plan.segments[j].origin == plan.segments[i].peer &&
          plan.segments[j].peer == plan.segments[i].origin) {
        plan.segments[i].mate = static_cast<std::uint32_t>(j);
        plan.segments[j].mate = static_cast<std::uint32_t>(i);
        break;
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Instantiation + run
// ---------------------------------------------------------------------------

namespace {

/// Reroute quiesce poll period: after a hop death, Fabric::try_switchover
/// re-checks Fabric::old_path_quiet this often until the old path past the
/// dead segment drains (no relay egress queue or suffix-hop retry buffer
/// still holds the flow), then switches the flow onto its backup.
constexpr TimePs kReroutePoll = 500'000;
/// Polls before Fabric::try_switchover abandons a reroute whose old path
/// never drains (e.g. a second fault downstream). Abandoned reroutes are
/// reported, not fatal.
constexpr unsigned kRerouteQuiesceLimit = 64;

/// One end of a segment: the endpoint terminating it there and, at a relay,
/// that endpoint's port index.
struct Side {
  Endpoint* endpoint = nullptr;
  std::size_t port = 0;
};

/// A DAG fabric built from its plan: the event queue, every component, and
/// the report the run fills. Hooks reach fabric state through the fabric
/// and a plan index (flow, node), and every segment's two ends are
/// recorded as its domain is built, so nothing is looked up by key.
class Fabric {
 public:
  Fabric(const DagConfig& config, const DagPlan& plan);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Runs to the horizon and hands over the report; call it once.
  [[nodiscard]] DagReport run();

 private:
  /// A segment's TX side (where its data leaves) and RX side.
  struct Ends {
    Side tx;
    Side rx;
  };
  /// One ISN domain: its first segment and the wire its reverse direction
  /// rides (the mate's edge, or the implicit control wire).
  struct Domain {
    std::uint32_t rep = 0;
    sim::LinkChannel* reverse = nullptr;
  };
  /// A terminal's endpoint in one domain, and the node it sits at.
  struct Terminal {
    std::uint16_t node = 0;
    std::unique_ptr<Endpoint> endpoint;
  };
  /// Per-flow state: the stream's scoreboard, the arrival process with
  /// its one armed wake-up, the stream positions offered so far, and the
  /// latency ring (kLatencyRingSlots inject timestamps keyed by truth
  /// index, so sampling memory does not grow with run length).
  struct FlowRuntime {
    explicit FlowRuntime(sim::PayloadFn payload) : board(payload) {}
    /// Holds the flow's payload as a function of the stream position; the
    /// source sends that function by reference, so the board skips the
    /// compare for every delivery no error touched.
    txn::StreamScoreboard board;
    std::vector<TimePs> ring_at;          // inject timestamp per ring slot
    std::vector<std::uint64_t> ring_tag;  // truth index stamped in the slot
    std::optional<ArrivalProcess> arrivals;
    Endpoint* source = nullptr;  // wake-up kick target
    std::uint64_t offered = 0;
    bool pace_armed = false;
  };
  /// Run-time progress of the planned reroute with the same index in
  /// DagPlan::reroutes; the controller reads everything else from the plan
  /// and the segment ends when it acts.
  struct RerouteProgress {
    unsigned polls = 0;
    std::vector<Endpoint::TxItem> to_reinject;
    DagRerouteReport report;
  };

  void build_domain(std::uint32_t si, const ProtocolConfig& protocol,
                    Xoshiro256& seeder);
  Side add_side(std::uint16_t node, const ProtocolConfig& protocol,
                link::HopCredits credits);
  void wire_segment(std::size_t si, Endpoint* rx);
  /// Routes `flow` out of each of `segments` at the relay it leaves from.
  void install_routes(std::uint16_t flow,
                      std::span<const std::uint32_t> segments);
  void register_trace();
  void build_flows();
  /// The flow's Endpoint::SourceFn gate: offers stream position `index`,
  /// or returns false while none is offered.
  bool pull(std::size_t f, std::uint64_t index);
  /// The delivery hook of every terminal endpoint at `node`.
  void deliver(std::uint16_t node, const sim::FlitEnvelope& envelope);
  /// One occupancy/goodput time-series point; re-arms itself.
  void sample();

  // The reroute controller. A dead segment's TX raises one HopDownEvent;
  // every reroute planned for that segment reconciles the drained flits
  // against the peer RX's sequence state, waits for the flow's old path
  // past the dead segment to drain, and switches the flow onto its
  // precomputed backup (DagPlan::Reroute). Every decision is a pure
  // function of simulation state and the deterministic poll timeline, so
  // faulted runs replay bit-identically from their seed like clean ones.
  void on_hop_down(std::uint32_t si, Endpoint::HopDownEvent&& event);
  [[nodiscard]] bool old_path_quiet(const DagPlan::Reroute& reroute) const;
  void try_switchover(std::size_t r);

  const DagConfig& config_;
  const DagPlan& plan_;
  const bool sample_latency_;  ///< stamp the latency ring at each pull
  sim::EventQueue queue_;
  std::unique_ptr<obs::TraceSink> trace_;
  std::vector<std::unique_ptr<switchdev::PortSwitch>> hubs_;  ///< by node
  std::vector<std::unique_ptr<sim::LinkChannel>> channels_;   ///< by edge
  std::vector<std::unique_ptr<switchdev::RelaySwitch>> relays_;  ///< by node
  std::vector<Terminal> terminals_;
  std::vector<std::unique_ptr<sim::LinkChannel>> control_channels_;
  std::vector<Ends> ends_;  ///< by segment
  std::vector<Domain> domains_;
  /// By flow; reserved once, so the boards' PayloadFns never move.
  std::vector<FlowRuntime> flows_;
  std::vector<RerouteProgress> reroutes_;  ///< by DagPlan::reroutes index
  /// reroutes_ indices in the order their hops died: the report's order.
  std::vector<std::size_t> detection_order_;
  /// The `reroute` trace component: each switch emits kRerouteDrain (flow
  /// tagged, arg = re-injected count).
  std::uint16_t reroute_trace_ = 0;
  DagReport report_;
};

Fabric::Fabric(const DagConfig& config, const DagPlan& plan)
    : config_(config),
      plan_(plan),
      sample_latency_(config.sample_latency || config.debug_latency_samples),
      ends_(plan.segments.size()),
      reroutes_(plan.reroutes.size()) {
  const std::size_t node_count = config.nodes.size();

  // Flit-lifecycle tracing: the sink exists only when enabled, so every
  // emission site in the built components stays a null-pointer no-op on
  // untraced runs. Creating it draws nothing from the fabric seeder — the
  // channel/hub seed sequence (and with it the wire trajectory) is
  // byte-identical with tracing on or off.
  if (config.trace.enabled)
    trace_ = std::make_unique<obs::TraceSink>(config.trace.ring_depth);

  // Seed draw order is part of the determinism contract (and of the legacy
  // star reproduction): hubs first in node order, then forward channels in
  // edge order, then implicit control wires in domain order. A hub routes
  // by segment index, so its table has one entry per segment.
  Xoshiro256 seeder(config.seed);
  hubs_.resize(node_count);
  for (std::size_t v = 0; v < node_count; ++v) {
    if (config.nodes[v].kind != DagNodeKind::kHub) continue;
    const std::uint64_t seed =
        config.nodes[v].seed.has_value() ? *config.nodes[v].seed : seeder();
    switchdev::PortSwitch::Config hub_config;
    hub_config.protocol = config.protocol.protocol;
    hub_config.internal_error_rate = config.hub_internal_error_rate;
    hub_config.ports = plan.segments.size();
    hubs_[v] =
        std::make_unique<switchdev::PortSwitch>(queue_, hub_config, seed);
  }
  channels_.reserve(config.edges.size());
  for (std::size_t e = 0; e < config.edges.size(); ++e) {
    const DagEdge& edge = config.edges[e];
    const std::uint64_t seed = edge.seed.has_value() ? *edge.seed : seeder();
    sim::LinkChannel& channel =
        *channels_.emplace_back(std::make_unique<sim::LinkChannel>(
            queue_,
            make_error_model(edge.ber, edge.burst_injection_rate,
                             kBurstSymbols),
            seed, config.slot, edge.latency));
    if (!plan.edge_faults.empty())
      channel.set_fault_schedule(&plan.edge_faults[e]);
  }
  relays_.resize(node_count);
  for (std::size_t v = 0; v < node_count; ++v) {
    if (config.nodes[v].kind == DagNodeKind::kRelay)
      relays_[v] = std::make_unique<switchdev::RelaySwitch>(
          queue_, node_label(config, v),
          switchdev::EgressScheduler(config.egress_policy, plan.vc_weights),
          config.ecn_threshold);
  }

  // Per-hop domains, in segment order (a mate is built with its pair).
  // Unpaired domains carry acknowledgments standalone on the implicit
  // reverse control wire (there is no reverse data to piggyback on);
  // paired domains keep the configured policy.
  ProtocolConfig unpaired_protocol = config.protocol;
  unpaired_protocol.ack_policy = link::AckPolicy::kStandalone;
  for (std::uint32_t si = 0;
       si < static_cast<std::uint32_t>(plan.segments.size()); ++si) {
    if (ends_[si].tx.endpoint != nullptr) continue;
    build_domain(si,
                 plan.segments[si].mate.has_value() ? config.protocol
                                                    : unpaired_protocol,
                 seeder);
  }
  // Terminal endpoints were created in domain order; ordered by node they
  // are in (node, domain) order, the trace registration order.
  std::stable_sort(terminals_.begin(), terminals_.end(),
                   [](const Terminal& x, const Terminal& y) {
                     return x.node < y.node;
                   });

  for (std::size_t f = 0; f < config.flows.size(); ++f)
    install_routes(static_cast<std::uint16_t>(f), plan.flow_segments[f]);

  // The reroute controller hears each doomed segment's TX. Endpoints on a
  // fail-stop relay still simulate (their incident links just go dark),
  // but their events carry no recoverable state, so no reroute starts at
  // one (plan_dag).
  for (const DagPlan::Reroute& reroute : plan.reroutes)
    ends_[reroute.dead_segment].tx.endpoint->set_hop_down(
        [this, si = reroute.dead_segment](Endpoint::HopDownEvent&& event) {
          on_hop_down(si, std::move(event));
        });
  if (trace_ != nullptr) register_trace();
  build_flows();

  // Occupancy/goodput time-series sampler: a self-rescheduling observation
  // event that only READS counters, so the trajectory is untouched (the
  // traced-vs-untraced report-equality test pins this).
  if (trace_ != nullptr && config.trace.sample_period > 0)
    queue_.schedule(config.trace.sample_period, [this] { sample(); });
}

void Fabric::build_domain(std::uint32_t si, const ProtocolConfig& protocol,
                          Xoshiro256& seeder) {
  const DagPlan::Segment& segment = plan_.segments[si];
  const DagPlan::Segment* const mate =
      segment.mate.has_value() ? &plan_.segments[*segment.mate] : nullptr;
  // Each side's TX spends the window of the direction it sends, and its RX
  // advertises the window of the direction it receives.
  const std::size_t forward = segment.credits;
  const std::size_t backward = mate != nullptr ? mate->credits : 0;
  const Side a = add_side(segment.origin, protocol,
                          link::HopCredits{forward, backward, plan_.vcs});
  const Side b = add_side(segment.peer, protocol,
                          link::HopCredits{backward, forward, plan_.vcs});
  sim::LinkChannel* reverse = nullptr;
  if (mate != nullptr) {
    reverse = channels_[mate->egress_edge].get();
  } else {
    const DagEdge& edge = config_.edges[segment.egress_edge];
    reverse = control_channels_
                  .emplace_back(std::make_unique<sim::LinkChannel>(
                      queue_,
                      make_error_model(edge.ber, edge.burst_injection_rate,
                                       kBurstSymbols),
                      seeder(), config_.slot, edge.latency))
                  .get();
    // The implicit control wire shares the forward edge's physical link:
    // when that cable is down, acknowledgments die with the data (this is
    // what starves the TX into declaring the hop dead). Paired domains
    // route acks over the mate edge, which carries its own schedule —
    // fault plans for bidirectional hops must down both edges.
    if (!plan_.edge_faults.empty())
      reverse->set_fault_schedule(&plan_.edge_faults[segment.egress_edge]);
  }

  a.endpoint->set_output(channels_[segment.egress_edge].get());
  a.endpoint->set_dest_port(static_cast<std::uint16_t>(si));
  b.endpoint->set_output(reverse);
  b.endpoint->set_dest_port(
      mate != nullptr ? static_cast<std::uint16_t>(*segment.mate)
                      : std::uint16_t{0});
  wire_segment(si, b.endpoint);
  ends_[si] = Ends{a, b};
  if (mate != nullptr) {
    wire_segment(*segment.mate, a.endpoint);
    ends_[*segment.mate] = Ends{b, a};
  } else {
    reverse->set_receiver([rx = a.endpoint](sim::FlitEnvelope&& envelope) {
      rx->on_flit(std::move(envelope));
    });
  }
  domains_.push_back(Domain{si, reverse});
}

Side Fabric::add_side(std::uint16_t node, const ProtocolConfig& protocol,
                      link::HopCredits credits) {
  if (relays_[node] != nullptr) {
    const std::size_t port = relays_[node]->add_port(protocol, credits);
    return Side{&relays_[node]->port(port), port};
  }
  Endpoint* const endpoint =
      terminals_
          .emplace_back(Terminal{node, std::make_unique<Endpoint>(
                                           queue_, protocol,
                                           node_label(config_, node),
                                           credits)})
          .endpoint.get();
  return Side{endpoint, 0};
}

// Wires one domain direction: every edge of the chain but the last
// delivers into the hub it enters, whose table routes the segment's tag
// onto the next edge; the last edge delivers into the receiving side.
void Fabric::wire_segment(std::size_t si, Endpoint* rx) {
  const std::vector<std::uint16_t>& edges = plan_.segments[si].edges;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    switchdev::PortSwitch* const hub = hubs_[config_.edges[edges[i]].dst].get();
    channels_[edges[i]]->set_receiver([hub](sim::FlitEnvelope&& envelope) {
      hub->on_flit(std::move(envelope));
    });
    hub->set_output(si, channels_[edges[i + 1]].get());
  }
  channels_[edges.back()]->set_receiver([rx](sim::FlitEnvelope&& envelope) {
    rx->on_flit(std::move(envelope));
  });
}

void Fabric::install_routes(std::uint16_t flow,
                            std::span<const std::uint32_t> segments) {
  for (const std::uint32_t si : segments) {
    switchdev::RelaySwitch* const relay =
        relays_[plan_.segments[si].origin].get();
    if (relay != nullptr) relay->set_route(flow, ends_[si].tx.port);
  }
}

// Trace-component registration, in a fixed deterministic order: terminal
// endpoints by (node, domain), then per relay its port endpoints and its
// routing fabric, forward channels, implicit control wires, and the
// reroute controller. Component ids are the registration indices, so a
// capture is comparable across runs and worker counts.
void Fabric::register_trace() {
  obs::TraceSink* const sink = trace_.get();
  for (const Terminal& terminal : terminals_)
    terminal.endpoint->set_trace(
        sink, sink->add_component(terminal.endpoint->name()));
  for (const auto& relay : relays_) {
    if (relay == nullptr) continue;
    for (std::size_t p = 0; p < relay->ports(); ++p) {
      Endpoint& port = relay->port(p);
      port.set_trace(sink, sink->add_component(port.name()));
    }
    std::string fabric_name = relay->name();
    fabric_name += ".q";
    relay->set_trace(sink, sink->add_component(std::move(fabric_name)));
  }
  for (std::size_t e = 0; e < channels_.size(); ++e) {
    std::string wire_name = "wire.e";
    wire_name += std::to_string(e);
    channels_[e]->set_trace(sink, sink->add_component(std::move(wire_name)));
  }
  for (std::size_t w = 0; w < control_channels_.size(); ++w) {
    std::string wire_name = "ctrl.w";
    wire_name += std::to_string(w);
    control_channels_[w]->set_trace(
        sink, sink->add_component(std::move(wire_name)));
  }
  if (!plan_.reroutes.empty())
    reroute_trace_ = sink->add_component("reroute");
}

// Flow sources and sinks.
void Fabric::build_flows() {
  const std::size_t flow_count = config_.flows.size();
  flows_.reserve(flow_count);
  report_.flows.resize(flow_count);
  for (const Terminal& terminal : terminals_) {
    terminal.endpoint->set_deliver(
        [this, node = terminal.node](const sim::FlitEnvelope& envelope) {
          deliver(node, envelope);
        });
  }
  for (std::size_t f = 0; f < flow_count; ++f) {
    const DagFlow& flow = config_.flows[f];
    DagFlowReport& flow_report = report_.flows[f];
    flow_report.src = flow.src;
    flow_report.dst = flow.dst;
    flow_report.path_edges = plan_.flow_paths[f];
    Endpoint* const source = ends_[plan_.flow_segments[f].front()].tx.endpoint;
    FlowRuntime& runtime = flows_.emplace_back(
        [salt = flow.salt](std::uint64_t index, Endpoint::PayloadOut out) {
          fill_stream_payload(index, salt, out);
        });
    runtime.source = source;
    if (flow.arrival != ArrivalKind::kGreedy) {
      ArrivalSpec arrival_spec;
      arrival_spec.kind = flow.arrival;
      arrival_spec.interval = flow.interval;
      // Private per-flow stream, NOT drawn from the fabric seeder: an
      // extra seeder draw here would shift every channel seed and change
      // the wire trajectory of flows that use no randomness at all.
      arrival_spec.seed =
          config_.seed ^
          (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(f) + 1));
      runtime.arrivals.emplace(arrival_spec);
    }
    if (sample_latency_) {
      const std::uint64_t depth = std::min<std::uint64_t>(
          kLatencyRingSlots, std::max<std::uint64_t>(flow.flits, 1));
      runtime.ring_at.assign(static_cast<std::size_t>(depth), 0);
      runtime.ring_tag.assign(static_cast<std::size_t>(depth),
                              ~std::uint64_t{0});
    }
    source->set_source(
        [this, f](std::uint64_t index) { return pull(f, index); },
        {.payload_of = runtime.board.payload_fn(),
         .flow_id = static_cast<std::uint16_t>(f),
         .vc = flow.vc});
  }
}

bool Fabric::pull(std::size_t f, std::uint64_t index) {
  const DagFlow& flow = config_.flows[f];
  if (index >= flow.flits) return false;
  FlowRuntime& runtime = flows_[f];
  TimePs inject_stamp = queue_.now();
  if (runtime.arrivals.has_value()) {
    // Rate-shaped source: index i is offered no earlier than its arrival
    // due-time. A premature pull arms one wake-up kick at the due instant,
    // so the flow needs no external traffic to resume (and arms at most
    // one timer however often the endpoint polls meanwhile).
    const TimePs due = runtime.arrivals->due(index);
    const TimePs now = queue_.now();
    if (now < due) {
      if (!runtime.pace_armed) {
        runtime.pace_armed = true;
        queue_.schedule(due - now, [this, f] {
          flows_[f].pace_armed = false;
          flows_[f].source->kick();
        });
      }
      return false;
    }
    // Latency is measured from the ARRIVAL, not the pull: under overload
    // the source-side backlog is part of the delay, which is what makes a
    // load-latency curve inflect past saturation.
    inject_stamp = due;
  }
  if (sample_latency_) {
    const std::size_t slot =
        static_cast<std::size_t>(index) % runtime.ring_tag.size();
    runtime.ring_tag[slot] = index;
    runtime.ring_at[slot] = inject_stamp;
  }
  if (trace_ != nullptr) {
    // Stamped with the arrival DUE time — the same origin the latency ring
    // stores — so a reconstructed journey's hop sums equal the
    // histogram-recorded end-to-end sample exactly.
    trace_->emit(runtime.source->trace_component(), inject_stamp,
                 obs::TraceEventKind::kInject, index,
                 static_cast<std::uint16_t>(f), 0, flow.vc, 0);
  }
  runtime.board.register_sent(index);
  runtime.offered = index + 1;
  return true;
}

void Fabric::deliver(std::uint16_t node, const sim::FlitEnvelope& envelope) {
  if (!envelope.has_truth || envelope.flow_id >= config_.flows.size() ||
      config_.flows[envelope.flow_id].dst != node) {
    report_.misrouted += 1;
    return;
  }
  FlowRuntime& runtime = flows_[envelope.flow_id];
  runtime.board.on_deliver(envelope);
  if (!sample_latency_) return;
  // The ring slot still carries this truth index unless the flow fell more
  // than kLatencyRingSlots behind its newest pull; an overwritten slot is a
  // MISS, counted instead of silently skipped (samples must never
  // undercount without a signal).
  DagFlowReport& flow = report_.flows[envelope.flow_id];
  const std::size_t slot = static_cast<std::size_t>(envelope.truth_index) %
                           runtime.ring_tag.size();
  if (runtime.ring_tag[slot] == envelope.truth_index) {
    const TimePs delay = queue_.now() - runtime.ring_at[slot];
    flow.latency.add(delay);
    if (config_.debug_latency_samples) flow.latency_samples.push_back(delay);
  } else {
    flow.latency_sample_misses += 1;
  }
}

void Fabric::sample() {
  std::uint64_t delivered = 0;
  for (const FlowRuntime& flow : flows_)
    delivered += flow.board.stats().in_order;
  std::uint64_t queued = 0;
  for (const auto& relay : relays_) {
    if (relay == nullptr) continue;
    for (std::size_t p = 0; p < relay->ports(); ++p)
      queued += relay->port_stats(p).queue_occupancy;
  }
  report_.timeseries.push_back(
      obs::TimeSeriesPoint{queue_.now(), delivered, queued});
  queue_.schedule(config_.trace.sample_period, [this] { sample(); });
}

void Fabric::on_hop_down(std::uint32_t si, Endpoint::HopDownEvent&& event) {
  // A fail-stopped peer's sequence state died with it: nothing drained can
  // be proven delivered.
  const bool peer_failed = plan_.failed[plan_.segments[si].peer] != 0;
  const std::uint16_t expected =
      peer_failed ? 0 : ends_[si].rx.endpoint->expected_seq();
  for (std::size_t r = 0; r < plan_.reroutes.size(); ++r) {
    const DagPlan::Reroute& reroute = plan_.reroutes[r];
    if (reroute.dead_segment != si) continue;
    RerouteProgress& progress = reroutes_[r];
    detection_order_.push_back(r);
    progress.report.flow = reroute.flow;
    progress.report.segment = si;
    progress.report.detected_at = event.at;
    for (Endpoint::HopDownEvent::DrainedFlit& drained : event.drained) {
      if (drained.item.flow_id != reroute.flow) continue;
      progress.report.drained += 1;
      // Go-back-N acceptance is in-order and cumulative, so the peer's
      // delivered set is exactly the sequence prefix below its expected
      // number: a drained entry strictly behind it already got through
      // (only its acknowledgment was lost) and must not be re-sent.
      if (!peer_failed && link::seq_before(drained.seq, expected)) {
        progress.report.reconciled += 1;
        continue;
      }
      progress.to_reinject.push_back(std::move(drained.item));
    }
    // Without a surviving route the flow degrades.
    if (!reroute.backup_edges.empty()) try_switchover(r);
  }
}

// The old path past the dead segment still drains in-flight flits toward
// the destination; the switch waits for it so re-injected traffic cannot
// overtake them. Probes on a fail-stop relay are skipped: anything it holds
// is lost, and waiting on its frozen queues would only burn the poll budget.
bool Fabric::old_path_quiet(const DagPlan::Reroute& reroute) const {
  const std::vector<std::uint32_t>& path = plan_.flow_segments[reroute.flow];
  auto it = std::find(path.begin(), path.end(), reroute.dead_segment);
  assert(it != path.end());
  for (++it; it != path.end(); ++it) {
    const std::uint16_t origin = plan_.segments[*it].origin;
    if (plan_.failed[origin] != 0) continue;
    if (relays_[origin] != nullptr &&
        relays_[origin]->has_flow_queued(reroute.flow))
      return false;
    if (ends_[*it].tx.endpoint->tx_holds_flow(reroute.flow)) return false;
  }
  return true;
}

void Fabric::try_switchover(std::size_t r) {
  const DagPlan::Reroute& reroute = plan_.reroutes[r];
  RerouteProgress& progress = reroutes_[r];
  if (!old_path_quiet(reroute)) {
    // Past the poll budget the reroute is abandoned, its backup unused.
    if (progress.polls < kRerouteQuiesceLimit) {
      progress.polls += 1;
      queue_.schedule(kReroutePoll, [this, r] { try_switchover(r); });
    }
    return;
  }
  install_routes(reroute.flow, reroute.backup_segments);
  // A terminal origin has no relay to re-originate from.
  switchdev::RelaySwitch* const origin =
      relays_[plan_.segments[reroute.dead_segment].origin].get();
  if (origin != nullptr) {
    // Drained flits precede anything parked in the old egress queue (the
    // replay buffer holds the oldest unacknowledged stream positions), so
    // inject them first, then rotate the parked tail across: per-flow
    // FIFO order survives the switchover end to end.
    const std::size_t new_port =
        ends_[reroute.backup_segments.front()].tx.port;
    for (const Endpoint::TxItem& item : progress.to_reinject)
      origin->inject(new_port, item);
    progress.report.reinjected = progress.to_reinject.size();
    progress.to_reinject.clear();
    origin->migrate_pending(ends_[reroute.dead_segment].tx.port, new_port,
                            reroute.flow);
  }
  progress.report.rerouted = true;
  progress.report.switched_at = queue_.now();
  report_.flows[reroute.flow].rerouted = true;
  if (trace_ != nullptr)
    trace_->emit(reroute_trace_, queue_.now(),
                 obs::TraceEventKind::kRerouteDrain, 0, reroute.flow, 0, 0,
                 static_cast<std::uint32_t>(progress.report.reinjected));
}

DagReport Fabric::run() {
  for (const FlowRuntime& flow : flows_) flow.source->kick();
  queue_.run_until(config_.horizon);

  report_.slots = config_.slot > 0 ? static_cast<std::uint64_t>(
                                         config_.horizon / config_.slot)
                                   : 0;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    report_.flows[f].offered = flows_[f].offered;
    report_.flows[f].scoreboard = flows_[f].board.finalize();
  }
  for (const std::size_t r : detection_order_)
    report_.reroutes.push_back(reroutes_[r].report);
  for (const Domain& domain : domains_) {
    const DagPlan::Segment& segment = plan_.segments[domain.rep];
    Endpoint* const a = ends_[domain.rep].tx.endpoint;
    Endpoint* const b = ends_[domain.rep].rx.endpoint;
    DagLinkStats& hop = report_.hops.emplace_back();
    hop.segment = domain.rep;
    hop.node_a = segment.origin;
    hop.node_b = segment.peer;
    hop.forward_edge = segment.egress_edge;
    hop.paired = segment.mate.has_value();
    hop.crosses_hub = segment.hub.has_value();
    const Endpoint::Snapshot snap_a = a->snapshot();
    const Endpoint::Snapshot snap_b = b->snapshot();
    hop.a = snap_a.link;
    hop.b = snap_b.link;
    hop.a_extra = snap_a.extra;
    hop.b_extra = snap_b.extra;
    for (std::size_t v = 0; v < a->credit_windows().vcs(); ++v) {
      hop.a_vc_consumed[v] = a->credit_windows().vc(v).consumed();
      hop.b_vc_consumed[v] = b->credit_windows().vc(v).consumed();
      hop.a_vc_returned[v] = a->credit_ledgers().vc(v).returned();
      hop.b_vc_returned[v] = b->credit_ledgers().vc(v).returned();
    }
    hop.forward_channel = channels_[segment.egress_edge]->stats();
    hop.reverse_channel = domain.reverse->stats();
  }
  report_.channels.reserve(channels_.size());
  for (const auto& channel : channels_)
    report_.channels.push_back(channel->stats());
  for (std::size_t v = 0; v < relays_.size(); ++v) {
    if (relays_[v] == nullptr) continue;
    DagRelayReport& relay = report_.relays.emplace_back();
    relay.node = static_cast<std::uint16_t>(v);
    relay.ports.resize(relays_[v]->ports());
    for (std::size_t p = 0; p < relay.ports.size(); ++p)
      relay.ports[p].stats = relays_[v]->port_stats(p);
    // A port transmits on the first edge of the segment it originates and
    // receives on the last edge of the segment it terminates.
    for (std::size_t si = 0; si < ends_.size(); ++si) {
      const DagPlan::Segment& segment = plan_.segments[si];
      if (segment.origin == v)
        relay.ports[ends_[si].tx.port].tx_edge = segment.egress_edge;
      if (segment.peer == v)
        relay.ports[ends_[si].rx.port].rx_edge = segment.ingress_edge;
    }
  }
  for (std::size_t v = 0; v < hubs_.size(); ++v) {
    if (hubs_[v] != nullptr)
      report_.hubs.push_back(
          DagHubReport{static_cast<std::uint16_t>(v), hubs_[v]->stats()});
  }
  if (trace_ != nullptr) report_.trace = trace_->capture();
  return std::move(report_);
}

}  // namespace

DagReport run_dag_fabric(const DagConfig& config) {
  assert(config.horizon > 0);
  const DagPlan plan = plan_dag(config);
  Fabric fabric(config, plan);
  return fabric.run();
}

// ---------------------------------------------------------------------------
// Report aggregates
// ---------------------------------------------------------------------------

namespace {

/// Sums value(item) over one report section.
template <typename Item, typename Value>
std::uint64_t sum_of(const std::vector<Item>& items, Value value) {
  std::uint64_t total = 0;
  for (const Item& item : items) total += value(item);
  return total;
}

/// Sums one endpoint counter over both sides of every hop.
std::uint64_t sum_sides(const std::vector<DagLinkStats>& hops,
                        std::uint64_t EndpointExtraStats::*counter) {
  return sum_of(hops, [counter](const DagLinkStats& hop) {
    return hop.a_extra.*counter + hop.b_extra.*counter;
  });
}

/// Folds one counter over every port of every relay.
template <typename Fold>
std::uint64_t fold_ports(const std::vector<DagRelayReport>& relays,
                         std::uint64_t switchdev::RelayPortStats::*counter,
                         Fold fold) {
  std::uint64_t out = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      out = fold(out, port.stats.*counter);
  return out;
}

std::uint64_t larger(std::uint64_t x, std::uint64_t y) {
  return std::max(x, y);
}

}  // namespace

std::uint64_t DagReport::total_offered() const {
  return sum_of(flows, [](const DagFlowReport& flow) { return flow.offered; });
}

std::uint64_t DagReport::total_in_order() const {
  return sum_of(flows, [](const DagFlowReport& flow) {
    return flow.scoreboard.in_order;
  });
}

std::uint64_t DagReport::total_order_failures() const {
  return sum_of(flows, [](const DagFlowReport& flow) {
    return flow.scoreboard.order_violations + flow.scoreboard.duplicates;
  });
}

std::uint64_t DagReport::total_missing() const {
  return sum_of(flows, [](const DagFlowReport& flow) {
    return flow.scoreboard.missing;
  });
}

std::uint64_t DagReport::total_data_corruptions() const {
  return sum_of(flows, [](const DagFlowReport& flow) {
    return flow.scoreboard.data_corruptions;
  });
}

std::uint64_t DagReport::total_hop_retransmissions() const {
  return sum_of(hops, [](const DagLinkStats& hop) {
    return hop.a.data_flits_retransmitted + hop.b.data_flits_retransmitted;
  });
}

std::uint64_t DagReport::total_relay_no_route_drops() const {
  return fold_ports(relays, &switchdev::RelayPortStats::dropped_no_route,
                    std::plus<>());
}

std::uint64_t DagReport::total_credit_stalls() const {
  return sum_sides(hops, &EndpointExtraStats::credit_stalls);
}

std::uint64_t DagReport::total_credits_consumed() const {
  return sum_sides(hops, &EndpointExtraStats::credits_consumed);
}

std::uint64_t DagReport::total_credits_returned() const {
  return sum_sides(hops, &EndpointExtraStats::credits_returned);
}

std::uint64_t DagReport::total_credits_granted() const {
  return sum_sides(hops, &EndpointExtraStats::credits_granted);
}

std::uint64_t DagReport::max_ingress_occupancy() const {
  return fold_ports(relays, &switchdev::RelayPortStats::ingress_high_water,
                    larger);
}

std::uint64_t DagReport::max_relay_queue_depth() const {
  return fold_ports(relays, &switchdev::RelayPortStats::max_queue_depth,
                    larger);
}

std::uint64_t DagReport::total_ecn_mark_events() const {
  return fold_ports(relays, &switchdev::RelayPortStats::ecn_mark_events,
                    std::plus<>());
}

std::uint64_t DagReport::total_ecn_stalls() const {
  return sum_sides(hops, &EndpointExtraStats::ecn_stalls);
}

std::uint64_t DagReport::total_hops_declared_dead() const {
  return sum_sides(hops, &EndpointExtraStats::hops_declared_dead);
}

std::uint64_t DagReport::total_dead_flits_drained() const {
  return sum_sides(hops, &EndpointExtraStats::dead_flits_drained);
}

std::uint64_t DagReport::total_credits_refunded() const {
  return sum_sides(hops, &EndpointExtraStats::credits_refunded);
}

std::uint64_t DagReport::total_flap_recoveries() const {
  return sum_sides(hops, &EndpointExtraStats::flap_recoveries);
}

std::uint64_t DagReport::total_flits_blackholed() const {
  return sum_of(hops, [](const DagLinkStats& hop) {
    return hop.forward_channel.flits_blackholed +
           hop.reverse_channel.flits_blackholed;
  });
}

std::uint64_t DagReport::total_reroutes_executed() const {
  return sum_of(reroutes, [](const DagRerouteReport& reroute) {
    return std::uint64_t{reroute.rerouted};
  });
}

stats::LatencyHistogram DagReport::merged_latency() const {
  stats::LatencyHistogram merged;
  for (const DagFlowReport& flow : flows) merged.merge(flow.latency);
  return merged;
}

std::uint64_t DagReport::total_latency_sample_misses() const {
  return sum_of(flows, [](const DagFlowReport& flow) {
    return flow.latency_sample_misses;
  });
}

// ---------------------------------------------------------------------------
// Canned topologies
// ---------------------------------------------------------------------------

namespace {

DagConfig base_scenario_config(const DagScenarioSpec& spec) {
  DagConfig config;
  config.protocol = spec.protocol;
  config.seed = spec.seed;
  config.horizon = spec.horizon;
  config.hop_credits = spec.hop_credits;
  config.egress_policy = spec.egress_policy;
  config.ecn_threshold = spec.ecn_threshold;
  config.sample_latency = spec.sample_latency;
  return config;
}

/// Applies per-flow QoS classes cyclically (flow i wears class i mod n);
/// an empty list leaves the builder's flows untouched. A class that paces
/// makes its flows kPaced arrivals at that interval.
void apply_flow_classes(DagConfig& config,
                        std::span<const DagFlowClass> classes) {
  if (classes.empty()) return;
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlowClass& klass = classes[f % classes.size()];
    DagFlow& flow = config.flows[f];
    flow.vc = klass.vc;
    flow.weight = klass.weight;
    if (klass.pace > 0) {
      flow.arrival = ArrivalKind::kPaced;
      flow.interval = klass.pace;
    }
    if (klass.flits > 0) flow.flits = klass.flits;
  }
}

/// Appends `count` nodes of `kind` named prefix + index, the index counting
/// from `first`.
void add_nodes(DagConfig& config, const char* prefix, std::size_t count,
               DagNodeKind kind, std::size_t first = 0) {
  for (std::size_t i = first; i < first + count; ++i) {
    std::string name = prefix;
    name += std::to_string(i);
    config.nodes.push_back(DagNode{std::move(name), kind, {}});
  }
}

DagEdge scenario_edge(const DagScenarioSpec& spec, std::uint16_t src,
                      std::uint16_t dst) {
  DagEdge edge;
  edge.src = src;
  edge.dst = dst;
  edge.ber = spec.ber;
  edge.burst_injection_rate = spec.burst_injection_rate;
  edge.latency = spec.latency;
  return edge;
}

}  // namespace

DagConfig make_chain_dag(const DagScenarioSpec& spec, std::size_t relays) {
  DagConfig config = base_scenario_config(spec);
  config.nodes.push_back(DagNode{"src", DagNodeKind::kTerminal, {}});
  add_nodes(config, "relay", relays, DagNodeKind::kRelay, 1);
  config.nodes.push_back(DagNode{"dst", DagNodeKind::kTerminal, {}});
  const std::uint16_t last = static_cast<std::uint16_t>(relays + 1);
  for (std::uint16_t v = 0; v < last; ++v)
    config.edges.push_back(
        scenario_edge(spec, v, static_cast<std::uint16_t>(v + 1)));
  config.flows.push_back(DagFlow{0, last, spec.flits_per_flow, 0xA000});
  return config;
}

DagConfig make_butterfly_dag(const DagScenarioSpec& spec) {
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, "s", 4, DagNodeKind::kTerminal);
  config.nodes.push_back(DagNode{"r10", DagNodeKind::kRelay, {}});  // id 4
  config.nodes.push_back(DagNode{"r11", DagNodeKind::kRelay, {}});  // id 5
  config.nodes.push_back(DagNode{"r20", DagNodeKind::kRelay, {}});  // id 6
  config.nodes.push_back(DagNode{"r21", DagNodeKind::kRelay, {}});  // id 7
  add_nodes(config, "d", 4, DagNodeKind::kTerminal);  // ids 8..11
  config.edges.push_back(scenario_edge(spec, 0, 4));
  config.edges.push_back(scenario_edge(spec, 1, 4));
  config.edges.push_back(scenario_edge(spec, 2, 5));
  config.edges.push_back(scenario_edge(spec, 3, 5));
  config.edges.push_back(scenario_edge(spec, 4, 6));
  config.edges.push_back(scenario_edge(spec, 4, 7));
  config.edges.push_back(scenario_edge(spec, 5, 6));
  config.edges.push_back(scenario_edge(spec, 5, 7));
  config.edges.push_back(scenario_edge(spec, 6, 8));
  config.edges.push_back(scenario_edge(spec, 6, 9));
  config.edges.push_back(scenario_edge(spec, 7, 10));
  config.edges.push_back(scenario_edge(spec, 7, 11));
  // s0 and s2 land under r20, s1 and s3 under r21: every stage-1 relay
  // splits its two flows across both stage-2 relays, so all four middle
  // edges carry traffic and every stage-2 relay sees fan-in from both
  // stage-1 relays.
  config.flows.push_back(DagFlow{0, 8, spec.flits_per_flow, 0xC000});
  config.flows.push_back(DagFlow{1, 10, spec.flits_per_flow, 0xC001});
  config.flows.push_back(DagFlow{2, 9, spec.flits_per_flow, 0xC002});
  config.flows.push_back(DagFlow{3, 11, spec.flits_per_flow, 0xC003});
  return config;
}

DagConfig make_fat_tree_dag(const DagScenarioSpec& spec) {
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, "h", 4, DagNodeKind::kTerminal);
  config.nodes.push_back(DagNode{"up0", DagNodeKind::kRelay, {}});    // id 4
  config.nodes.push_back(DagNode{"up1", DagNodeKind::kRelay, {}});    // id 5
  config.nodes.push_back(DagNode{"spine", DagNodeKind::kRelay, {}});  // id 6
  config.nodes.push_back(DagNode{"down0", DagNodeKind::kRelay, {}});  // id 7
  config.nodes.push_back(DagNode{"down1", DagNodeKind::kRelay, {}});  // id 8
  add_nodes(config, "d", 4, DagNodeKind::kTerminal);  // ids 9..12
  config.edges.push_back(scenario_edge(spec, 0, 4));
  config.edges.push_back(scenario_edge(spec, 1, 4));
  config.edges.push_back(scenario_edge(spec, 2, 5));
  config.edges.push_back(scenario_edge(spec, 3, 5));
  config.edges.push_back(scenario_edge(spec, 4, 6));
  config.edges.push_back(scenario_edge(spec, 5, 6));
  config.edges.push_back(scenario_edge(spec, 6, 7));
  config.edges.push_back(scenario_edge(spec, 6, 8));
  config.edges.push_back(scenario_edge(spec, 7, 9));
  config.edges.push_back(scenario_edge(spec, 7, 10));
  config.edges.push_back(scenario_edge(spec, 8, 11));
  config.edges.push_back(scenario_edge(spec, 8, 12));
  // Cross traffic: every flow climbs to the spine and descends the other
  // side, so the two trunk hops each multiplex two flows.
  for (std::uint16_t i = 0; i < 4; ++i)
    config.flows.push_back(DagFlow{i, static_cast<std::uint16_t>(12 - i),
                                   spec.flits_per_flow, 0xF000u + i});
  return config;
}

DagConfig make_asymmetric_dag(const DagScenarioSpec& spec) {
  DagConfig config = base_scenario_config(spec);
  config.nodes.push_back(DagNode{"a", DagNodeKind::kTerminal, {}});   // 0
  config.nodes.push_back(DagNode{"c", DagNodeKind::kTerminal, {}});   // 1
  config.nodes.push_back(DagNode{"r0", DagNodeKind::kRelay, {}});     // 2
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});     // 3
  config.nodes.push_back(DagNode{"r2", DagNodeKind::kRelay, {}});     // 4
  config.nodes.push_back(DagNode{"b", DagNodeKind::kTerminal, {}});   // 5
  config.nodes.push_back(DagNode{"d", DagNodeKind::kTerminal, {}});   // 6
  config.edges.push_back(scenario_edge(spec, 0, 2));
  config.edges.push_back(scenario_edge(spec, 2, 3));
  config.edges.push_back(scenario_edge(spec, 1, 3));
  config.edges.push_back(scenario_edge(spec, 3, 4));
  config.edges.push_back(scenario_edge(spec, 4, 5));
  config.edges.push_back(scenario_edge(spec, 4, 6));
  // a -> b rides four hops, c -> d three; both share the r1 -> r2 trunk.
  config.flows.push_back(DagFlow{0, 5, spec.flits_per_flow, 0xE000});
  config.flows.push_back(DagFlow{1, 6, spec.flits_per_flow, 0xE001});
  return config;
}

DagConfig make_incast_dag(const DagScenarioSpec& spec, std::size_t sources,
                          std::span<const DagFlowClass> classes) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, "src", sources, DagNodeKind::kTerminal);
  const std::uint16_t relay = static_cast<std::uint16_t>(sources);
  const std::uint16_t sink = static_cast<std::uint16_t>(sources + 1);
  config.nodes.push_back(DagNode{"relay", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"sink", DagNodeKind::kTerminal, {}});
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(i), relay));
  config.edges.push_back(scenario_edge(spec, relay, sink));
  for (std::size_t i = 0; i < sources; ++i) {
    DagFlow flow;
    flow.src = static_cast<std::uint16_t>(i);
    flow.dst = sink;
    flow.flits = spec.flits_per_flow;
    flow.salt = 0x1CA0 + i;
    config.flows.push_back(flow);
  }
  apply_flow_classes(config, classes);
  return config;
}

DagConfig make_hotspot_dag(const DagScenarioSpec& spec, std::size_t sources,
                           std::span<const DagFlowClass> classes) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, "src", sources, DagNodeKind::kTerminal);
  const std::uint16_t relay = static_cast<std::uint16_t>(sources);
  const std::uint16_t hot = static_cast<std::uint16_t>(sources + 1);
  const std::uint16_t cold = static_cast<std::uint16_t>(sources + 2);
  config.nodes.push_back(DagNode{"relay", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"hot", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"cold", DagNodeKind::kTerminal, {}});
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(i), relay));
  config.edges.push_back(scenario_edge(spec, relay, hot));
  config.edges.push_back(scenario_edge(spec, relay, cold));
  // Flows 0..sources-2 pile onto the hot sink; the last flow has the cold
  // egress hop to itself and must keep moving under the others' backlog.
  for (std::size_t i = 0; i + 1 < sources; ++i)
    config.flows.push_back(DagFlow{static_cast<std::uint16_t>(i), hot,
                                   spec.flits_per_flow, 0x407u + i});
  config.flows.push_back(DagFlow{static_cast<std::uint16_t>(sources - 1),
                                 cold, spec.flits_per_flow, 0xC07D});
  apply_flow_classes(config, classes);
  return config;
}

DagConfig make_diamond_dag(const DagScenarioSpec& spec, std::size_t sources,
                           std::size_t branches) {
  assert(sources >= 1 && branches >= 1);
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, "src", sources, DagNodeKind::kTerminal);
  const std::uint16_t r0 = static_cast<std::uint16_t>(sources);
  config.nodes.push_back(DagNode{"r0", DagNodeKind::kRelay, {}});
  add_nodes(config, "m", branches, DagNodeKind::kRelay);
  const std::uint16_t r1 = static_cast<std::uint16_t>(sources + branches + 1);
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});
  add_nodes(config, "dst", sources, DagNodeKind::kTerminal);
  // Edge-id layout documented in the header: source uplinks first, then the
  // branch edge pairs interleaved (R0 -> M_j at sources + 2j, M_j -> R1 at
  // sources + 2j + 1), then the sink downlinks. BFS ties break on the
  // lowest edge id, so every primary path rides M_0.
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(i), r0));
  for (std::size_t j = 0; j < branches; ++j) {
    const std::uint16_t mid = static_cast<std::uint16_t>(sources + 1 + j);
    config.edges.push_back(scenario_edge(spec, r0, mid));
    config.edges.push_back(scenario_edge(spec, mid, r1));
  }
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(scenario_edge(
        spec, r1, static_cast<std::uint16_t>(sources + branches + 2 + i)));
  for (std::size_t i = 0; i < sources; ++i)
    config.flows.push_back(
        DagFlow{static_cast<std::uint16_t>(i),
                static_cast<std::uint16_t>(sources + branches + 2 + i),
                spec.flits_per_flow, 0xD1A0u + i});
  return config;
}

DagConfig make_trunk_dag(const DagScenarioSpec& spec, std::size_t sources,
                         std::span<const DagFlowClass> classes) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, "src", sources, DagNodeKind::kTerminal);
  const std::uint16_t r1 = static_cast<std::uint16_t>(sources);
  const std::uint16_t r2 = static_cast<std::uint16_t>(sources + 1);
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"r2", DagNodeKind::kRelay, {}});
  add_nodes(config, "dst", sources, DagNodeKind::kTerminal);
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(i), r1));
  config.edges.push_back(scenario_edge(spec, r1, r2));
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(scenario_edge(
        spec, r2, static_cast<std::uint16_t>(sources + 2 + i)));
  for (std::size_t i = 0; i < sources; ++i)
    config.flows.push_back(
        DagFlow{static_cast<std::uint16_t>(i),
                static_cast<std::uint16_t>(sources + 2 + i),
                spec.flits_per_flow, 0x7A00u + i});
  apply_flow_classes(config, classes);
  return config;
}

// ---------------------------------------------------------------------------
// The legacy star fabric as a one-hub DAG
// ---------------------------------------------------------------------------

DagConfig make_star_dag(const StarConfig& config) {
  DagConfig dag;
  dag.protocol = config.protocol;
  dag.seed = config.seed;
  dag.horizon = config.horizon;

  const std::size_t n = config.pairs;
  // Legacy seed draw order: down switch, up switch, then per pair the four
  // channels (host uplink, device downlink, device uplink, host downlink).
  // Replaying those draws as explicit seeds keeps a clean-hub run
  // trajectory-identical to the deleted hard-coded star builder (pinned by
  // the recorded-counter equivalence tests).
  Xoshiro256 seeder(config.seed);
  const std::uint64_t hub_seed = seeder();
  (void)seeder();  // the legacy up-switch stream; the single hub has one

  add_nodes(dag, "host", n, DagNodeKind::kTerminal);
  add_nodes(dag, "dev", n, DagNodeKind::kTerminal);
  const std::uint16_t hub = static_cast<std::uint16_t>(2 * n);
  dag.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, hub_seed});

  auto star_edge = [&](std::uint16_t src, std::uint16_t dst) {
    DagEdge edge;
    edge.src = src;
    edge.dst = dst;
    edge.ber = config.ber;
    edge.burst_injection_rate = config.burst_injection_rate;
    edge.seed = seeder();
    return edge;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t host = static_cast<std::uint16_t>(i);
    const std::uint16_t device = static_cast<std::uint16_t>(n + i);
    dag.edges.push_back(star_edge(host, hub));    // host uplink
    dag.edges.push_back(star_edge(hub, device));  // device downlink
    dag.edges.push_back(star_edge(device, hub));  // device uplink
    dag.edges.push_back(star_edge(hub, host));    // host downlink
  }
  for (std::size_t i = 0; i < n; ++i)
    dag.flows.push_back(DagFlow{static_cast<std::uint16_t>(i),
                                static_cast<std::uint16_t>(n + i),
                                config.flits_per_direction, 0xD000 + i});
  for (std::size_t i = 0; i < n; ++i)
    dag.flows.push_back(DagFlow{static_cast<std::uint16_t>(n + i),
                                static_cast<std::uint16_t>(i),
                                config.flits_per_direction, 0xB000 + i});
  return dag;
}

// ---------------------------------------------------------------------------
// The paper's host <-> N-level <-> device fabric as hub chains
// ---------------------------------------------------------------------------

DagConfig make_linear_dag(const DagScenarioSpec& spec,
                          unsigned switch_levels) {
  DagConfig config = base_scenario_config(spec);
  config.nodes.push_back(DagNode{"host", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"device", DagNodeKind::kTerminal, {}});
  add_nodes(config, "down", switch_levels, DagNodeKind::kHub, 1);
  add_nodes(config, "up", switch_levels, DagNodeKind::kHub, 1);
  // Seeds replay the per-direction harness's draws: for each direction in
  // turn, its L+1 channels in hop order, then its L switches.
  Xoshiro256 seeder(spec.seed);
  for (unsigned direction = 0; direction < 2; ++direction) {
    const std::uint16_t src = static_cast<std::uint16_t>(direction);
    const std::uint16_t dst = static_cast<std::uint16_t>(1 - direction);
    const auto hub = [&](unsigned level) {
      return static_cast<std::uint16_t>(2 + direction * switch_levels + level);
    };
    for (unsigned hop = 0; hop <= switch_levels; ++hop) {
      const std::uint16_t from = hop == 0 ? src : hub(hop - 1);
      const std::uint16_t to = hop == switch_levels ? dst : hub(hop);
      config.edges.push_back(scenario_edge(spec, from, to));
      config.edges.back().seed = seeder();
    }
    for (unsigned level = 0; level < switch_levels; ++level)
      config.nodes[hub(level)].seed = seeder();
  }
  config.flows.push_back(DagFlow{0, 1, spec.flits_per_flow, 0x00D0});
  config.flows.push_back(DagFlow{1, 0, spec.flits_per_flow, 0x0B0B});
  return config;
}

}  // namespace rxl::transport
