#include "rxl/transport/dag_fabric.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "rxl/link/credit.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/transport/traffic.hpp"

namespace rxl::transport {
namespace {

[[noreturn]] void invalid(std::string message) {
  throw std::invalid_argument(std::move(message));
}

std::string node_label(const DagConfig& config, std::size_t node) {
  if (node < config.nodes.size() && !config.nodes[node].name.empty())
    return config.nodes[node].name;
  std::string label = "node#";
  label += std::to_string(node);
  return label;
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
    if (edge.src >= n || edge.dst >= n) {
      std::string message = "edge ";
      message += std::to_string(e);
      message += " references a node out of range";
      invalid(std::move(message));
    }
    if (edge.src == edge.dst) {
      std::string message = "self-edge at ";
      message += label(edge.src);
      invalid(std::move(message));
    }
    if (edge.credits.has_value()) {
      // Deadlock safety: the acyclicity check below guarantees progress
      // only if every flow-controlled hop can hold at least one flit
      // (sinks drain unconditionally, so one credit per hop suffices for
      // induction along the acyclic downstream order). A zero-credit hop
      // could never transmit at all.
      if (*edge.credits == 0) {
        std::string message = "edge ";
        message += std::to_string(e);
        message += " into ";
        message += label(edge.dst);
        message += " declares a zero-credit buffer (the hop could never "
                   "transmit); use at least one credit, or leave the edge "
                   "at the DagConfig default";
        invalid(std::move(message));
      }
      if (*edge.credits > link::kMaxCreditWindow) {
        std::string message = "edge ";
        message += std::to_string(e);
        message += " credit window exceeds link::kMaxCreditWindow";
        invalid(std::move(message));
      }
      // A hop's buffer lives at its terminating end, so credits are
      // resolved from the edge INTO the receiving termination. An edge
      // entering a hub never terminates a hop — credits set there would
      // be silently inert, so refuse them instead.
      if (kind(edge.dst) == DagNodeKind::kHub) {
        std::string message = "edge ";
        message += std::to_string(e);
        message += " enters hub ";
        message += label(edge.dst);
        message += ", which does not terminate the hop; set credits on "
                   "the hub's egress edge (into the receiving termination)";
        invalid(std::move(message));
      }
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
      if (window.up_at != 0 && window.up_at <= window.down_at) {
        std::string message = "fault window on edge ";
        message += std::to_string(e);
        message += " ends at or before it starts";
        invalid(std::move(message));
      }
    }
  }
  for (const sim::RelayFailStop& failure : config.faults.relay_failures) {
    if (failure.node >= n || kind(failure.node) != DagNodeKind::kRelay) {
      std::string message = "relay fail-stop event at node ";
      message += std::to_string(failure.node);
      message += " does not name a relay";
      invalid(std::move(message));
    }
  }
  {
    std::vector<std::pair<std::uint16_t, std::uint16_t>> pairs;
    pairs.reserve(config.edges.size());
    for (const DagEdge& edge : config.edges)
      pairs.emplace_back(edge.src, edge.dst);
    std::sort(pairs.begin(), pairs.end());
    const auto dup = std::adjacent_find(pairs.begin(), pairs.end());
    if (dup != pairs.end()) {
      std::string message = "duplicate edge ";
      message += label(dup->first);
      message += " -> ";
      message += label(dup->second);
      invalid(std::move(message));
    }
  }

  // Per-node-kind constraints.
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t fanout = out_edges[v].size() + in_edges[v].size();
    if (fanout > config.max_ports) {
      std::string message = label(v);
      message += " exceeds the fan-out limit (";
      message += std::to_string(fanout);
      message += " incident edges, max_ports=";
      message += std::to_string(config.max_ports);
      message += ")";
      invalid(std::move(message));
    }
    switch (kind(v)) {
      case DagNodeKind::kTerminal:
        if (out_edges[v].size() > 1) {
          std::string message = "terminal ";
          message += label(v);
          message += " has more than one uplink edge";
          invalid(std::move(message));
        }
        if (in_edges[v].size() > 1) {
          std::string message = "terminal ";
          message += label(v);
          message += " has more than one downlink edge";
          invalid(std::move(message));
        }
        break;
      case DagNodeKind::kHub:
        if (out_edges[v].empty() || in_edges[v].empty()) {
          std::string message = "hub ";
          message += label(v);
          message += " needs at least one ingress and one egress edge";
          invalid(std::move(message));
        }
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
          if (color[w] == 1) {
            std::string message =
                "the switching core contains a cycle through ";
            message += label(w);
            invalid(std::move(message));
          }
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

  // Per-flow routing: BFS shortest path, ties broken by lowest edge id
  // (out-edge lists are in declaration order, so first-reached wins).
  DagPlan plan;
  plan.flow_paths.resize(config.flows.size());
  plan.flow_segments.resize(config.flows.size());
  std::vector<std::int32_t> origin_flow(n, -1);
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    if (flow.src >= n || flow.dst >= n) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " references a node out of range";
      invalid(std::move(message));
    }
    if (kind(flow.src) != DagNodeKind::kTerminal ||
        kind(flow.dst) != DagNodeKind::kTerminal) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " endpoints must be terminals";
      invalid(std::move(message));
    }
    if (flow.src == flow.dst) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " sends to its own source";
      invalid(std::move(message));
    }
    if (origin_flow[flow.src] >= 0) {
      std::string message = "terminal ";
      message += label(flow.src);
      message += " originates more than one flow";
      invalid(std::move(message));
    }
    origin_flow[flow.src] = static_cast<std::int32_t>(f);
    if (flow.vc >= link::kMaxVcs) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " rides VC ";
      message += std::to_string(flow.vc);
      message += ", beyond link::kMaxVcs";
      invalid(std::move(message));
    }

    std::vector<std::int32_t> parent_edge(n, -1);
    std::vector<std::uint8_t> visited(n, 0);
    std::vector<std::uint16_t> frontier{flow.src};
    visited[flow.src] = 1;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::uint16_t u = frontier[head];
      if (u != flow.src && kind(u) == DagNodeKind::kTerminal) continue;
      for (const std::uint16_t e : out_edges[u]) {
        const std::uint16_t w = config.edges[e].dst;
        if (visited[w]) continue;
        visited[w] = 1;
        parent_edge[w] = static_cast<std::int32_t>(e);
        frontier.push_back(w);
      }
    }
    if (!visited[flow.dst]) {
      std::string message = "flow ";
      message += label(flow.src);
      message += " -> ";
      message += label(flow.dst);
      message += " is unreachable";
      invalid(std::move(message));
    }
    std::vector<std::uint16_t>& path = plan.flow_paths[f];
    for (std::uint16_t v = flow.dst; v != flow.src;) {
      const std::int32_t e = parent_edge[v];
      assert(e >= 0);
      path.push_back(static_cast<std::uint16_t>(e));
      v = config.edges[static_cast<std::size_t>(e)].src;
    }
    std::reverse(path.begin(), path.end());
  }

  // QoS sanity. Relays schedule VCs, not flows, so every flow sharing a VC
  // must declare the same DRR weight — a mismatch would silently pick one.
  {
    std::array<std::int64_t, link::kMaxVcs> vc_weight;
    vc_weight.fill(-1);
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const DagFlow& flow = config.flows[f];
      if (vc_weight[flow.vc] < 0) {
        vc_weight[flow.vc] = static_cast<std::int64_t>(flow.weight);
      } else if (vc_weight[flow.vc] != static_cast<std::int64_t>(flow.weight)) {
        std::string message = "flow ";
        message += std::to_string(f);
        message += " declares weight ";
        message += std::to_string(flow.weight);
        message += " for VC ";
        message += std::to_string(flow.vc);
        message += ", but an earlier flow on the same VC declared ";
        message += std::to_string(vc_weight[flow.vc]);
        invalid(std::move(message));
      }
    }
  }
  // Arrival-process sanity. `pace` is the deterministic-rate shorthand
  // (exactly kPaced with interval = pace), so it cannot combine with a
  // different kind or a conflicting interval; each kind's shape parameters
  // must be present, and parameters of other kinds must be absent — a
  // silently-ignored knob would misstate the offered load.
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    auto flow_invalid = [&](const char* what) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " (";
      message += arrival_kind_name(flow.arrival);
      message += " arrivals) ";
      message += what;
      invalid(std::move(message));
    };
    if (flow.pace > 0 && flow.arrival != ArrivalKind::kGreedy &&
        flow.arrival != ArrivalKind::kPaced)
      flow_invalid(
          "sets pace, the deterministic-rate shorthand; rate-shaped kinds "
          "set interval instead");
    if (flow.pace > 0 && flow.interval > 0 && flow.interval != flow.pace)
      flow_invalid("sets pace and a conflicting interval");
    const TimePs interval = flow.interval > 0 ? flow.interval : flow.pace;
    switch (flow.arrival) {
      case ArrivalKind::kGreedy:
        if (flow.interval > 0)
          flow_invalid("sets interval; pick a rate-shaped arrival kind");
        break;
      case ArrivalKind::kPaced:
      case ArrivalKind::kPoisson:
        if (interval == 0) flow_invalid("needs interval > 0");
        break;
      case ArrivalKind::kOnOff:
        if (interval == 0) flow_invalid("needs interval > 0 (burst spacing)");
        if (flow.off_mean == 0) flow_invalid("needs off_mean > 0");
        if (!(flow.on_mean_flits >= 1.0))
          flow_invalid("needs on_mean_flits >= 1");
        break;
      case ArrivalKind::kClosedLoop:
        if (flow.window == 0) flow_invalid("needs window >= 1");
        if (interval > 0) flow_invalid("takes no pace/interval");
        break;
    }
    if (flow.window > 0 && flow.arrival != ArrivalKind::kClosedLoop)
      flow_invalid("sets window; only closed-loop flows take one");
    if (flow.think > 0 && flow.arrival != ArrivalKind::kClosedLoop)
      flow_invalid("sets think; only closed-loop flows take one");
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
          std::string message = "ISN domain leaving ";
          message += label(segment.origin);
          message += " fans out at hub ";
          message += label(config.edges[*fork.first].src);
          message += " (one TX termination cannot feed two receivers)";
          invalid(std::move(message));
        }
        into.push_back(static_cast<std::uint32_t>(existing));
        continue;
      }
      for (const std::uint16_t e : segment.edges) {
        if (segment_of_edge[e] < 0) continue;
        std::string message = "two ISN domains are multiplexed onto edge ";
        message += label(config.edges[e].src);
        message += " -> ";
        message += label(config.edges[e].dst);
        message += " (an implicit-sequence receiver cannot demux them)";
        invalid(std::move(message));
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
  // whose forward edges are doomed — a permanent down window, or incidence
  // to a fail-stop relay — precompute a detour from the dead segment's
  // origin to the flow's destination over the surviving graph, with the
  // same BFS and lowest-edge-id tie-break as primaries. Backup segments go
  // through the same dedup maps BEFORE mate pairing below, so they pair
  // with reverse topology edges exactly like primary segments. Empty
  // backup_edges records "no surviving route": the reroute controller
  // reports the abandonment and the flow degrades.
  if (!config.faults.empty()) {
    std::vector<std::uint8_t> node_failed(n, 0);
    for (const sim::RelayFailStop& failure : config.faults.relay_failures)
      node_failed[failure.node] = 1;
    std::vector<std::uint8_t> edge_doomed(config.edges.size(), 0);
    for (std::size_t e = 0; e < config.edges.size(); ++e) {
      if (e < config.faults.edges.size() &&
          config.faults.edges[e].permanently_down())
        edge_doomed[e] = 1;
      if (node_failed[config.edges[e].src] != 0 ||
          node_failed[config.edges[e].dst] != 0)
        edge_doomed[e] = 1;
    }
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
        if (node_failed[segment.origin] != 0) continue;
        DagPlan::Reroute reroute;
        reroute.flow = static_cast<std::uint16_t>(f);
        reroute.dead_segment = si;
        std::vector<std::int32_t> parent_edge(n, -1);
        std::vector<std::uint8_t> visited(n, 0);
        std::vector<std::uint16_t> frontier{segment.origin};
        visited[segment.origin] = 1;
        for (std::size_t head = 0; head < frontier.size(); ++head) {
          const std::uint16_t u = frontier[head];
          if (u != segment.origin && kind(u) == DagNodeKind::kTerminal)
            continue;
          for (const std::uint16_t e : out_edges[u]) {
            if (edge_doomed[e] != 0) continue;
            const std::uint16_t w = config.edges[e].dst;
            if (visited[w]) continue;
            visited[w] = 1;
            parent_edge[w] = static_cast<std::int32_t>(e);
            frontier.push_back(w);
          }
        }
        if (visited[flow.dst]) {
          for (std::uint16_t v = flow.dst; v != segment.origin;) {
            const std::int32_t e = parent_edge[v];
            assert(e >= 0);
            reroute.backup_edges.push_back(static_cast<std::uint16_t>(e));
            v = config.edges[static_cast<std::size_t>(e)].src;
          }
          std::reverse(reroute.backup_edges.begin(),
                       reroute.backup_edges.end());
          extract_segments(reroute.backup_edges, reroute.backup_segments);
        }
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
      if (!segment.hub.has_value()) continue;
      const std::size_t credits =
          config.edges[segment.ingress_edge].credits.value_or(
              config.hop_credits);
      if (credits > 0) {
        std::string message =
            "credit flow control on the CXL domain through hub ";
        message += label(*segment.hub);
        message += " would leak credits on silently dropped flits (§4.1 "
                   "losses are invisible to the cumulative return count); "
                   "use RXL, terminate the hop at a relay, or disable "
                   "credits on this edge";
        invalid(std::move(message));
      }
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
// Fault management plane
// ---------------------------------------------------------------------------

namespace {

// Reroute controller: reacts to HopDownEvents raised by hop transmitters,
// reconciles the drained flits against the peer receiver's sequence state,
// quiesces the flow's old path suffix, and swaps flow tables onto the
// precomputed backup route (DagPlan::Reroute). Every decision is a pure
// function of simulation state and the deterministic poll timeline, so
// faulted runs replay bit-identically from their seed like clean ones.
class FaultController {
 public:
  struct Item {
    const DagPlan::Reroute* reroute = nullptr;
    /// RX side of the dead segment, read at detection time to reconcile
    /// which drained flits already got through (null when the peer relay
    /// fail-stopped and its sequence state is gone).
    Endpoint* peer_rx = nullptr;
    bool peer_failed = false;
    /// Switchover site: the dead segment's origin relay and its old/new
    /// egress ports (origin_relay stays null for a terminal origin, which
    /// can never have a backup — its single uplink is the dead hop).
    switchdev::RelaySwitch* origin_relay = nullptr;
    std::size_t old_port = 0;
    std::size_t new_port = 0;
    /// Flow-table writes that activate the backup path, in path order.
    std::vector<std::pair<switchdev::RelaySwitch*, std::size_t>>
        route_installs;
    /// Old-path-suffix probes the quiesce phase polls: transmitters whose
    /// replay buffers and relays whose egress queues must stop holding the
    /// flow before the backup may carry it (or re-injected flits could
    /// overtake older in-flight ones).
    std::vector<Endpoint*> suffix_tx;
    std::vector<switchdev::RelaySwitch*> suffix_relays;
    std::vector<Endpoint::TxItem> to_reinject;
    unsigned polls = 0;
    bool fired = false;
    bool resolved = false;
    DagRerouteReport report;
  };

  FaultController(sim::EventQueue& queue, TimePs poll_period,
                  unsigned poll_limit, std::size_t segment_count)
      : queue_(queue),
        poll_period_(poll_period),
        poll_limit_(poll_limit),
        items_of_segment_(segment_count) {}

  void add_item(Item item) {
    const std::size_t index = items_.size();
    items_of_segment_[item.reroute->dead_segment].push_back(index);
    items_.push_back(std::move(item));
  }

  [[nodiscard]] bool watches(std::uint32_t segment) const {
    return !items_of_segment_[segment].empty();
  }

  void on_hop_down(std::uint32_t segment, Endpoint::HopDownEvent&& event) {
    for (const std::size_t idx : items_of_segment_[segment]) {
      Item& item = items_[idx];
      if (item.fired) continue;
      item.fired = true;
      fired_order_.push_back(idx);
      item.report.flow = item.reroute->flow;
      item.report.segment = segment;
      item.report.detected_at = event.at;
      const std::uint16_t expected =
          item.peer_failed ? 0 : item.peer_rx->debug_expected_seq();
      for (Endpoint::HopDownEvent::DrainedFlit& drained : event.drained) {
        if (drained.item.flow_id != item.reroute->flow) continue;
        item.report.drained += 1;
        // Go-back-N acceptance is in-order and cumulative, so the peer's
        // delivered set is exactly the sequence prefix below its expected
        // number: a drained entry strictly behind it already got through
        // (only its acknowledgment was lost) and must not be re-sent.
        if (!item.peer_failed && link::seq_before(drained.seq, expected)) {
          item.report.reconciled += 1;
          continue;
        }
        item.to_reinject.push_back(std::move(drained.item));
      }
      if (item.reroute->backup_edges.empty()) {
        item.resolved = true;  // no surviving route: the flow degrades
        continue;
      }
      try_switchover(idx);
    }
  }

  [[nodiscard]] std::vector<DagRerouteReport> reports() const {
    std::vector<DagRerouteReport> out;
    out.reserve(fired_order_.size());
    for (const std::size_t idx : fired_order_)
      out.push_back(items_[idx].report);
    return out;
  }

  [[nodiscard]] bool flow_rerouted(std::size_t flow) const {
    for (const Item& item : items_)
      if (item.reroute->flow == flow && item.report.rerouted) return true;
    return false;
  }

  /// Attaches the controller to a flit-lifecycle trace sink: each executed
  /// switchover emits kRerouteDrain (flow tagged, arg = re-injected count).
  void set_trace(obs::TraceSink* sink, std::uint16_t component) noexcept {
    trace_ = sink;
    trace_component_ = component;
  }

 private:
  [[nodiscard]] bool quiet(const Item& item) const {
    const std::uint16_t flow = item.reroute->flow;
    for (switchdev::RelaySwitch* const relay : item.suffix_relays)
      if (relay->has_flow_queued(flow)) return false;
    for (Endpoint* const tx : item.suffix_tx)
      if (tx->tx_holds_flow(flow)) return false;
    return true;
  }

  void try_switchover(std::size_t idx) {
    Item& item = items_[idx];
    if (item.resolved) return;
    if (!quiet(item)) {
      if (item.polls >= poll_limit_) {
        item.resolved = true;  // abandoned: the old suffix never drained
        return;
      }
      item.polls += 1;
      queue_.schedule(poll_period_, [this, idx] { try_switchover(idx); });
      return;
    }
    const std::uint16_t flow = item.reroute->flow;
    for (const auto& [relay, port] : item.route_installs)
      relay->set_route(flow, port);
    if (item.origin_relay != nullptr) {
      // Drained flits precede anything parked in the old egress queue (the
      // replay buffer holds the oldest unacknowledged stream positions), so
      // inject them first, then rotate the parked tail across: per-flow
      // FIFO order survives the switchover end to end.
      for (Endpoint::TxItem& tx_item : item.to_reinject)
        item.origin_relay->inject(item.new_port, std::move(tx_item));
      item.report.reinjected = item.to_reinject.size();
      item.to_reinject.clear();
      item.origin_relay->migrate_pending(item.old_port, item.new_port, flow);
    }
    item.report.rerouted = true;
    item.report.switched_at = queue_.now();
    item.resolved = true;
    if (trace_ != nullptr) {
      obs::TraceEvent event;
      event.at = queue_.now();
      event.truth_index = 0;
      event.component = trace_component_;
      event.flow = flow;
      event.seq = 0;
      event.vc = 0;
      event.kind = obs::TraceEventKind::kRerouteDrain;
      event.arg = static_cast<std::uint32_t>(item.report.reinjected);
      trace_->record(trace_component_, event);
    }
  }

  sim::EventQueue& queue_;
  TimePs poll_period_;
  unsigned poll_limit_;
  std::vector<Item> items_;
  std::vector<std::vector<std::size_t>> items_of_segment_;
  std::vector<std::size_t> fired_order_;  ///< detection order, for reports
  obs::TraceSink* trace_ = nullptr;       ///< flit-lifecycle sink (null = off)
  std::uint16_t trace_component_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Instantiation + run
// ---------------------------------------------------------------------------

DagReport run_dag_fabric(const DagConfig& config) {
  assert(config.horizon > 0);
  const DagPlan plan = plan_dag(config);
  const std::size_t node_count = config.nodes.size();

  sim::EventQueue queue;
  Xoshiro256 seeder(config.seed);
  auto kind = [&](std::size_t node) { return config.nodes[node].kind; };

  // Flit-lifecycle tracing: the sink exists only when enabled, so every
  // emission site in the built components stays a null-pointer no-op on
  // untraced runs. Creating it draws nothing from the fabric seeder — the
  // channel/hub seed sequence (and with it the wire trajectory) is
  // byte-identical with tracing on or off.
  std::unique_ptr<obs::TraceSink> trace_sink;
  if (config.trace.enabled)
    trace_sink = std::make_unique<obs::TraceSink>(config.trace.ring_depth);

  // Compile the fault plan into one normalized schedule per edge: the
  // configured per-edge windows, plus a permanent outage on every edge
  // incident to a fail-stop relay from its failure instant. The vector
  // outlives the run; channels hold pointers into it. With an empty plan
  // nothing here runs and every channel keeps its null-schedule fast path
  // (bit-identical to a build without fault support).
  const bool faults_on = !config.faults.empty();
  std::vector<std::uint8_t> node_failed(node_count, 0);
  std::vector<sim::LinkFaultSchedule> fault_schedules;
  if (faults_on) {
    for (const sim::RelayFailStop& failure : config.faults.relay_failures)
      node_failed[failure.node] = 1;
    fault_schedules.resize(config.edges.size());
    for (std::size_t e = 0; e < config.faults.edges.size(); ++e)
      fault_schedules[e] = config.faults.edges[e];
    for (const sim::RelayFailStop& failure : config.faults.relay_failures) {
      for (std::size_t e = 0; e < config.edges.size(); ++e) {
        if (config.edges[e].src == failure.node ||
            config.edges[e].dst == failure.node)
          fault_schedules[e].add_window(failure.at, 0);
      }
    }
    for (sim::LinkFaultSchedule& schedule : fault_schedules)
      schedule.normalize();
  }

  // Seed draw order is part of the determinism contract (and of the legacy
  // star reproduction): hubs first in node order, then forward channels in
  // edge order, then implicit control wires in domain order. A hub routes
  // by segment index, so its table has one entry per segment.
  std::vector<std::unique_ptr<switchdev::PortSwitch>> hubs(node_count);
  for (std::size_t v = 0; v < node_count; ++v) {
    if (kind(v) != DagNodeKind::kHub) continue;
    const std::uint64_t seed =
        config.nodes[v].seed.has_value() ? *config.nodes[v].seed : seeder();
    switchdev::PortSwitch::Config hub_config;
    hub_config.protocol = config.protocol.protocol;
    hub_config.internal_error_rate = config.hub_internal_error_rate;
    hub_config.forward_latency = config.hub_latency;
    hub_config.ports = plan.segments.size();
    hubs[v] = std::make_unique<switchdev::PortSwitch>(queue, hub_config, seed);
  }
  std::vector<std::unique_ptr<sim::LinkChannel>> channels(config.edges.size());
  for (std::size_t e = 0; e < config.edges.size(); ++e) {
    const DagEdge& edge = config.edges[e];
    const std::uint64_t seed = edge.seed.has_value() ? *edge.seed : seeder();
    channels[e] = std::make_unique<sim::LinkChannel>(
        queue,
        make_error_model(edge.ber, edge.burst_injection_rate,
                         edge.burst_symbols),
        seed, config.slot, edge.latency);
    if (faults_on) channels[e]->set_fault_schedule(&fault_schedules[e]);
  }

  std::vector<std::unique_ptr<switchdev::RelaySwitch>> relays(node_count);
  for (std::size_t v = 0; v < node_count; ++v) {
    if (kind(v) == DagNodeKind::kRelay)
      relays[v] = std::make_unique<switchdev::RelaySwitch>(
          queue, node_label(config, v));
  }

  // Per-hop domains. Unpaired domains carry acknowledgments standalone on
  // the implicit reverse control wire (there is no reverse data to
  // piggyback on); paired domains keep the configured policy. Every hop is
  // provisioned with exactly the VCs the flows demand (1 + the largest VC
  // in use — one VC when every flow rides VC 0, the legacy wire image) and
  // the fabric-wide ECN threshold.
  ProtocolConfig hop_protocol = config.protocol;
  hop_protocol.num_vcs = 1;
  for (const DagFlow& flow : config.flows)
    hop_protocol.num_vcs =
        std::max<std::size_t>(hop_protocol.num_vcs, flow.vc + 1u);
  hop_protocol.ecn_threshold = config.ecn_threshold;
  ProtocolConfig unpaired_protocol = hop_protocol;
  unpaired_protocol.ack_policy = link::AckPolicy::kStandalone;

  std::vector<std::unique_ptr<Endpoint>> terminal_endpoints;
  std::map<std::pair<std::uint16_t, std::uint32_t>, Endpoint*> terminal_of;
  std::map<std::pair<std::uint16_t, std::uint32_t>, std::size_t> relay_port_of;
  std::vector<std::vector<DagRelayPort>> relay_ports(node_count);
  auto attach = [&](std::uint16_t node, std::uint32_t rep,
                    const ProtocolConfig& protocol) -> Endpoint* {
    const std::pair<std::uint16_t, std::uint32_t> key{node, rep};
    if (kind(node) == DagNodeKind::kRelay) {
      const auto it = relay_port_of.find(key);
      if (it != relay_port_of.end()) return &relays[node]->port(it->second);
      const std::size_t port = relays[node]->add_port(protocol);
      relay_port_of.emplace(key, port);
      relay_ports[node].push_back(DagRelayPort{});
      return &relays[node]->port(port);
    }
    const auto it = terminal_of.find(key);
    if (it != terminal_of.end()) return it->second;
    terminal_endpoints.push_back(std::make_unique<Endpoint>(
        queue, protocol, node_label(config, node)));
    terminal_of.emplace(key, terminal_endpoints.back().get());
    return terminal_endpoints.back().get();
  };
  auto note_relay_edges = [&](std::uint16_t node, std::uint32_t rep,
                              std::uint16_t rx_edge, std::uint16_t tx_edge) {
    if (kind(node) != DagNodeKind::kRelay) return;
    DagRelayPort& port = relay_ports[node][relay_port_of.at({node, rep})];
    if (rx_edge != DagRelayPort::kNoEdge) port.rx_edge = rx_edge;
    if (tx_edge != DagRelayPort::kNoEdge) port.tx_edge = tx_edge;
  };

  // Wires one domain direction: every edge of the chain but the last
  // delivers into the hub it enters, whose table routes the segment's tag
  // onto the next edge; the last edge delivers into the receiving side.
  auto wire_segment = [&](std::size_t si, Endpoint* rx) {
    const std::vector<std::uint16_t>& edges = plan.segments[si].edges;
    for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
      switchdev::PortSwitch* const hub = hubs[config.edges[edges[i]].dst].get();
      channels[edges[i]]->set_receiver([hub](sim::FlitEnvelope&& envelope) {
        hub->on_flit(std::move(envelope));
      });
      hub->set_output(si, channels[edges[i + 1]].get());
    }
    channels[edges.back()]->set_receiver([rx](sim::FlitEnvelope&& envelope) {
      rx->on_flit(std::move(envelope));
    });
  };

  struct Domain {
    std::uint32_t rep = 0;
    Endpoint* a = nullptr;
    Endpoint* b = nullptr;
    sim::LinkChannel* forward = nullptr;
    sim::LinkChannel* reverse = nullptr;
  };
  std::vector<Domain> domains;
  std::vector<std::unique_ptr<sim::LinkChannel>> control_channels;
  std::vector<std::uint32_t> rep_of(plan.segments.size(), 0);
  std::vector<std::uint8_t> processed(plan.segments.size(), 0);
  // Per-segment transmitter/receiver endpoints, for the fault controller's
  // hop-down handlers, reconciliation reads, and quiesce probes.
  std::vector<Endpoint*> seg_tx(plan.segments.size(), nullptr);
  std::vector<Endpoint*> seg_rx(plan.segments.size(), nullptr);
  for (std::size_t si = 0; si < plan.segments.size(); ++si) {
    if (processed[si]) continue;
    const DagPlan::Segment& segment = plan.segments[si];
    const bool paired = segment.mate.has_value();
    processed[si] = 1;
    rep_of[si] = static_cast<std::uint32_t>(si);
    if (paired) {
      processed[*segment.mate] = 1;
      rep_of[*segment.mate] = static_cast<std::uint32_t>(si);
    }
    const ProtocolConfig& protocol =
        paired ? hop_protocol : unpaired_protocol;
    // Credit flow control per domain direction: the window for data flowing
    // toward a termination equals the bounded-buffer depth configured on
    // the edge entering it (the relay's store-and-forward slots, or the
    // sink terminal's notional consume buffer).
    auto resolved_credits = [&](const DagPlan::Segment& s) {
      return config.edges[s.ingress_edge].credits.value_or(config.hop_credits);
    };
    ProtocolConfig protocol_a = protocol;
    ProtocolConfig protocol_b = protocol;
    protocol_a.tx_credits = resolved_credits(segment);
    protocol_b.rx_credits = protocol_a.tx_credits;
    if (paired) {
      const DagPlan::Segment& mate = plan.segments[*segment.mate];
      protocol_b.tx_credits = resolved_credits(mate);
      protocol_a.rx_credits = protocol_b.tx_credits;
    }

    Domain domain;
    domain.rep = static_cast<std::uint32_t>(si);
    domain.a = attach(segment.origin, domain.rep, protocol_a);
    domain.b = attach(segment.peer, domain.rep, protocol_b);
    domain.forward = channels[segment.egress_edge].get();
    if (paired) {
      domain.reverse = channels[plan.segments[*segment.mate].egress_edge].get();
    } else {
      const DagEdge& edge = config.edges[segment.egress_edge];
      control_channels.push_back(std::make_unique<sim::LinkChannel>(
          queue,
          make_error_model(edge.ber, edge.burst_injection_rate,
                           edge.burst_symbols),
          seeder(), config.slot, edge.latency));
      domain.reverse = control_channels.back().get();
      // The implicit control wire shares the forward edge's physical link:
      // when that cable is down, acknowledgments die with the data (this is
      // what starves the TX into declaring the hop dead). Paired domains
      // route acks over the mate edge, which carries its own schedule —
      // fault plans for bidirectional hops must down both edges.
      if (faults_on)
        domain.reverse->set_fault_schedule(
            &fault_schedules[segment.egress_edge]);
    }

    domain.a->set_output(domain.forward);
    domain.a->set_dest_port(static_cast<std::uint16_t>(si));
    domain.b->set_output(domain.reverse);
    domain.b->set_dest_port(
        paired ? static_cast<std::uint16_t>(*segment.mate) : std::uint16_t{0});

    Endpoint* const side_a = domain.a;
    wire_segment(si, domain.b);
    if (paired) {
      const DagPlan::Segment& mate = plan.segments[*segment.mate];
      wire_segment(*segment.mate, side_a);
      note_relay_edges(segment.origin, domain.rep,
                       mate.ingress_edge, segment.egress_edge);
      note_relay_edges(segment.peer, domain.rep,
                       segment.ingress_edge, mate.egress_edge);
    } else {
      domain.reverse->set_receiver([side_a](sim::FlitEnvelope&& envelope) {
        side_a->on_flit(std::move(envelope));
      });
      note_relay_edges(segment.origin, domain.rep, DagRelayPort::kNoEdge,
                       segment.egress_edge);
      note_relay_edges(segment.peer, domain.rep, segment.ingress_edge,
                       DagRelayPort::kNoEdge);
    }
    seg_tx[si] = domain.a;
    seg_rx[si] = domain.b;
    if (paired) {
      seg_tx[*segment.mate] = domain.b;
      seg_rx[*segment.mate] = domain.a;
    }
    domains.push_back(domain);
  }

  // Relay flow tables + QoS plumbing: every relay learns each flow's VC
  // (flow ids are fabric-global, and an ingress relay accounts by VC even
  // when only the egress relay routes the flow), the scheduling policy, and
  // the per-VC DRR weights (plan_dag proved flows sharing a VC agree).
  for (std::size_t v = 0; v < node_count; ++v) {
    if (relays[v] == nullptr) continue;
    relays[v]->set_egress_policy(config.egress_policy);
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const DagFlow& flow = config.flows[f];
      if (flow.vc != 0)
        relays[v]->set_flow_vc(static_cast<std::uint16_t>(f), flow.vc);
      relays[v]->set_vc_weight(flow.vc, flow.weight);
    }
  }
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    for (const std::uint32_t si : plan.flow_segments[f]) {
      const DagPlan::Segment& segment = plan.segments[si];
      if (kind(segment.origin) != DagNodeKind::kRelay) continue;
      relays[segment.origin]->set_route(
          static_cast<std::uint16_t>(f),
          relay_port_of.at({segment.origin, rep_of[si]}));
    }
  }

  // Fault management plane: resolve each planned reroute to its runtime
  // pointers and install hop-down handlers on the transmitters of doomed
  // segments. Endpoints on a fail-stop relay still simulate (their incident
  // links just go dark), but their events carry no recoverable state, so
  // the controller never watches them.
  std::unique_ptr<FaultController> controller;
  if (faults_on && !plan.reroutes.empty()) {
    controller = std::make_unique<FaultController>(
        queue, config.reroute_poll, config.reroute_quiesce_limit,
        plan.segments.size());
    for (const DagPlan::Reroute& reroute : plan.reroutes) {
      const DagPlan::Segment& dead = plan.segments[reroute.dead_segment];
      FaultController::Item item;
      item.reroute = &reroute;
      item.peer_failed = node_failed[dead.peer] != 0;
      item.peer_rx = item.peer_failed ? nullptr : seg_rx[reroute.dead_segment];
      if (kind(dead.origin) == DagNodeKind::kRelay) {
        item.origin_relay = relays[dead.origin].get();
        item.old_port =
            relay_port_of.at({dead.origin, rep_of[reroute.dead_segment]});
      }
      if (!reroute.backup_segments.empty()) {
        const std::uint32_t first = reroute.backup_segments.front();
        if (item.origin_relay != nullptr)
          item.new_port = relay_port_of.at({dead.origin, rep_of[first]});
        for (const std::uint32_t si : reroute.backup_segments) {
          const DagPlan::Segment& segment = plan.segments[si];
          if (kind(segment.origin) != DagNodeKind::kRelay) continue;
          item.route_installs.emplace_back(
              relays[segment.origin].get(),
              relay_port_of.at({segment.origin, rep_of[si]}));
        }
      }
      // Old-path suffix: every segment after the dead one still drains
      // in-flight flits toward the destination; the quiesce phase waits for
      // them so re-injected traffic cannot overtake. Probes on a fail-stop
      // relay are skipped — anything it holds is lost, and waiting on its
      // frozen queues would only burn the poll budget.
      const std::vector<std::uint32_t>& fsegs =
          plan.flow_segments[reroute.flow];
      auto it = std::find(fsegs.begin(), fsegs.end(), reroute.dead_segment);
      assert(it != fsegs.end());
      for (++it; it != fsegs.end(); ++it) {
        const DagPlan::Segment& segment = plan.segments[*it];
        if (node_failed[segment.origin] != 0) continue;
        if (kind(segment.origin) == DagNodeKind::kRelay)
          item.suffix_relays.push_back(relays[segment.origin].get());
        item.suffix_tx.push_back(seg_tx[*it]);
      }
      controller->add_item(std::move(item));
    }
    for (std::uint32_t si = 0;
         si < static_cast<std::uint32_t>(plan.segments.size()); ++si) {
      if (!controller->watches(si)) continue;
      FaultController* const ctrl = controller.get();
      seg_tx[si]->set_hop_down([ctrl, si](Endpoint::HopDownEvent&& event) {
        ctrl->on_hop_down(si, std::move(event));
      });
    }
  }

  // Trace-component registration, in a fixed deterministic order: terminal
  // endpoints (map order), then per-relay port endpoints and the relay's
  // routing fabric, forward channels, implicit control wires, and the
  // reroute controller. Component ids are the registration indices, so a
  // capture is comparable across runs and worker counts.
  if (trace_sink != nullptr) {
    obs::TraceSink* const sink = trace_sink.get();
    for (const auto& [key, endpoint] : terminal_of)
      endpoint->set_trace(sink, sink->add_component(endpoint->name()));
    for (std::size_t v = 0; v < node_count; ++v) {
      if (relays[v] == nullptr) continue;
      for (std::size_t p = 0; p < relays[v]->ports(); ++p) {
        Endpoint& port = relays[v]->port(p);
        port.set_trace(sink, sink->add_component(port.name()));
      }
      std::string fabric_name = relays[v]->name();
      fabric_name += ".q";
      relays[v]->set_trace(sink, sink->add_component(std::move(fabric_name)));
    }
    for (std::size_t e = 0; e < channels.size(); ++e) {
      std::string wire_name = "wire.e";
      wire_name += std::to_string(e);
      channels[e]->set_trace(sink, sink->add_component(std::move(wire_name)));
    }
    for (std::size_t w = 0; w < control_channels.size(); ++w) {
      std::string wire_name = "ctrl.w";
      wire_name += std::to_string(w);
      control_channels[w]->set_trace(
          sink, sink->add_component(std::move(wire_name)));
    }
    if (controller != nullptr)
      controller->set_trace(sink, sink->add_component("reroute"));
  }

  // Flow sources and sinks. Per-flow runtime state for arrival processes
  // (one armed wake-up per rate-shaped flow), closed-loop windows, and
  // latency sampling. The sampling footprint is fixed per flow — a
  // log-bucketed histogram plus a kLatencyRingSlots timestamp ring keyed
  // by truth index — so memory no longer grows with run length (raw
  // samples only under the debug opt-in). The vector is sized once, so the
  // sources' and sinks' element pointers stay stable for the whole run.
  // Keep the struct lean: the 16-flow workloads' vector of them sits just
  // under glibc's 128 KiB mmap threshold, and crossing it makes every
  // run's set-up map and fault in fresh pages.
  struct FlowRuntime {
    stats::LatencyHistogram latency;
    std::vector<TimePs> ring_at;          // inject timestamp per ring slot
    std::vector<std::uint64_t> ring_tag;  // truth index stamped in the slot
    std::vector<TimePs> debug_samples;
    std::uint64_t sample_misses = 0;
    bool pace_armed = false;
    bool sample = false;  // stamp the latency ring at each pull
    std::uint16_t id = 0;
    std::optional<ArrivalProcess> arrivals;
    std::optional<ClosedLoopWindow> loop;
    Endpoint* source = nullptr;  // closed-loop completion kick target
    // Source side: the flow, the scoreboard that regenerates its payloads,
    // and how many stream positions it has offered.
    const DagFlow* spec = nullptr;
    txn::StreamScoreboard* board = nullptr;
    std::uint64_t offered = 0;
    sim::EventQueue* queue = nullptr;
    obs::TraceSink* trace = nullptr;

    /// The flow's Endpoint::SourceFn: writes stream position `index` into
    /// the source's retry slot, or returns false while none is offered.
    bool pull(std::uint64_t index, Endpoint::PayloadOut out) {
      if (index >= spec->flits) return false;
      TimePs inject_stamp = queue->now();
      if (arrivals.has_value()) {
        // Rate-shaped source: index i is offered no earlier than its
        // arrival due-time. A premature pull arms one wake-up kick at the
        // due instant, so the flow needs no external traffic to resume
        // (and arms at most one timer however often the endpoint polls
        // meanwhile).
        const TimePs due = arrivals->due(index);
        const TimePs now = queue->now();
        if (now < due) {
          if (!pace_armed) {
            pace_armed = true;
            queue->schedule(due - now, [this] {
              pace_armed = false;
              source->kick();
            });
          }
          return false;
        }
        // Latency is measured from the ARRIVAL, not the pull: under
        // overload the source-side backlog is part of the delay, which is
        // what makes a load-latency curve inflect past saturation.
        inject_stamp = due;
      } else if (loop.has_value()) {
        if (!loop->may_offer()) return false;
        loop->on_offer();
      }
      if (sample) {
        const std::size_t slot =
            static_cast<std::size_t>(index) % ring_tag.size();
        ring_tag[slot] = index;
        ring_at[slot] = inject_stamp;
      }
      if (trace != nullptr) {
        // Stamped with the arrival DUE time — the same origin the latency
        // ring stores — so a reconstructed journey's hop sums equal the
        // histogram-recorded end-to-end sample exactly.
        obs::TraceEvent event;
        event.at = inject_stamp;
        event.truth_index = index;
        event.component = source->trace_component();
        event.flow = id;
        event.seq = 0;
        event.vc = spec->vc;
        event.kind = obs::TraceEventKind::kInject;
        event.arg = 0;
        trace->record(event.component, event);
      }
      fill_stream_payload(index, spec->salt, out);
      board->register_sent(index);
      offered = index + 1;
      return true;
    }
  };
  std::vector<txn::StreamScoreboard> boards;
  boards.reserve(config.flows.size());
  for (const DagFlow& flow : config.flows) {
    boards.emplace_back([salt = flow.salt](std::uint64_t index,
                                           Endpoint::PayloadOut out) {
      fill_stream_payload(index, salt, out);
    });
  }
  std::vector<FlowRuntime> flow_runtime(config.flows.size());
  const bool sample = config.sample_latency || config.debug_latency_samples;
  const bool debug = config.debug_latency_samples;
  std::uint64_t misrouted = 0;
  std::uint64_t trace_delivered = 0;  ///< time-series goodput counter
  for (const auto& [key, endpoint] : terminal_of) {
    const std::uint16_t node = key.first;
    const DagFlow* const flow_base = config.flows.data();
    const std::size_t flow_count = config.flows.size();
    std::uint64_t* const misrouted_ptr = &misrouted;
    std::uint64_t* const delivered_ptr = &trace_delivered;
    FlowRuntime* const runtime_base = flow_runtime.data();
    sim::EventQueue* const queue_ptr = &queue;
    endpoint->set_deliver([flow_base, flow_count, misrouted_ptr,
                           delivered_ptr, node, runtime_base, queue_ptr,
                           sample, debug](std::span<const std::uint8_t> payload,
                                          const sim::FlitEnvelope& envelope) {
      if (envelope.has_truth && envelope.flow_id < flow_count &&
          flow_base[envelope.flow_id].dst == node) {
        FlowRuntime& runtime = runtime_base[envelope.flow_id];
        runtime.board->on_deliver(payload, envelope);
        *delivered_ptr += 1;
        if (sample) {
          // The ring slot still carries this truth index unless the flow
          // fell more than kLatencyRingSlots behind its newest pull; an
          // overwritten slot is a MISS, counted instead of silently
          // skipped (samples must never undercount without a signal).
          const std::size_t slot =
              static_cast<std::size_t>(envelope.truth_index) %
              runtime.ring_tag.size();
          if (runtime.ring_tag[slot] == envelope.truth_index) {
            const TimePs delay = queue_ptr->now() - runtime.ring_at[slot];
            runtime.latency.add(delay);
            if (debug) runtime.debug_samples.push_back(delay);
          } else {
            runtime.sample_misses += 1;
          }
        }
        if (runtime.loop.has_value()) {
          // Closed loop: this completion frees a window slot after the
          // think time, then re-kicks the source.
          ClosedLoopWindow* const loop = &*runtime.loop;
          Endpoint* const src = runtime.source;
          queue_ptr->schedule(loop->think(), [loop, src] {
            loop->on_ready();
            src->kick();
          });
        }
      } else {
        *misrouted_ptr += 1;
      }
    });
  }
  std::vector<Endpoint*> flow_sources(config.flows.size(), nullptr);
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    const std::uint32_t first = plan.flow_segments[f].front();
    Endpoint* const source = terminal_of.at({flow.src, rep_of[first]});
    flow_sources[f] = source;
    source->set_flow_id(static_cast<std::uint16_t>(f));
    if (flow.vc != 0) {
      source->set_tx_vc(flow.vc);
      const std::uint32_t last = plan.flow_segments[f].back();
      terminal_of.at({flow.dst, rep_of[last]})
          ->set_rx_flow_vc(static_cast<std::uint16_t>(f), flow.vc);
    }
    FlowRuntime* const runtime = &flow_runtime[f];
    runtime->source = source;
    runtime->sample = sample;
    runtime->id = static_cast<std::uint16_t>(f);
    runtime->spec = &flow;
    runtime->board = &boards[f];
    runtime->queue = &queue;
    runtime->trace = trace_sink.get();
    ArrivalKind arrival = flow.arrival;
    if (arrival == ArrivalKind::kGreedy && flow.pace > 0)
      arrival = ArrivalKind::kPaced;  // legacy shorthand
    if (arrival == ArrivalKind::kPaced || arrival == ArrivalKind::kPoisson ||
        arrival == ArrivalKind::kOnOff) {
      ArrivalSpec arrival_spec;
      arrival_spec.kind = arrival;
      arrival_spec.interval = flow.interval > 0 ? flow.interval : flow.pace;
      arrival_spec.on_mean_flits = flow.on_mean_flits;
      arrival_spec.off_mean = flow.off_mean;
      // Private per-flow stream, NOT drawn from the fabric seeder: an
      // extra seeder draw here would shift every channel seed and change
      // the wire trajectory of flows that use no randomness at all.
      arrival_spec.seed =
          config.seed ^
          (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(f) + 1)) ^
          flow.arrival_seed;
      runtime->arrivals.emplace(arrival_spec);
    } else if (arrival == ArrivalKind::kClosedLoop) {
      runtime->loop.emplace(flow.window, flow.think);
    }
    if (sample) {
      const std::uint64_t depth = std::min<std::uint64_t>(
          kLatencyRingSlots, std::max<std::uint64_t>(flow.flits, 1));
      runtime->ring_at.assign(static_cast<std::size_t>(depth), 0);
      runtime->ring_tag.assign(static_cast<std::size_t>(depth),
                               ~std::uint64_t{0});
    }
    source->set_source(
        [runtime](std::uint64_t index, Endpoint::PayloadOut out) {
          return runtime->pull(index, out);
        });
  }

  // Occupancy/goodput time-series sampler: a self-rescheduling observation
  // event that only READS counters, so the trajectory is untouched (the
  // traced-vs-untraced report-equality test pins this).
  struct TraceSampler {
    sim::EventQueue* queue = nullptr;
    TimePs period = 0;
    const std::uint64_t* delivered = nullptr;
    const std::vector<std::unique_ptr<switchdev::RelaySwitch>>* relays =
        nullptr;
    std::vector<obs::TimeSeriesPoint>* out = nullptr;
    void tick() {
      std::uint64_t queued = 0;
      for (const auto& relay : *relays) {
        if (relay == nullptr) continue;
        for (std::size_t p = 0; p < relay->ports(); ++p)
          queued += relay->port_stats(p).queue_occupancy;
      }
      out->push_back(obs::TimeSeriesPoint{queue->now(), *delivered, queued});
      queue->schedule(period, [this] { tick(); });
    }
  };
  std::vector<obs::TimeSeriesPoint> timeseries;
  TraceSampler sampler;
  if (trace_sink != nullptr && config.trace.sample_period > 0) {
    sampler.queue = &queue;
    sampler.period = config.trace.sample_period;
    sampler.delivered = &trace_delivered;
    sampler.relays = &relays;
    sampler.out = &timeseries;
    queue.schedule(config.trace.sample_period,
                   [s = &sampler] { s->tick(); });
  }

  for (Endpoint* const source : flow_sources) source->kick();
  queue.run_until(config.horizon);

  // Reports.
  DagReport report;
  report.slots = config.slot > 0
                     ? static_cast<std::uint64_t>(config.horizon / config.slot)
                     : 0;
  report.misrouted = misrouted;
  report.flows.resize(config.flows.size());
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    DagFlowReport& flow_report = report.flows[f];
    flow_report.src = config.flows[f].src;
    flow_report.dst = config.flows[f].dst;
    flow_report.offered = flow_runtime[f].offered;
    flow_report.scoreboard = boards[f].finalize();
    flow_report.path_edges = plan.flow_paths[f];
    flow_report.rerouted =
        controller != nullptr && controller->flow_rerouted(f);
    flow_report.latency = flow_runtime[f].latency;
    flow_report.latency_sample_misses = flow_runtime[f].sample_misses;
    flow_report.latency_samples = std::move(flow_runtime[f].debug_samples);
  }
  if (controller != nullptr) report.reroutes = controller->reports();
  for (const Domain& domain : domains) {
    const DagPlan::Segment& segment = plan.segments[domain.rep];
    DagLinkStats hop;
    hop.segment = domain.rep;
    hop.node_a = segment.origin;
    hop.node_b = segment.peer;
    hop.forward_edge = segment.egress_edge;
    hop.paired = segment.mate.has_value();
    hop.crosses_hub = segment.hub.has_value();
    const Endpoint::Snapshot snap_a = domain.a->snapshot();
    const Endpoint::Snapshot snap_b = domain.b->snapshot();
    hop.a = snap_a.link;
    hop.b = snap_b.link;
    hop.a_extra = snap_a.extra;
    hop.b_extra = snap_b.extra;
    for (std::size_t v = 0; v < domain.a->credit_windows().num_vcs(); ++v) {
      hop.a_vc_consumed[v] = domain.a->credit_windows().vc(v).consumed();
      hop.b_vc_consumed[v] = domain.b->credit_windows().vc(v).consumed();
      hop.a_vc_returned[v] = domain.a->credit_ledgers().vc(v).returned();
      hop.b_vc_returned[v] = domain.b->credit_ledgers().vc(v).returned();
    }
    hop.forward_channel = domain.forward->snapshot();
    hop.reverse_channel = domain.reverse->snapshot();
    report.hops.push_back(hop);
  }
  report.channels.reserve(channels.size());
  for (const auto& channel : channels)
    report.channels.push_back(channel->snapshot());
  for (std::size_t v = 0; v < node_count; ++v) {
    if (kind(v) == DagNodeKind::kRelay) {
      DagRelayReport relay_report;
      relay_report.node = static_cast<std::uint16_t>(v);
      relay_report.ports = relay_ports[v];
      for (std::size_t p = 0; p < relay_report.ports.size(); ++p)
        relay_report.ports[p].stats = relays[v]->snapshot(p);
      report.relays.push_back(std::move(relay_report));
    } else if (kind(v) == DagNodeKind::kHub) {
      report.hubs.push_back(
          DagHubReport{static_cast<std::uint16_t>(v), hubs[v]->stats()});
    }
  }
  if (trace_sink != nullptr) {
    report.trace = trace_sink->capture();
    report.timeseries = std::move(timeseries);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Report aggregates
// ---------------------------------------------------------------------------

std::uint64_t DagReport::total_offered() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows) total += flow.offered;
  return total;
}

std::uint64_t DagReport::total_in_order() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows) total += flow.scoreboard.in_order;
  return total;
}

std::uint64_t DagReport::total_order_failures() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows)
    total += flow.scoreboard.order_violations + flow.scoreboard.duplicates;
  return total;
}

std::uint64_t DagReport::total_missing() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows) total += flow.scoreboard.missing;
  return total;
}

std::uint64_t DagReport::total_data_corruptions() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows)
    total += flow.scoreboard.data_corruptions;
  return total;
}

std::uint64_t DagReport::total_hop_retransmissions() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a.data_flits_retransmitted + hop.b.data_flits_retransmitted;
  return total;
}

std::uint64_t DagReport::total_relay_no_route_drops() const {
  std::uint64_t total = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      total += port.stats.dropped_no_route;
  return total;
}

std::uint64_t DagReport::total_credit_stalls() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credit_stalls + hop.b_extra.credit_stalls;
  return total;
}

std::uint64_t DagReport::total_credits_consumed() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credits_consumed + hop.b_extra.credits_consumed;
  return total;
}

std::uint64_t DagReport::total_credits_returned() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credits_returned + hop.b_extra.credits_returned;
  return total;
}

std::uint64_t DagReport::total_credits_granted() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credits_granted + hop.b_extra.credits_granted;
  return total;
}

std::uint64_t DagReport::max_ingress_occupancy() const {
  std::uint64_t highest = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      if (port.stats.ingress_high_water > highest)
        highest = port.stats.ingress_high_water;
  return highest;
}

std::uint64_t DagReport::max_relay_queue_depth() const {
  std::uint64_t highest = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      if (port.stats.max_queue_depth > highest)
        highest = port.stats.max_queue_depth;
  return highest;
}

std::uint64_t DagReport::total_ecn_mark_events() const {
  std::uint64_t total = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      total += port.stats.ecn_mark_events;
  return total;
}

std::uint64_t DagReport::total_ecn_stalls() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.ecn_stalls + hop.b_extra.ecn_stalls;
  return total;
}

std::uint64_t DagReport::total_hops_declared_dead() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.hops_declared_dead + hop.b_extra.hops_declared_dead;
  return total;
}

std::uint64_t DagReport::total_dead_flits_drained() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.dead_flits_drained + hop.b_extra.dead_flits_drained;
  return total;
}

std::uint64_t DagReport::total_credits_refunded() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credits_refunded + hop.b_extra.credits_refunded;
  return total;
}

std::uint64_t DagReport::total_flap_recoveries() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.flap_recoveries + hop.b_extra.flap_recoveries;
  return total;
}

std::uint64_t DagReport::total_flits_blackholed() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.forward_channel.flits_blackholed +
             hop.reverse_channel.flits_blackholed;
  return total;
}

std::uint64_t DagReport::total_reroutes_executed() const {
  std::uint64_t total = 0;
  for (const DagRerouteReport& reroute : reroutes)
    if (reroute.rerouted) total += 1;
  return total;
}

stats::LatencyHistogram DagReport::merged_latency() const {
  stats::LatencyHistogram merged;
  for (const DagFlowReport& flow : flows) merged.merge(flow.latency);
  return merged;
}

std::uint64_t DagReport::total_latency_sample_misses() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows)
    total += flow.latency_sample_misses;
  return total;
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
/// an empty list leaves the unweighted builder output untouched.
void apply_flow_classes(DagConfig& config,
                        std::span<const DagFlowClass> classes) {
  if (classes.empty()) return;
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlowClass& klass = classes[f % classes.size()];
    DagFlow& flow = config.flows[f];
    flow.vc = klass.vc;
    flow.weight = klass.weight;
    flow.pace = klass.pace;
    if (klass.flits > 0) flow.flits = klass.flits;
  }
}

DagEdge scenario_edge(const DagScenarioSpec& spec, std::uint16_t src,
                      std::uint16_t dst) {
  DagEdge edge;
  edge.src = src;
  edge.dst = dst;
  edge.ber = spec.ber;
  edge.burst_injection_rate = spec.burst_injection_rate;
  edge.burst_symbols = spec.burst_symbols;
  edge.latency = spec.latency;
  return edge;
}

}  // namespace

DagConfig make_chain_dag(const DagScenarioSpec& spec, std::size_t relays) {
  DagConfig config = base_scenario_config(spec);
  config.nodes.push_back(DagNode{"src", DagNodeKind::kTerminal, {}});
  for (std::size_t r = 0; r < relays; ++r) {
    std::string name = "relay";
    name += std::to_string(r + 1);
    config.nodes.push_back(DagNode{std::move(name), DagNodeKind::kRelay, {}});
  }
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
  for (int i = 0; i < 4; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  config.nodes.push_back(DagNode{"r10", DagNodeKind::kRelay, {}});  // id 4
  config.nodes.push_back(DagNode{"r11", DagNodeKind::kRelay, {}});  // id 5
  config.nodes.push_back(DagNode{"r20", DagNodeKind::kRelay, {}});  // id 6
  config.nodes.push_back(DagNode{"r21", DagNodeKind::kRelay, {}});  // id 7
  for (int i = 0; i < 4; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }  // ids 8..11
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
  for (int i = 0; i < 4; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  config.nodes.push_back(DagNode{"up0", DagNodeKind::kRelay, {}});    // id 4
  config.nodes.push_back(DagNode{"up1", DagNodeKind::kRelay, {}});    // id 5
  config.nodes.push_back(DagNode{"spine", DagNodeKind::kRelay, {}});  // id 6
  config.nodes.push_back(DagNode{"down0", DagNodeKind::kRelay, {}});  // id 7
  config.nodes.push_back(DagNode{"down1", DagNodeKind::kRelay, {}});  // id 8
  for (int i = 0; i < 4; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }  // ids 9..12
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

DagConfig make_incast_dag(const DagScenarioSpec& spec, std::size_t sources) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "src";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t relay = static_cast<std::uint16_t>(sources);
  const std::uint16_t sink = static_cast<std::uint16_t>(sources + 1);
  config.nodes.push_back(DagNode{"relay", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"sink", DagNodeKind::kTerminal, {}});
  config.max_ports = std::max(config.max_ports, sources + 1);
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
  return config;
}

DagConfig make_incast_dag(const DagScenarioSpec& spec, std::size_t sources,
                          std::span<const DagFlowClass> classes) {
  DagConfig config = make_incast_dag(spec, sources);
  apply_flow_classes(config, classes);
  return config;
}

DagConfig make_hotspot_dag(const DagScenarioSpec& spec, std::size_t sources) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "src";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t relay = static_cast<std::uint16_t>(sources);
  const std::uint16_t hot = static_cast<std::uint16_t>(sources + 1);
  const std::uint16_t cold = static_cast<std::uint16_t>(sources + 2);
  config.nodes.push_back(DagNode{"relay", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"hot", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"cold", DagNodeKind::kTerminal, {}});
  config.max_ports = std::max(config.max_ports, sources + 2);
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
  return config;
}

DagConfig make_hotspot_dag(const DagScenarioSpec& spec, std::size_t sources,
                           std::span<const DagFlowClass> classes) {
  DagConfig config = make_hotspot_dag(spec, sources);
  apply_flow_classes(config, classes);
  return config;
}

DagConfig make_diamond_dag(const DagScenarioSpec& spec, std::size_t sources,
                           std::size_t branches) {
  assert(sources >= 1 && branches >= 1);
  DagConfig config = base_scenario_config(spec);
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "src";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t r0 = static_cast<std::uint16_t>(sources);
  config.nodes.push_back(DagNode{"r0", DagNodeKind::kRelay, {}});
  for (std::size_t j = 0; j < branches; ++j) {
    std::string name = "m";
    name += std::to_string(j);
    config.nodes.push_back(DagNode{std::move(name), DagNodeKind::kRelay, {}});
  }
  const std::uint16_t r1 = static_cast<std::uint16_t>(sources + branches + 1);
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "dst";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  config.max_ports = std::max(config.max_ports, sources + branches);
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

DagConfig make_trunk_dag(const DagScenarioSpec& spec, std::size_t sources) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "src";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t r1 = static_cast<std::uint16_t>(sources);
  const std::uint16_t r2 = static_cast<std::uint16_t>(sources + 1);
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"r2", DagNodeKind::kRelay, {}});
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "dst";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  config.max_ports = std::max(config.max_ports, sources + 1);
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
  return config;
}

DagConfig make_trunk_dag(const DagScenarioSpec& spec, std::size_t sources,
                         std::span<const DagFlowClass> classes) {
  DagConfig config = make_trunk_dag(spec, sources);
  apply_flow_classes(config, classes);
  return config;
}

// ---------------------------------------------------------------------------
// The legacy star fabric as a one-hub DAG
// ---------------------------------------------------------------------------

DagConfig make_star_dag(const StarConfig& config) {
  DagConfig dag;
  dag.protocol = config.protocol;
  dag.slot = config.slot;
  dag.hub_latency = config.switch_latency;
  dag.hub_internal_error_rate = config.switch_internal_error_rate;
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

  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "host";
    name += std::to_string(i);
    dag.nodes.push_back(DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "dev";
    name += std::to_string(i);
    dag.nodes.push_back(DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t hub = static_cast<std::uint16_t>(2 * n);
  dag.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, hub_seed});
  // 2N terminals + the hub: keep validation permissive for large stars.
  dag.max_ports = std::max<std::size_t>(dag.max_ports, 4 * n);

  auto star_edge = [&](std::uint16_t src, std::uint16_t dst) {
    DagEdge edge;
    edge.src = src;
    edge.dst = dst;
    edge.ber = config.ber;
    edge.burst_injection_rate = config.burst_injection_rate;
    edge.burst_symbols = config.burst_symbols;
    edge.latency = config.propagation_latency;
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
  for (const char* direction : {"down", "up"}) {
    for (unsigned level = 1; level <= switch_levels; ++level) {
      std::string name = direction;
      name += std::to_string(level);
      config.nodes.push_back(DagNode{std::move(name), DagNodeKind::kHub, {}});
    }
  }
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
