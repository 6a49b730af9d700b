// Multi-hop DAG fabrics with per-hop ISN domains.
//
// Every simulated fabric is built here, by graph construction over three
// node kinds:
//  * kTerminal — a flow source/sink (one NIC: at most one uplink edge and
//    one downlink edge).
//  * kRelay    — a DNP-style store-and-forward switch that TERMINATES the
//    link protocol on every port (switchdev::RelaySwitch): each incident
//    hop is its own ISN/CRC + retry domain with independent sequence state.
//  * kHub      — a transparent multi-port switch (switchdev::PortSwitch)
//    that forwards without touching sequence numbers, splicing the ISN
//    domain through — exactly the paper's switch model. The paper's
//    host <-> N-level <-> device fabric is a chain of hubs per direction
//    (make_linear_dag); the star is endpoints around one hub.
//
// Edges are directed links, each with its own ErrorModel parameters and
// channel seed. An ISN domain spans termination-to-termination: a direct
// edge between terminating nodes, or a chain of edges through one or more
// hubs. When the topology also contains the reverse segment, the domain is
// bidirectional (one Endpoint per side, ACKs piggyback); otherwise an
// implicit reverse control channel is synthesised and ACKs travel
// standalone.
//
// Routing is deterministic and table-driven: per-flow shortest paths
// (breadth-first, ties broken by lowest edge id) compiled into per-relay
// flow tables and per-domain hub routing tags. plan_dag() validates the
// topology (acyclicity of the switching core, reachability, domain
// exclusivity) before anything is instantiated.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rxl/link/link_layer.hpp"
#include "rxl/obs/trace.hpp"
#include "rxl/sim/fault_plan.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/switchdev/port_switch.hpp"
#include "rxl/switchdev/relay_switch.hpp"
#include "rxl/transport/config.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/transport/star_fabric.hpp"
#include "rxl/transport/traffic_gen.hpp"
#include "rxl/txn/scoreboard.hpp"

namespace rxl::transport {

enum class DagNodeKind : std::uint8_t { kTerminal = 0, kRelay, kHub };

struct DagNode {
  std::string name;
  DagNodeKind kind = DagNodeKind::kTerminal;
  /// Hub internal-corruption RNG seed; drawn from the fabric seeder when
  /// unset. Explicit seeds exist so legacy harnesses can be reproduced
  /// draw-for-draw (see make_star_dag and make_linear_dag).
  std::optional<std::uint64_t> seed;
};

struct DagEdge {
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  double ber = 0.0;
  /// Per-flit probability of a 4-symbol burst (one past the FEC's
  /// correction limit).
  double burst_injection_rate = 0.0;
  TimePs latency = 8'000;
  /// Forward-channel error-stream seed; drawn from the fabric seeder when
  /// unset.
  std::optional<std::uint64_t> seed;
  /// Bounded-buffer depth (= credit window) at the termination this edge's
  /// data flows INTO, overriding DagConfig::hop_credits for the hop whose
  /// last edge this is. Must be >= 1 when set (plan_dag rejects 0: a
  /// zero-credit hop could never transmit), <= link::kMaxCreditWindow, and
  /// set only on a hop's FINAL edge — plan_dag rejects credits on an edge
  /// entering a hub, where they would be silently inert.
  std::optional<std::size_t> credits;
};

struct DagFlow {
  std::uint16_t src = 0;  ///< source terminal node id
  std::uint16_t dst = 0;  ///< destination terminal node id
  std::uint64_t flits = 0;
  std::uint64_t salt = 0;  ///< payload stream salt
  /// Virtual channel this flow rides end to end: which per-VC relay queue
  /// parks it, which credit partition it bills, and which ECN mark throttles
  /// it. Must be < link::kMaxVcs; every hop carries DagPlan::vcs = 1 + the
  /// largest VC any flow uses (all-zero = legacy wire image,
  /// byte-identical).
  std::uint8_t vc = 0;
  /// DRR service weight for this flow's VC (flits per scheduler visit).
  /// Every flow sharing a VC must declare the same weight (plan_dag rejects
  /// a mismatch — the relay schedules VCs, not flows). Weight 0 is legal:
  /// the scheduler's quantum floor still serves one flit per round.
  std::uint32_t weight = 1;
  /// Arrival process driving this flow's source (see traffic_gen.hpp).
  /// kGreedy (the default) offers every payload immediately — the legacy
  /// pull-limited source, byte-identical on the wire. A kPoisson stream is
  /// seeded from DagConfig::seed and the flow index, so two flows with
  /// identical specs never share an arrival sequence.
  ArrivalKind arrival = ArrivalKind::kGreedy;
  /// Mean inter-arrival time (kPaced/kPoisson; 0 for kGreedy).
  TimePs interval = 0;
};

struct DagConfig {
  ProtocolConfig protocol;
  std::vector<DagNode> nodes;
  std::vector<DagEdge> edges;
  std::vector<DagFlow> flows;
  /// Probability of internal corruption per flit transiting each hub.
  double hub_internal_error_rate = 0.0;
  TimePs slot = kFlitSlotPs;
  std::uint64_t seed = 1;
  TimePs horizon = 0;
  /// Default per-hop bounded-buffer depth (= credit window) applied to
  /// every ISN domain direction; DagEdge::credits overrides per edge.
  /// 0 = flow control off everywhere (unbounded relay queues — the
  /// pre-credit behaviour, byte-identical on the wire).
  std::size_t hop_credits = 0;
  /// Fault-injection timeline (link down/flap windows per edge, relay
  /// fail-stop events). Empty (the default) means every channel keeps its
  /// null-schedule fast path and the run is byte-identical to a build
  /// without fault support. A relay fail-stop at time T compiles into
  /// permanent down windows on every edge incident to that relay.
  sim::FaultPlan faults;
  /// Egress scheduling policy applied to every relay (kFifo = the legacy
  /// shared queue, trajectory-identical when every flow rides VC 0).
  switchdev::EgressPolicy egress_policy = switchdev::EgressPolicy::kFifo;
  /// ECN-style early backpressure: a relay ingress VC whose occupancy
  /// reaches this many slots marks the upstream hop's control flits, and
  /// the upstream endpoint stops injecting NEW flits on that VC until the
  /// occupancy drains to half the threshold (hysteresis). 0 = disabled.
  /// Requires credit flow control (plan_dag rejects ECN with every hop
  /// unbounded — the mark byte is only honoured on credited hops).
  std::size_t ecn_threshold = 0;
  /// Record per-flow end-to-end latency (arrival-due or source-pull ->
  /// sink delivery) into DagFlowReport::latency. Off by default; the
  /// recording footprint is fixed (a log-bucketed histogram plus a
  /// kLatencyRingSlots timestamp ring per flow) regardless of run length.
  bool sample_latency = false;
  /// Debug opt-in: additionally keep every raw sample in delivery order in
  /// DagFlowReport::latency_samples (memory proportional to delivered
  /// flits — exactly what the histogram exists to avoid). Implies
  /// sample_latency.
  bool debug_latency_samples = false;
  /// Flit-lifecycle tracing (see obs/trace.hpp). Disabled by default: every
  /// emission site is then a no-op null-pointer branch, and the run is
  /// trajectory-identical to a build without tracing (the trace-off CI diff
  /// pins this). Enabling tracing draws no RNG and schedules no events
  /// except the optional time-series sampler, which only reads counters —
  /// traced and untraced runs of one config produce identical reports.
  obs::TraceSpec trace;
};

/// Per-flow inject-timestamp ring depth for latency sampling: timestamps
/// are keyed by truth index modulo this, so a delivery more than
/// kLatencyRingSlots behind the newest pull has lost its timestamp and
/// counts into DagFlowReport::latency_sample_misses instead of sampling.
/// Sized far above any credited fabric's per-flow outstanding bound
/// (retry windows + relay queues are hundreds, not thousands).
inline constexpr std::size_t kLatencyRingSlots = 4096;

/// The compiled plan: what plan_dag() validates and decides (routes, each
/// hop's credits and VCs, DRR weights, fault timelines) and run_dag_fabric()
/// builds. Exposed so tests can pin those decisions directly.
struct DagPlan {
  /// One ISN domain direction: origin termination -> peer termination,
  /// directly or through a chain of hubs. The origin stamps the segment's
  /// index as the flits' dest_port, and every hub on the chain routes that
  /// tag onto the chain's next edge.
  struct Segment {
    std::uint16_t origin = 0;  ///< terminating node the data leaves
    std::uint16_t peer = 0;    ///< terminating node the data reaches
    std::uint16_t egress_edge = 0;   ///< edge out of origin
    std::uint16_t ingress_edge = 0;  ///< edge into peer (== egress if direct)
    /// The run's edges in path order, egress_edge first and ingress_edge
    /// last: one edge when direct, one more per hub crossed.
    std::vector<std::uint16_t> edges;
    std::optional<std::uint16_t> hub;  ///< first hub crossed
    /// Index of the reverse segment when the topology carries one (the
    /// domain is then bidirectional and ACKs piggyback on reverse data).
    std::optional<std::uint32_t> mate;
    /// Credit window (the buffer depth at peer): DagEdge::credits on
    /// ingress_edge, else DagConfig::hop_credits (0 = flow control off).
    std::size_t credits = 0;
  };
  /// A precomputed backup route: when `dead_segment` of `flow`'s primary
  /// path dies (one of its edges is doomed: its compiled timeline in
  /// edge_faults ends down for good, as every edge incident to a fail-stop
  /// relay does), the flow re-enters the fabric at the dead segment's
  /// ORIGIN and follows `backup_edges` to its destination. Computed by the
  /// same deterministic BFS as primaries (lowest edge id breaks ties) on
  /// the surviving graph, doomed edges excluded. Empty backup_edges = no
  /// surviving route (the flow degrades; run_dag_fabric reports the
  /// episode, not rerouted). run_dag_fabric's reroute controller reads it
  /// when it acts: Fabric::on_hop_down reconciles the dead segment's drained
  /// flits, Fabric::old_path_quiet probes flow_segments[flow] past
  /// dead_segment, and Fabric::try_switchover routes the flow along
  /// backup_segments (Fabric::install_routes) and re-originates it at the
  /// dead segment's origin relay.
  struct Reroute {
    std::uint16_t flow = 0;
    std::uint32_t dead_segment = 0;
    std::vector<std::uint16_t> backup_edges;
    std::vector<std::uint32_t> backup_segments;  ///< into DagPlan::segments
  };
  std::vector<std::vector<std::uint16_t>> flow_paths;  ///< edge ids per flow
  std::vector<Segment> segments;                       ///< deduplicated
  std::vector<std::vector<std::uint32_t>> flow_segments;  ///< per flow
  std::vector<Reroute> reroutes;  ///< one per (flow, doomed primary segment)
  std::size_t vcs = 1;  ///< VCs every hop carries: 1 + the largest in use
  /// Every relay's DRR weights: each VC's declared weight, 1 if unused.
  switchdev::VcWeights vc_weights{1, 1, 1, 1, 1, 1, 1, 1};
  /// Per edge, the fault plan's windows plus a permanent outage from each
  /// incident relay's fail-stop, normalized; empty without faults.
  std::vector<sim::LinkFaultSchedule> edge_faults;
  std::vector<std::uint8_t> failed;  ///< by node: 1 = relay fail-stops
};

/// Validates the topology and compiles the plan, the one place each hop's
/// credits, VCs, DRR weights and fault timeline are decided.
/// Throws std::invalid_argument (with the offending node/edge named) on:
/// bad indices, self/duplicate edges, terminals with more than one
/// uplink/downlink, idle hubs, a cyclic switching core, unreachable flows,
/// several flows originating at one terminal, an ISN domain that forks at
/// a hub, two ISN domains sharing an edge, or
/// a credit configuration that could deadlock (an explicit zero-credit
/// edge, a window beyond link::kMaxCreditWindow, or credits on a CXL
/// domain crossing a transparent hub — §4.1 silent drops would leak
/// window slots forever). The acyclic switching
/// core plus >= 1 credit per flow-controlled hop is the plan-time
/// deadlock-safety argument: sinks always drain, so by induction along the
/// (finite, acyclic) downstream order every relay egress eventually
/// re-originates, frees a slot, and returns a credit upstream.
[[nodiscard]] DagPlan plan_dag(const DagConfig& config);

/// Per-hop link statistics: both terminations and both channels of one ISN
/// domain. This is the observability surface the hop-isolation tests pin:
/// a retry storm on one hop must leave every other hop's counters clean.
struct DagLinkStats {
  std::uint32_t segment = 0;   ///< index into DagPlan::segments
  std::uint16_t node_a = 0;    ///< forward-direction TX side
  std::uint16_t node_b = 0;    ///< forward-direction RX side
  std::uint16_t forward_edge = 0;
  bool paired = false;       ///< reverse direction is a topology edge
  bool crosses_hub = false;
  link::EndpointStats a, b;  ///< endpoint counters at each side
  EndpointExtraStats a_extra, b_extra;
  /// End-of-run per-VC credit ledger snapshots (all zero on hops without
  /// credits): `*_vc_consumed[v]` is slots charged by that side's TX
  /// window partition, `*_vc_returned[v]` slots freed by its RX ledger.
  /// At quiescence each direction conserves PER PARTITION: a side's
  /// consumed[v] equals its peer's returned[v].
  std::array<std::uint64_t, link::kMaxVcs> a_vc_consumed{}, a_vc_returned{};
  std::array<std::uint64_t, link::kMaxVcs> b_vc_consumed{}, b_vc_returned{};
  sim::ChannelStats forward_channel;
  /// Paired reverse data edge, or the implicit control wire.
  sim::ChannelStats reverse_channel;
};

struct DagFlowReport {
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  std::uint64_t offered = 0;  ///< payloads actually pulled from the source
  txn::StreamScoreboard::Stats scoreboard;
  std::vector<std::uint16_t> path_edges;
  /// True when the reroute controller switched this flow onto a backup
  /// path mid-run (its delivered stream then spans both paths).
  bool rerouted = false;
  /// End-to-end delivery latency histogram (fixed footprint, exact
  /// deterministic merge). For rate-driven flows (kPaced / kPoisson) the
  /// latency is measured from the arrival DUE time, so source-side
  /// queueing under overload is included — that is what makes
  /// load-latency curves inflect past saturation. Greedy flows measure
  /// from the source pull. Populated only when
  /// DagConfig::sample_latency (or debug_latency_samples) is set.
  stats::LatencyHistogram latency;
  /// Deliveries whose inject timestamp had already been overwritten in the
  /// kLatencyRingSlots ring (flow fell more than the ring depth behind).
  /// Zero on every credited fabric; the deterministic suites pin that.
  std::uint64_t latency_sample_misses = 0;
  /// Raw per-delivery samples in delivery order. Populated only under the
  /// DagConfig::debug_latency_samples opt-in (unbounded memory).
  std::vector<TimePs> latency_samples;
};

/// One reroute-controller episode: a hop death observed, reconciled, and
/// (when a backup exists and the old path drained) switched over.
struct DagRerouteReport {
  std::uint16_t flow = 0;
  std::uint32_t segment = 0;      ///< the dead primary segment
  TimePs detected_at = 0;         ///< when the TX declared the hop dead
  TimePs switched_at = 0;         ///< when the backup went live (0 if not)
  bool rerouted = false;          ///< backup installed and traffic moved
  std::uint64_t drained = 0;      ///< flits drained from the dead hop's TX
  /// Drained flits the reconciliation proved already delivered at the peer
  /// (go-back-N in-order acceptance makes the delivered set exactly the
  /// prefix below the peer RX's expected sequence number).
  std::uint64_t reconciled = 0;
  std::uint64_t reinjected = 0;   ///< drained - reconciled, re-originated
};

struct DagRelayPort {
  static constexpr std::uint16_t kNoEdge = 0xFFFF;
  std::uint16_t rx_edge = kNoEdge;  ///< edge this port receives data on
  std::uint16_t tx_edge = kNoEdge;  ///< edge this port transmits data on
  switchdev::RelayPortStats stats;
};

struct DagRelayReport {
  std::uint16_t node = 0;
  std::vector<DagRelayPort> ports;
};

struct DagHubReport {
  std::uint16_t node = 0;
  switchdev::PortSwitchStats stats;
};

struct DagReport {
  std::vector<DagFlowReport> flows;
  std::vector<DagLinkStats> hops;
  /// One forward-channel snapshot per DagEdge, in edge order.
  std::vector<sim::ChannelStats> channels;
  std::vector<DagRelayReport> relays;
  std::vector<DagHubReport> hubs;
  std::vector<DagRerouteReport> reroutes;  ///< controller episodes, in order
  /// Deliveries at a terminal whose flow tag names another destination (a
  /// routing-table bug would show up here; the tests pin it at zero).
  std::uint64_t misrouted = 0;
  std::uint64_t slots = 0;
  /// Flit-lifecycle trace capture (empty unless DagConfig::trace.enabled).
  /// Component ids are registration indices: terminal endpoints by (node,
  /// ISN domain), then per relay in node order its port endpoints and its
  /// queue (`<relay>.q`), the forward wires (`wire.e<edge>`), the implicit
  /// control wires (`ctrl.w<n>`, in domain order), and the reroute
  /// controller (`reroute`).
  obs::TraceCapture trace;
  /// Occupancy/goodput time series (empty unless trace.sample_period > 0).
  std::vector<obs::TimeSeriesPoint> timeseries;

  [[nodiscard]] std::uint64_t total_offered() const;
  [[nodiscard]] std::uint64_t total_in_order() const;
  /// Fail_order events across all flows (gap skips + duplicates).
  [[nodiscard]] std::uint64_t total_order_failures() const;
  [[nodiscard]] std::uint64_t total_missing() const;
  [[nodiscard]] std::uint64_t total_data_corruptions() const;
  /// Retransmissions summed over every hop termination: the work the
  /// per-hop retry domains did that the end-to-end scoreboards never see.
  [[nodiscard]] std::uint64_t total_hop_retransmissions() const;
  [[nodiscard]] std::uint64_t total_relay_no_route_drops() const;
  /// --- Credit flow control aggregates (all zero with credits off) ---
  [[nodiscard]] std::uint64_t total_credit_stalls() const;
  [[nodiscard]] std::uint64_t total_credits_consumed() const;
  [[nodiscard]] std::uint64_t total_credits_returned() const;
  [[nodiscard]] std::uint64_t total_credits_granted() const;
  /// Peak per-ingress-port occupancy across all relays: the quantity the
  /// credit windows bound (<= the hop's configured depth).
  [[nodiscard]] std::uint64_t max_ingress_occupancy() const;
  /// Peak egress store-and-forward queue depth across all relays.
  [[nodiscard]] std::uint64_t max_relay_queue_depth() const;
  /// --- ECN early-backpressure aggregates (all zero with ECN off) ---
  /// Relay-side hysteresis transitions: ingress VCs crossing the mark
  /// threshold.
  [[nodiscard]] std::uint64_t total_ecn_mark_events() const;
  /// Endpoint-side injection stalls on a marked VC (throttled BEFORE the
  /// credit window ran dry).
  [[nodiscard]] std::uint64_t total_ecn_stalls() const;
  /// --- Fault/resilience aggregates (all zero with an empty FaultPlan) ---
  [[nodiscard]] std::uint64_t total_hops_declared_dead() const;
  [[nodiscard]] std::uint64_t total_dead_flits_drained() const;
  [[nodiscard]] std::uint64_t total_credits_refunded() const;
  [[nodiscard]] std::uint64_t total_flap_recoveries() const;
  [[nodiscard]] std::uint64_t total_flits_blackholed() const;
  /// Reroute episodes that actually switched traffic onto a backup path.
  [[nodiscard]] std::uint64_t total_reroutes_executed() const;
  /// --- Latency-sampling aggregates (empty/zero unless sample_latency) ---
  /// All flows' histograms merged (exact, deterministic).
  [[nodiscard]] stats::LatencyHistogram merged_latency() const;
  [[nodiscard]] std::uint64_t total_latency_sample_misses() const;
};

/// Builds, runs, and reports a DAG fabric simulation.
[[nodiscard]] DagReport run_dag_fabric(const DagConfig& config);

/// Shared knobs for the canned scenario topologies below.
struct DagScenarioSpec {
  ProtocolConfig protocol;
  double ber = 0.0;
  double burst_injection_rate = 0.0;
  TimePs latency = 8'000;
  std::uint64_t flits_per_flow = 0;
  std::uint64_t seed = 1;
  TimePs horizon = 0;
  /// Per-hop bounded-buffer depth / credit window (0 = flow control off).
  std::size_t hop_credits = 0;
  /// Relay egress scheduling policy (see DagConfig::egress_policy).
  switchdev::EgressPolicy egress_policy = switchdev::EgressPolicy::kFifo;
  /// ECN early-backpressure threshold (see DagConfig::ecn_threshold).
  std::size_t ecn_threshold = 0;
  /// Record per-flow latency samples (see DagConfig::sample_latency).
  bool sample_latency = false;
};

/// Per-flow QoS class for the congestion builders below: which VC the flow
/// rides, its DRR weight, its pacing interval (> 0 makes the flow a kPaced
/// arrival at that interval; 0 leaves it greedy), and an optional
/// flit-budget override (0 = the spec's flits_per_flow). Flow i wears
/// classes[i % classes.size()]; an empty list (the default) leaves every
/// flow greedy on VC 0 with weight 1.
struct DagFlowClass {
  std::uint8_t vc = 0;
  std::uint32_t weight = 1;
  TimePs pace = 0;
  std::uint64_t flits = 0;
};

/// Chain A -> R1 -> ... -> Rk -> B (k = `relays`, so k+1 hops), one flow.
[[nodiscard]] DagConfig make_chain_dag(const DagScenarioSpec& spec,
                                       std::size_t relays);

/// Two-stage butterfly: 4 sources -> 2 stage-1 relays -> 2 stage-2 relays
/// -> 4 sinks, flows s_i -> d_i (pairs of flows share each middle hop).
[[nodiscard]] DagConfig make_butterfly_dag(const DagScenarioSpec& spec);

/// Folded fat tree: 4 hosts -> 2 up-relays -> 1 spine -> 2 down-relays ->
/// 4 sinks, flows h_i -> d_(3-i) (all four flows cross the spine).
[[nodiscard]] DagConfig make_fat_tree_dag(const DagScenarioSpec& spec);

/// Asymmetric join/branch DAG: a 3-hop trunk A -> R1 -> R2 -> B plus a
/// side source C joining at R1 and a side sink D leaving at R2, three
/// flows of unequal path length sharing the trunk hop.
[[nodiscard]] DagConfig make_asymmetric_dag(const DagScenarioSpec& spec);

/// --- Congestion scenarios (bounded buffers + credits decide throughput) --

/// Incast: `sources` terminals, each with a private hop into one relay
/// that multiplexes every flow onto a single egress hop to one sink. The
/// egress wire is oversubscribed `sources`:1, so with finite buffers the
/// relay backpressures every source through its ingress hop's credits.
/// Flow i wears classes[i % classes.size()] (VC, DRR weight, pacing, flit
/// budget), so one call builds an elephant/mice mix: e.g. {elephant,
/// elephant, mouse} puts two greedy flows and one paced low-rate flow on
/// their own VCs through the shared egress hop.
[[nodiscard]] DagConfig make_incast_dag(
    const DagScenarioSpec& spec, std::size_t sources,
    std::span<const DagFlowClass> classes = {});

/// Hotspot: `sources` terminals feed one relay; all but the last flow
/// target the hot sink (sharing its egress hop) while the last rides to a
/// private cold sink — backpressure must throttle the hot flows without
/// starving the uncontended one. Per-flow classes as in make_incast_dag
/// (the last class lands on the cold flow).
[[nodiscard]] DagConfig make_hotspot_dag(
    const DagScenarioSpec& spec, std::size_t sources,
    std::span<const DagFlowClass> classes = {});

/// Diamond: `sources` terminals -> R0 -> {M_0 .. M_(branches-1)} -> R1 ->
/// `sources` sinks. Every flow's primary path rides the lowest-id middle
/// branch (BFS tie-break), so killing that branch's relay or its edges
/// exercises multi-flow reroute onto the surviving branches. Edge-id
/// layout (load-bearing for fault plans): source uplinks are edges
/// 0..sources-1, R0 -> M_j is edge sources+2j, M_j -> R1 is edge
/// sources+2j+1, and R1's sink downlinks follow. All primary traffic uses
/// M_0 (edges sources and sources+1); M_1.. are pure backup capacity.
[[nodiscard]] DagConfig make_diamond_dag(const DagScenarioSpec& spec,
                                         std::size_t sources,
                                         std::size_t branches);

/// Trunk contention: `sources` terminals -> R1 -> R2 -> `sources` sinks;
/// every flow squeezes through the single R1 -> R2 trunk hop (the
/// multistage-network bottleneck whose buffer provisioning the Stergiou
/// study measures), then fans back out to private sinks. Per-flow classes
/// as in make_incast_dag.
[[nodiscard]] DagConfig make_trunk_dag(
    const DagScenarioSpec& spec, std::size_t sources,
    std::span<const DagFlowClass> classes = {});

/// The paper's evaluation fabric: host <-> `switch_levels` transparent
/// switch levels <-> device, one hub per level per direction, so each
/// direction keeps its own switch counters and internal-corruption RNG
/// streams. Layout (load-bearing for callers that read per-direction
/// counters): host is node 0 and device node 1; downstream hubs are nodes
/// 2..L+1 and upstream hubs L+2..2L+1 (L = switch_levels), so
/// DagReport::hubs lists the L downstream levels first. Edges 0..L run
/// downstream and L+1..2L+1 upstream. Flow 0 is host -> device (salt
/// 0x00D0) and flow 1 device -> host (salt 0x0B0B); both are always
/// declared so the domain stays paired — for one-way traffic set
/// flows[1].flits = 0. Node and edge seeds replay the deleted per-direction
/// harness's draws (per direction, L+1 channels then L switches), so runs
/// are trajectory-identical to it; the recorded-counter equivalence test
/// pins this field-for-field.
[[nodiscard]] DagConfig make_linear_dag(const DagScenarioSpec& spec,
                                        unsigned switch_levels);

/// The star fabric expressed as a one-hub DAG: N terminal pairs around a
/// single transparent hub, seeds drawn in the order the deleted hard-coded
/// builder used (down switch, up switch, then per pair the four channels),
/// so a run is trajectory-identical to the legacy wiring on the same
/// StarConfig. The hub corrupts nothing internally (hub_internal_error_rate
/// keeps its default of 0). Flows 0..N-1 run host i -> device i and
/// flows N..2N-1 device i -> host i. The equivalence test pins this against
/// counters recorded from the last legacy build, field-for-field.
[[nodiscard]] DagConfig make_star_dag(const StarConfig& config);

}  // namespace rxl::transport
