// The five canonical fabric workloads, and the checks every op must pass.
//
// An op is one run_dag_fabric() call. A workload is a fixed list of op
// specs generated from --seed; one "rep" runs every op of the list once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rxl/common/types.hpp"
#include "rxl/transport/config.hpp"
#include "rxl/transport/dag_fabric.hpp"

namespace e2e {

enum class Family : std::uint8_t { kChain, kIncastDrr, kIncastPoisson, kStar };

/// Everything needed to build one op's DagConfig. Kept compact so a
/// 20 000-trial sweep does not hold 20 000 configs in memory.
struct OpSpec {
  Family family = Family::kChain;
  rxl::transport::Protocol protocol = rxl::transport::Protocol::kRxl;
  std::size_t size = 0;      ///< relays (chain), sources (incast), pairs (star)
  std::uint64_t flits = 0;   ///< per flow (per direction for the star)
  double burst = 0.0;        ///< per-link 4-symbol burst injection rate
  std::size_t credits = 0;   ///< per-hop credit window (0 = off)
  rxl::TimePs horizon = 0;
  std::uint64_t seed = 1;
};

inline constexpr std::string_view kWorkloadNames[] = {
    "chain4-clean", "incast16-greedy", "incast4-load90", "star8-noisy",
    "sweep-tiny"};

[[nodiscard]] bool is_workload(std::string_view name);

/// The op list of one rep. `scale` divides the number of ops: 1 is the
/// measured run, 10 the traced run, 20 the smoke run.
[[nodiscard]] std::vector<OpSpec> make_ops(std::string_view workload,
                                           std::uint64_t seed,
                                           std::uint64_t scale);

[[nodiscard]] rxl::transport::DagConfig build_config(const OpSpec& op);

/// FNV-1a 64 over raw bytes, chained through `hash`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t hash = 0xcbf29ce484222325ull);

/// Simulated outcome of one op, as the correctness gate sees it.
struct OpOutcome {
  std::uint64_t in_order = 0;
  std::uint64_t offered = 0;
  std::uint64_t order_failures = 0;
  std::uint64_t missing = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t hop_retransmissions = 0;
  /// Hash of the fields above, sim p50/p99/p999, misrouted, latency misses
  /// and the obs::collect_metrics() CSV: the fingerprint pinned per seed.
  std::uint64_t fingerprint = 0;
  /// First broken invariant, empty when all hold.
  std::string violation;
};

[[nodiscard]] OpOutcome inspect(const OpSpec& op,
                                const rxl::transport::DagReport& report);

/// Hash of every counter struct in the report — the counters
/// collect_metrics() names — without building the names. Cheap enough to
/// check on every timed op that a rep reproduced the reference rep.
[[nodiscard]] std::uint64_t counters_hash(
    const rxl::transport::DagReport& report);

/// Deterministic per-layer work counts, summed over the ops of one rep.
struct LayerCounts {
  std::uint64_t data_tx = 0;
  std::uint64_t retx = 0;
  std::uint64_t control_tx = 0;
  std::uint64_t piggybacked = 0;
  std::uint64_t received = 0;
  std::uint64_t retry_rounds = 0;
  std::uint64_t retry_timeouts = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t discards = 0;
  std::uint64_t wire_flits = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t relayed_out = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t ingress_high_water = 0;
  std::uint64_t hub_forwarded = 0;
  std::uint64_t hub_dropped = 0;
  std::uint64_t delivered = 0;
  /// Largest op of the rep: delivered flits and hop endpoints.
  std::uint64_t max_op_delivered = 0;
  std::uint64_t max_op_endpoints = 0;

  void add(const rxl::transport::DagReport& report);
};

}  // namespace e2e
