// Host clocks, host-time spans, per-layer unit costs and the traced run.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {

/// CPU seconds consumed by the calling thread.
[[nodiscard]] double thread_cpu_s();

/// Host-time spans around the benchmark's own calls into the library,
/// kept in memory and exported as Chrome-trace JSON.
class Spans {
 public:
  static constexpr std::size_t kNoParent = SIZE_MAX;

  std::size_t begin(std::string name, std::size_t parent);
  void end(std::size_t id);
  [[nodiscard]] std::string chrome_json() const;

 private:
  struct Span {
    std::string name;
    std::size_t parent = kNoParent;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// One span for the lifetime of the object; a no-op when `spans` is null.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::string name,
             std::size_t parent = Spans::kNoParent)
      : spans_(spans),
        id_(spans ? spans->begin(std::move(name), parent) : Spans::kNoParent) {}
  ~ScopedSpan() {
    if (spans_) spans_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  Spans* spans_;
  std::size_t id_;
};

/// Cost of one call of each layer's public entry point, measured in
/// isolation with inputs shaped like the workload's.
struct UnitCosts {
  double plan_us = 0;           ///< plan_dag on the workload's configs
  double encode_data_ns = 0;    ///< FlitCodec::encode_data
  double encode_control_ns = 0; ///< FlitCodec::encode_control
  double check_clean_ns = 0;    ///< FlitCodec::check_data, pristine image
  double check_dirty_ns = 0;    ///< FEC decode + check_data, burst-hit image
  double corrupt_ns = 0;        ///< the workload's ErrorModel::corrupt
  double dispatch_ns = 0;       ///< EventQueue schedule + dispatch
  double timer_rearm_ns = 0;    ///< Timer arm + fire
  double channel_hop_ns = 0;    ///< LinkChannel send + deliver
};

/// `heap_depth` is the steady event-heap depth of the dispatch loop.
[[nodiscard]] UnitCosts measure_unit_costs(const std::vector<OpSpec>& ops,
                                           std::size_t heap_depth,
                                           Spans* spans, std::size_t parent);

/// Trace-event kinds the traced run reports, in output order.
inline constexpr std::array<const char*, 8> kTracedKinds = {
    "tx", "retry", "nack", "ack", "credit_stall", "enqueue", "deliver",
    "drop"};

struct TracedRun {
  double overhead_pct = 0;  ///< traced vs untraced CPU of the same ops
  std::uint64_t overruns = 0;
  std::array<std::uint64_t, kTracedKinds.size()> events{};
  /// Shares of the summed journeys of every flow's p99 flit.
  double queue_share = 0;
  double stall_share = 0;
  double retry_share = 0;
  double wire_share = 0;
};

/// Runs `ops` untraced and traced (rings deep enough for zero overruns).
[[nodiscard]] TracedRun measure_tracing(const std::vector<OpSpec>& ops,
                                        Spans* spans, std::size_t parent);

}  // namespace e2e
