// End-to-end benchmark: runs one workload, checks every simulated
// outcome, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics.
//
// Usage:
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--expected FILE] [--out DIR]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "layers.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "workloads.hpp"

namespace {

using e2e::OpSpec;
using e2e::ScopedSpan;
using e2e::Spans;
using rxl::transport::DagConfig;
using rxl::transport::DagReport;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool smoke = false;
  std::string expected;
  std::string out_dir;
};

void usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--expected FILE] [--out DIR]\n"
               "workloads:");
  for (std::string_view name : e2e::kWorkloadNames)
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (value == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--expected") {
      options.expected = value;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return e2e::is_workload(options.workload) && options.seconds >= 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, std::uint64_t q) {
  std::sort(values.begin(), values.end());
  return rxl::stats::percentile_sorted(std::span<const double>(values), q);
}

double max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  ///< every measurement behind the value
  const char* moves = nullptr;  ///< per-layer: what it should move, where
};

std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string metrics_json(const std::vector<Metric>& metrics, bool detail) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += '"' + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + '"';
    if (detail) {
      out += ", \"n\": " + std::to_string(m.samples.size()) + ", \"samples\": [";
      for (std::size_t s = 0; s < m.samples.size(); ++s) {
        if (s > 0) out += ", ";
        out += number(m.samples[s]);
      }
      out += ']';
      if (m.moves != nullptr) out += ", \"moves\": \"" + std::string(m.moves) + '"';
    }
    out += '}';
  }
  out += '}';
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6g %-8s n=%zu", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.size());
    if (m.samples.size() > 1) {
      const auto [low, high] =
          std::minmax_element(m.samples.begin(), m.samples.end());
      std::printf(" range %.6g..%.6g", *low, *high);
    }
    std::printf("\n");
  }
}

/// Looks up the pinned line for `key` ("<workload> <scale> <seed>").
std::string pinned_line(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, key.size() + 1, key + ' ') == 0) return line;
  return {};
}

/// CPU seconds of one run_dag_fabric call; the report is handed back.
double timed_run(const DagConfig& config, DagReport& report) {
  const double start = e2e::thread_cpu_s();
  report = rxl::transport::run_dag_fabric(config);
  return e2e::thread_cpu_s() - start;
}

/// Set-up-only batch: every op of one rep with a 1 ps horizon, so plan,
/// build, report and teardown run but the event loop does not. Passes
/// repeat until the batch has run `min_total` CPU seconds. Returns the
/// set-up CPU seconds of one rep: each op at its fastest pass, summed.
double setup_batch(const std::vector<OpSpec>& ops, double min_total) {
  std::vector<double> fastest(ops.size(), std::numeric_limits<double>::infinity());
  double total = 0;
  do {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      DagConfig config = e2e::build_config(ops[i]);
      config.horizon = 1;
      DagReport report;
      const double cpu = timed_run(config, report);
      fastest[i] = std::min(fastest[i], cpu);
      total += cpu;
    }
  } while (total < min_total);
  double rep = 0;
  for (double cpu : fastest) rep += cpu;
  return rep;
}

/// What the untimed reference rep learns about the workload.
struct Reference {
  std::vector<std::uint64_t> fingerprints;  ///< per op
  std::vector<std::uint64_t> counters;      ///< counters_hash per op
  std::vector<bool> failed;                 ///< per op
  e2e::LayerCounts counts;
  rxl::stats::LatencyHistogram latency;  ///< every op's, merged
  e2e::OpOutcome totals;                 ///< summed over the ops
};

/// Runs every op once, untimed: fingerprints, invariants, layer counts.
/// With spans on, each op also gets a standalone plan_dag and set-up probe.
Reference reference_rep(const std::vector<OpSpec>& ops, Spans* spans) {
  Reference ref;
  ref.fingerprints.assign(ops.size(), 0);
  ref.counters.assign(ops.size(), 0);
  ref.failed.assign(ops.size(), false);
  ScopedSpan pass(spans, "workload_pass");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Spans* op_spans = i < 512 ? spans : nullptr;
    ScopedSpan op_span(op_spans, "op " + std::to_string(i), pass.id());
    try {
      DagConfig config = e2e::build_config(ops[i]);
      if (op_spans != nullptr) {
        {
          ScopedSpan plan(op_spans, "plan_dag", op_span.id());
          (void)rxl::transport::plan_dag(config);
        }
        ScopedSpan probe(op_spans, "setup_probe", op_span.id());
        DagConfig setup_only = config;
        setup_only.horizon = 1;
        (void)rxl::transport::run_dag_fabric(setup_only);
      }
      DagReport report;
      {
        ScopedSpan run_span(op_spans, "run", op_span.id());
        report = rxl::transport::run_dag_fabric(config);
      }
      const e2e::OpOutcome outcome = e2e::inspect(ops[i], report);
      ref.fingerprints[i] = outcome.fingerprint;
      ref.counters[i] = e2e::counters_hash(report);
      if (!outcome.violation.empty()) {
        ref.failed[i] = true;
        std::fprintf(stderr, "op %zu: invariant broken: %s\n", i,
                     outcome.violation.c_str());
      }
      ref.counts.add(report);
      ref.latency.merge(report.merged_latency());
      ref.totals.in_order += outcome.in_order;
      ref.totals.offered += outcome.offered;
      ref.totals.order_failures += outcome.order_failures;
      ref.totals.missing += outcome.missing;
      ref.totals.corruptions += outcome.corruptions;
      ref.totals.hop_retransmissions += outcome.hop_retransmissions;
    } catch (const std::exception& error) {
      ref.failed[i] = true;
      std::fprintf(stderr, "op %zu threw: %s\n", i, error.what());
    }
  }
  return ref;
}

/// "<workload> <scale> <seed> ops=N fold=... in_order=... ...": the line
/// pinned in expected/fingerprints.txt.
std::string fingerprint_line(const std::string& key, const Reference& ref) {
  const std::vector<std::uint64_t>& prints = ref.fingerprints;
  std::string line = key;
  line += " ops=" + std::to_string(prints.size());
  line += " fold=" + hex(e2e::fnv1a(prints.data(),
                                    prints.size() * sizeof(std::uint64_t)));
  line += " in_order=" + std::to_string(ref.totals.in_order);
  line += " offered=" + std::to_string(ref.totals.offered);
  line += " order_failures=" + std::to_string(ref.totals.order_failures);
  line += " missing=" + std::to_string(ref.totals.missing);
  line += " corruptions=" + std::to_string(ref.totals.corruptions);
  line += " hop_retx=" + std::to_string(ref.totals.hop_retransmissions);
  return line;
}

struct TimedRun {
  std::vector<Metric> metrics;  ///< the end-to-end metrics but peak RSS
  double best_rep_s = 0;        ///< the rep with every op at its fastest
  double setup_s = 0;
  std::size_t reps = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Timed reps, each preceded by one set-up batch so both sample the same
/// stretch of host time. Every op must reproduce its reference counters.
/// Host interference on a shared machine only ever slows an op down, in
/// bursts, so each op's fastest repetition measures the code; the per-rep
/// values go to `samples` to show how noisy the run was.
TimedRun timed_reps(const std::vector<OpSpec>& ops, const Reference& ref,
                    const Options& options, Spans* spans) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  TimedRun out;
  std::vector<double> best(ops.size(), kInf);
  std::vector<double> op_cpu(ops.size());
  Metric flits{"sim_flits_per_cpu_s", "flits/s", 0, {}};
  Metric p50{"op_cpu_us_p50", "us", 0, {}};
  Metric p99{"op_cpu_us_p99", "us", 0, {}};
  Metric setup{"setup_s", "s", 0, {}};
  const double delivered = static_cast<double>(ref.counts.delivered);
  const auto start = std::chrono::steady_clock::now();
  const std::size_t min_reps = options.smoke ? 1 : 7;
  for (;;) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (out.reps >= min_reps &&
        (options.smoke || elapsed.count() >= options.seconds))
      break;
    {
      ScopedSpan span(spans, "setup_batch");
      setup.samples.push_back(setup_batch(ops, options.smoke ? 0.005 : 0.05));
    }
    ScopedSpan rep_span(spans, "timed_rep");
    double rep_cpu = 0;
    op_cpu.assign(ops.size(), kInf);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      out.attempted += 1;
      try {
        const DagConfig config = e2e::build_config(ops[i]);
        DagReport report;
        op_cpu[i] = timed_run(config, report);
        rep_cpu += op_cpu[i];
        best[i] = std::min(best[i], op_cpu[i]);
        if (e2e::counters_hash(report) != ref.counters[i]) {
          out.failed += 1;
          std::fprintf(stderr, "op %zu: counters differ from the reference\n",
                       i);
        }
      } catch (const std::exception& error) {
        out.failed += 1;
        std::fprintf(stderr, "op %zu threw: %s\n", i, error.what());
      }
    }
    out.reps += 1;
    flits.samples.push_back(delivered / rep_cpu);
    p50.samples.push_back(percentile(op_cpu, 50) * 1e6);
    p99.samples.push_back(percentile(op_cpu, 99) * 1e6);
  }
  for (double cpu : best) out.best_rep_s += cpu;
  flits.value = delivered / out.best_rep_s;
  p50.value = percentile(best, 50) * 1e6;
  p99.value = percentile(best, 99) * 1e6;
  setup.value = median(setup.samples);
  out.setup_s = setup.value;
  out.metrics = {std::move(flits), std::move(p50), std::move(p99),
                 std::move(setup)};
  return out;
}

/// The per-layer metrics: unit costs, the reference rep's counts, their
/// budget against the measured rep CPU, and the traced run.
std::vector<Metric> per_layer_metrics(const std::vector<OpSpec>& ops,
                                      const Options& options,
                                      const Reference& ref, double setup_s,
                                      double best_rep_s, double rss_growth_kb,
                                      Spans* spans) {
  const e2e::LayerCounts& counts = ref.counts;
  const auto c = [](std::uint64_t v) { return static_cast<double>(v); };
  e2e::UnitCosts unit;
  {
    ScopedSpan span(spans, "unit_costs");
    unit = e2e::measure_unit_costs(ops, 4 * counts.max_op_endpoints, spans,
                                   span.id());
  }
  e2e::TracedRun traced;
  {
    ScopedSpan span(spans, "traced_run");
    const std::uint64_t scale = options.smoke ? 200 : 10;
    traced = e2e::measure_tracing(
        e2e::make_ops(options.workload, options.seed, scale), spans,
        span.id());
  }

  const double clean_checks =
      c(std::max(counts.received, counts.corrupted) - counts.corrupted);
  const double codec_s =
      (c(counts.data_tx + counts.piggybacked) * unit.encode_data_ns +
       c(counts.control_tx) * unit.encode_control_ns +
       clean_checks * unit.check_clean_ns +
       c(counts.corrupted) * unit.check_dirty_ns) * 1e-9;
  const double phy_s = c(counts.wire_flits) * unit.corrupt_ns * 1e-9;
  const double channel_s = c(counts.wire_flits) * unit.channel_hop_ns * 1e-9;

  constexpr const char* kSetup =
      "setup_s, op_cpu_us_p50/p99 on sweep-tiny; flat on chain4-clean";
  constexpr const char* kKernel =
      "sim_flits_per_cpu_s on incast16-greedy and chain4-clean";
  constexpr const char* kNoisy = "sim_flits_per_cpu_s on star8-noisy";
  constexpr const char* kClean = "sim_flits_per_cpu_s on chain4-clean";
  constexpr const char* kIncast = "sim_flits_per_cpu_s on incast16-greedy";
  constexpr const char* kLoad =
      "sim_flits_per_cpu_s on incast4-load90; greedy workloads bypass it";
  constexpr const char* kMem = "peak_rss_mb on chain4-clean and star8-noisy";
  constexpr const char* kObs = "nothing: traced run only";
  std::vector<Metric> out;
  auto add = [&out](std::string name, const char* unit_name, double value,
                    const char* moves) {
    out.push_back(Metric{std::move(name), unit_name, value, {value}, moves});
  };
  add("dag_fabric.plan_us", "us", unit.plan_us, kSetup);
  add("dag_fabric.fixed_us", "us", setup_s / c(ops.size()) * 1e6, kSetup);
  add("dag_fabric.fixed_share", "ratio", setup_s / best_rep_s, kSetup);
  add("sim.dispatch_ns", "ns", unit.dispatch_ns, kKernel);
  add("sim.timer_rearm_ns", "ns", unit.timer_rearm_ns, kKernel);
  add("sim.channel_hop_ns", "ns", unit.channel_hop_ns, kKernel);
  add("sim.wire_flits", "count", c(counts.wire_flits), kKernel);
  add("sim.host_ns_per_wire_flit", "ns",
      best_rep_s * 1e9 / c(std::max<std::uint64_t>(counts.wire_flits, 1)),
      kKernel);
  add("phy.corrupt_ns", "ns", unit.corrupt_ns, kNoisy);
  add("phy.corrupted_flits", "count", c(counts.corrupted), kNoisy);
  add("flit_codec.encode_data_ns", "ns", unit.encode_data_ns, kClean);
  add("flit_codec.encode_control_ns", "ns", unit.encode_control_ns, kClean);
  add("flit_codec.check_clean_ns", "ns", unit.check_clean_ns, kClean);
  add("flit_codec.check_dirty_ns", "ns", unit.check_dirty_ns, kNoisy);
  add("flit_codec.encodes", "count",
      c(counts.data_tx + counts.piggybacked + counts.control_tx), kClean);
  add("flit_codec.checks", "count", c(counts.received), kClean);
  add("flit_codec.dirty_checks", "count", c(counts.corrupted), kNoisy);
  add("endpoint.data_tx", "count", c(counts.data_tx), kNoisy);
  add("endpoint.retx", "count", c(counts.retx), kNoisy);
  add("endpoint.useful_ratio", "ratio",
      c(counts.data_tx) /
          c(std::max<std::uint64_t>(counts.data_tx + counts.retx, 1)),
      kNoisy);
  add("endpoint.control_tx", "count", c(counts.control_tx), kNoisy);
  add("endpoint.retry_rounds", "count", c(counts.retry_rounds), kNoisy);
  add("endpoint.retry_timeouts", "count", c(counts.retry_timeouts), kNoisy);
  add("endpoint.credit_stalls", "count", c(counts.credit_stalls), kIncast);
  add("endpoint.discards", "count", c(counts.discards), kNoisy);
  add("relay.relayed_out", "count", c(counts.relayed_out), kIncast);
  add("relay.max_queue_depth", "count", c(counts.max_queue_depth), kIncast);
  add("relay.ingress_high_water", "count", c(counts.ingress_high_water),
      kIncast);
  add("hub.forwarded", "count", c(counts.hub_forwarded), kNoisy);
  add("hub.dropped", "count", c(counts.hub_dropped), kNoisy);
  add("traffic.latency_samples", "count", c(ref.latency.count()), kLoad);
  add("traffic.sim_p50_ns", "sim_ns", c(ref.latency.p50()) / 1e3, kLoad);
  add("traffic.sim_p99_ns", "sim_ns", c(ref.latency.p99()) / 1e3, kLoad);
  add("traffic.sim_p999_ns", "sim_ns", c(ref.latency.p999()) / 1e3, kLoad);
  add("mem.rss_bytes_per_delivered_flit", "B/flit",
      rss_growth_kb * 1024 /
          c(std::max<std::uint64_t>(counts.max_op_delivered, 1)),
      kMem);
  add("budget.codec_s", "s", codec_s,
      "sim_flits_per_cpu_s on chain4-clean and star8-noisy");
  add("budget.phy_s", "s", phy_s, kNoisy);
  add("budget.channel_s", "s", channel_s, kKernel);
  add("budget.fixed_s", "s", setup_s, kSetup);
  add("budget.explained_share", "ratio",
      (codec_s + phy_s + channel_s + setup_s) / best_rep_s,
      "all: the share of rep CPU the budget accounts for");
  add("obs.trace_overhead_pct", "%", traced.overhead_pct, kObs);
  add("obs.trace_overruns", "count", c(traced.overruns), kObs);
  for (std::size_t k = 0; k < e2e::kTracedKinds.size(); ++k) {
    add(std::string("obs.events.") + e2e::kTracedKinds[k], "count",
        c(traced.events[k]), kObs);
  }
  add("obs.journey.queue_share", "ratio", traced.queue_share, kObs);
  add("obs.journey.stall_share", "ratio", traced.stall_share, kObs);
  add("obs.journey.retry_share", "ratio", traced.retry_share, kObs);
  add("obs.journey.wire_share", "ratio", traced.wire_share, kObs);
  return out;
}

int run(const Options& options) {
  const std::vector<OpSpec> ops =
      e2e::make_ops(options.workload, options.seed, options.smoke ? 20 : 1);
  const double rss_base_kb = max_rss_kb();
  Spans span_store;
  Spans* spans = options.trace ? &span_store : nullptr;

  std::printf("== %s seed %llu%s: %zu op(s) per rep ==\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.smoke ? " (smoke, 1/20 of the ops)" : "", ops.size());

  Reference ref = reference_rep(ops, spans);
  const std::string key = options.workload +
                          (options.smoke ? " smoke " : " full ") +
                          std::to_string(options.seed);
  const std::string line = fingerprint_line(key, ref);
  std::printf("fingerprint %s\n", line.c_str());
  if (!options.expected.empty()) {
    const std::string pinned = pinned_line(options.expected, key);
    if (pinned.empty()) {
      std::printf("fingerprint not pinned for this seed: invariants only\n");
    } else if (pinned != line) {
      ref.failed.assign(ops.size(), true);
      std::fprintf(stderr, "fingerprint mismatch\n  pinned   %s\n  measured %s\n",
                   pinned.c_str(), line.c_str());
    } else {
      std::printf("fingerprint matches the pinned one\n");
    }
  }

  TimedRun timed = timed_reps(ops, ref, options, spans);
  const double peak_rss_kb = max_rss_kb();
  const std::uint64_t attempted = ops.size() + timed.attempted;
  const std::uint64_t failed =
      static_cast<std::uint64_t>(
          std::count(ref.failed.begin(), ref.failed.end(), true)) +
      timed.failed;
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::vector<Metric> e2e_metrics = std::move(timed.metrics);
  e2e_metrics.push_back(
      Metric{"peak_rss_mb", "MB", peak_rss_kb / 1024, {peak_rss_kb / 1024}});

  std::vector<Metric> layer_metrics;
  if (options.trace)
    layer_metrics = per_layer_metrics(ops, options, ref, timed.setup_s,
                                      timed.best_rep_s,
                                      peak_rss_kb - rss_base_kb, spans);

  print_metrics("end-to-end (ops at their fastest rep; set-up: median):",
                e2e_metrics);
  std::printf("  %-36s %18.6g %-8s attempted=%llu failed=%llu\n", "fail_ratio",
              fail_ratio, "ratio", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (options.trace) print_metrics("per-layer:", layer_metrics);

  const bool correct = failed == 0;
  if (!options.out_dir.empty()) {
    std::vector<Metric> all = e2e_metrics;
    all.insert(all.end(), layer_metrics.begin(), layer_metrics.end());
    all.push_back(Metric{"fail_ratio", "ratio", fail_ratio, {fail_ratio}});
    std::ofstream json(options.out_dir + "/" + options.workload + ".json");
    json << "{\"workload\": \"" << options.workload
         << "\", \"seed\": " << options.seed
         << ", \"smoke\": " << (options.smoke ? "true" : "false")
         << ", \"reps\": " << timed.reps
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"fingerprint\": \"" << line << "\", \"metrics\": "
         << metrics_json(all, true) << "}\n";
    if (spans != nullptr) {
      std::ofstream trace(options.out_dir + "/" + options.workload +
                          ".spans.json");
      trace << span_store.chrome_json();
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(options.trace ? layer_metrics : e2e_metrics, false)
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.what());
    return 1;
  }
}
