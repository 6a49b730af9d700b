#include "rxl/obs/export.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <utility>

#include "rxl/sim/stats.hpp"

namespace rxl::obs {

namespace {

void append_json_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

/// Microsecond timestamp with every picosecond preserved in six fractional
/// digits: integer-only formatting, bit-identical everywhere.
void append_ts_us(std::string& out, TimePs ps) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%llu.%06llu",
                static_cast<unsigned long long>(ps / 1'000'000),
                static_cast<unsigned long long>(ps % 1'000'000));
  out += buffer;
}

void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

void append_capture(std::string& out, const TraceCapture& capture,
                    std::uint32_t pid, bool& first) {
  for (std::size_t i = 0; i < capture.components.size(); ++i) {
    if (!first) out += ",\n";
    first = false;
    out += R"({"name":"thread_name","ph":"M","pid":)";
    append_u64(out, pid);
    out += R"(,"tid":)";
    append_u64(out, i);
    out += R"(,"args":{"name":")";
    append_json_escaped(out, capture.components[i].name);
    out += R"("}})";
  }
  for (const TraceComponentCapture& component : capture.components) {
    for (const TraceEvent& event : component.events) {
      if (!first) out += ",\n";
      first = false;
      out += R"({"name":")";
      out += trace_event_kind_name(event.kind);
      out += R"(","ph":"i","s":"t","ts":)";
      append_ts_us(out, event.at);
      out += R"(,"pid":)";
      append_u64(out, pid);
      out += R"(,"tid":)";
      append_u64(out, event.component);
      out += R"(,"args":{"flow":)";
      append_u64(out, event.flow);
      out += R"(,"truth":)";
      append_u64(out, event.truth_index);
      out += R"(,"seq":)";
      append_u64(out, event.seq);
      out += R"(,"vc":)";
      append_u64(out, event.vc);
      out += R"(,"arg":)";
      append_u64(out, event.arg);
      out += "}}";
    }
  }
}

/// Total overlap of [lo, hi] with a component's stall windows.
TimePs window_overlap(const std::vector<std::pair<TimePs, TimePs>>& windows,
                      TimePs lo, TimePs hi) {
  TimePs total = 0;
  for (const auto& [start, end] : windows) {
    const TimePs a = start > lo ? start : lo;
    const TimePs b = end < hi ? end : hi;
    if (b > a) total += b - a;
  }
  return total;
}

}  // namespace

std::string chrome_trace_json(std::span<const TraceCapture> captures) {
  std::string out;
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < captures.size(); ++i)
    append_capture(out, captures[i], static_cast<std::uint32_t>(i), first);
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

std::string trace_csv(const TraceCapture& capture) {
  std::string out;
  out += "component,name,at_ps,kind,flow,truth,seq,vc,arg\n";
  for (const TraceComponentCapture& component : capture.components) {
    for (const TraceEvent& event : component.events) {
      append_u64(out, event.component);
      out += ',';
      out += component.name;
      out += ',';
      append_u64(out, event.at);
      out += ',';
      out += trace_event_kind_name(event.kind);
      out += ',';
      append_u64(out, event.flow);
      out += ',';
      append_u64(out, event.truth_index);
      out += ',';
      append_u64(out, event.seq);
      out += ',';
      append_u64(out, event.vc);
      out += ',';
      append_u64(out, event.arg);
      out += '\n';
    }
  }
  return out;
}

std::string trace_summary(const TraceCapture& capture) {
  sim::TextTable table({"component", "events", "overrun", "inj", "enq", "tx",
                        "rty", "nak", "ack", "stl", "ecn", "drn", "dlv",
                        "drp"});
  for (const TraceComponentCapture& component : capture.components) {
    std::array<std::uint64_t, kTraceEventKindCount> counts{};
    for (const TraceEvent& event : component.events)
      counts[static_cast<std::size_t>(event.kind)] += 1;
    std::vector<std::string> row;
    row.push_back(component.name);
    row.push_back(std::to_string(component.events.size()));
    row.push_back(std::to_string(component.overruns));
    for (const std::uint64_t count : counts) row.push_back(std::to_string(count));
    table.add_row(row);
  }
  return table.to_string();
}

TimePs FlitJourney::total_queue_wait() const noexcept {
  TimePs total = 0;
  for (const JourneyHop& hop : hops) total += hop.queue_wait;
  return total;
}
TimePs FlitJourney::total_credit_stall() const noexcept {
  TimePs total = 0;
  for (const JourneyHop& hop : hops) total += hop.credit_stall;
  return total;
}
TimePs FlitJourney::total_retry_time() const noexcept {
  TimePs total = 0;
  for (const JourneyHop& hop : hops) total += hop.retry_time;
  return total;
}
TimePs FlitJourney::total_wire_time() const noexcept {
  TimePs total = 0;
  for (const JourneyHop& hop : hops) total += hop.wire_time;
  return total;
}

FlitJourney reconstruct_journey(const TraceCapture& capture,
                                std::uint16_t flow,
                                std::uint64_t truth_index) {
  FlitJourney journey;
  journey.flow = flow;
  journey.truth_index = truth_index;

  // The flit's own lifecycle events, with a deterministic order key.
  struct Keyed {
    TraceEvent event;
    std::size_t component = 0;
    std::size_t position = 0;
  };
  std::vector<Keyed> events;
  for (std::size_t c = 0; c < capture.components.size(); ++c) {
    const TraceComponentCapture& component = capture.components[c];
    for (std::size_t p = 0; p < component.events.size(); ++p) {
      const TraceEvent& event = component.events[p];
      if (event.flow != flow || event.truth_index != truth_index) continue;
      switch (event.kind) {
        case TraceEventKind::kInject:
        case TraceEventKind::kEnqueue:
        case TraceEventKind::kTx:
        case TraceEventKind::kRetry:
        case TraceEventKind::kDeliver:
        case TraceEventKind::kDrop:
          events.push_back(Keyed{event, c, p});
          break;
        case TraceEventKind::kNack:
        case TraceEventKind::kAck:
        case TraceEventKind::kCreditStall:
        case TraceEventKind::kEcnMark:
        case TraceEventKind::kRerouteDrain:
          break;
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Keyed& a, const Keyed& b) {
              if (a.event.at != b.event.at) return a.event.at < b.event.at;
              if (a.component != b.component) return a.component < b.component;
              return a.position < b.position;
            });

  // Credit-stall windows per component (flow-agnostic events: arg 0 opens
  // a window, arg 1 closes it; an unclosed window runs to the capture end).
  std::vector<std::vector<std::pair<TimePs, TimePs>>> stalls(
      capture.components.size());
  for (std::size_t c = 0; c < capture.components.size(); ++c) {
    bool open = false;
    TimePs opened_at = 0;
    for (const TraceEvent& event : capture.components[c].events) {
      if (event.kind != TraceEventKind::kCreditStall) continue;
      if (event.arg == 0) {
        open = true;
        opened_at = event.at;
      } else if (open) {
        stalls[c].push_back({opened_at, event.at});
        open = false;
      }
    }
    if (open)
      stalls[c].push_back({opened_at, std::numeric_limits<TimePs>::max()});
  }

  bool have_inject = false;
  bool delivered_somewhere = false;
  bool saw_drop = false;
  bool hop_open = false;
  JourneyHop hop;
  TimePs ready = 0;
  for (const Keyed& keyed : events) {
    const TraceEvent& event = keyed.event;
    journey.events.push_back(event);
    switch (event.kind) {
      case TraceEventKind::kInject:
        have_inject = true;
        journey.inject = event.at;
        ready = event.at;
        break;
      case TraceEventKind::kEnqueue:
        ready = event.at;
        break;
      case TraceEventKind::kTx:
      case TraceEventKind::kRetry:
        if (!hop_open) {
          hop = JourneyHop{};
          hop.ready = ready;
          hop.first_tx = event.at;
          hop.tx_component = event.component;
          hop_open = true;
        }
        hop.last_tx = event.at;
        hop.tx_attempts += 1;
        break;
      case TraceEventKind::kDeliver:
        if (hop_open) {
          hop.rx_component = event.component;
          hop.delivered = event.at;
          hop.credit_stall = window_overlap(stalls[hop.tx_component],
                                            hop.ready, hop.first_tx);
          hop.queue_wait = (hop.first_tx - hop.ready) - hop.credit_stall;
          hop.retry_time = hop.last_tx - hop.first_tx;
          hop.wire_time = event.at - hop.last_tx;
          journey.hops.push_back(hop);
          hop_open = false;
        }
        journey.delivered = event.at;
        ready = event.at;
        delivered_somewhere = true;
        break;
      case TraceEventKind::kDrop:
        saw_drop = true;
        break;
      case TraceEventKind::kNack:
      case TraceEventKind::kAck:
      case TraceEventKind::kCreditStall:
      case TraceEventKind::kEcnMark:
      case TraceEventKind::kRerouteDrain:
        break;
    }
  }
  journey.complete = have_inject && !journey.hops.empty();
  // Drop events alone do not mean loss: corrupted attempts that retry
  // recovered, and stale discards of duplicate go-back-N replays, both
  // trail a successful lifecycle. A flit is dropped when it left the
  // system without ever being delivered.
  journey.dropped = saw_drop && !delivered_somewhere;
  return journey;
}

std::string journey_table(const FlitJourney& journey,
                          const TraceCapture& capture) {
  const auto name_of = [&](std::uint16_t id) -> std::string {
    if (id < capture.components.size()) return capture.components[id].name;
    std::string unknown = "component-";
    unknown += std::to_string(id);
    return unknown;
  };
  sim::TextTable table({"hop", "tx", "rx", "queue ps", "stall ps", "retry ps",
                        "wire ps", "hop total ps", "tries"});
  for (std::size_t i = 0; i < journey.hops.size(); ++i) {
    const JourneyHop& hop = journey.hops[i];
    table.add_row({std::to_string(i), name_of(hop.tx_component),
                   name_of(hop.rx_component), std::to_string(hop.queue_wait),
                   std::to_string(hop.credit_stall),
                   std::to_string(hop.retry_time),
                   std::to_string(hop.wire_time),
                   std::to_string(hop.delivered - hop.ready),
                   std::to_string(hop.tx_attempts)});
  }
  table.add_row({"sum", "-", "-", std::to_string(journey.total_queue_wait()),
                 std::to_string(journey.total_credit_stall()),
                 std::to_string(journey.total_retry_time()),
                 std::to_string(journey.total_wire_time()),
                 std::to_string(journey.total()), "-"});
  return table.to_string();
}

}  // namespace rxl::obs
