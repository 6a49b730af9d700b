#include "rxl/obs/trace.hpp"

#include <utility>

namespace rxl::obs {

const char* trace_event_kind_name(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kInject:
      return "inject";
    case TraceEventKind::kEnqueue:
      return "enqueue";
    case TraceEventKind::kTx:
      return "tx";
    case TraceEventKind::kRetry:
      return "retry";
    case TraceEventKind::kNack:
      return "nack";
    case TraceEventKind::kAck:
      return "ack";
    case TraceEventKind::kCreditStall:
      return "credit-stall";
    case TraceEventKind::kEcnMark:
      return "ecn-mark";
    case TraceEventKind::kRerouteDrain:
      return "reroute-drain";
    case TraceEventKind::kDeliver:
      return "deliver";
    case TraceEventKind::kDrop:
      return "drop";
  }
  return "?";
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(at(i));
  return out;
}

std::uint64_t TraceCapture::total_events() const noexcept {
  std::uint64_t total = 0;
  for (const TraceComponentCapture& component : components)
    total += component.events.size();
  return total;
}

std::uint64_t TraceCapture::total_overruns() const noexcept {
  std::uint64_t total = 0;
  for (const TraceComponentCapture& component : components)
    total += component.overruns;
  return total;
}

std::uint16_t TraceSink::add_component(std::string name) {
  const std::uint16_t id = static_cast<std::uint16_t>(rings_.size());
  names_.push_back(std::move(name));
  rings_.push_back(TraceRing(ring_capacity_));
  return id;
}

TraceCapture TraceSink::capture() const {
  TraceCapture out;
  out.components.reserve(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    TraceComponentCapture component;
    component.name = names_[i];
    component.overruns = rings_[i].overruns();
    component.events = rings_[i].snapshot();
    out.components.push_back(std::move(component));
  }
  return out;
}

}  // namespace rxl::obs
