#include "rxl/switchdev/relay_switch.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rxl::switchdev {

RelaySwitch::RelaySwitch(sim::EventQueue& queue, std::string name,
                         EgressScheduler scheduler, std::size_t ecn_threshold)
    : queue_(queue),
      name_(std::move(name)),
      scheduler_(scheduler),
      ecn_threshold_(ecn_threshold) {}

std::size_t RelaySwitch::add_port(const transport::ProtocolConfig& config,
                                  link::HopCredits credits) {
  const std::size_t index = ports_.size();
  std::string port_name = name_;
  port_name += ".p";
  port_name += std::to_string(index);
  Port port;
  // Set-up only: ports are added before traffic starts.
  port.endpoint = std::make_unique<transport::Endpoint>(  // rxl-lint: allow(R3)
      queue_, config, std::move(port_name), credits);
  ports_.push_back(std::move(port));
  transport::Endpoint& endpoint = *ports_[index].endpoint;
  // The relay, not the endpoint, owns the bounded store-and-forward buffer:
  // a slot frees (and its credit returns upstream) only when the egress
  // port re-originates the payload, not when the ingress delivers it.
  endpoint.set_deferred_credit_return(true);
  endpoint.set_deliver([this, index](const sim::FlitEnvelope& envelope) {
    on_delivered(index, envelope);
  });
  endpoint.set_relay_source(
      [this, index](transport::Endpoint::PayloadOut out) {
        return pull_next(index, out);
      });
  return index;
}

std::size_t RelaySwitch::total_pending(const Port& port) noexcept {
  std::size_t total = 0;
  for (const RingQueue<Pending>& queue : port.queues) total += queue.size();
  return total;
}

void RelaySwitch::update_ecn(Port& in_port, std::size_t vc) {
  if (ecn_threshold_ == 0) return;
  const std::size_t occupancy = in_port.in_queue_by_vc[vc];
  const auto bit = static_cast<std::uint8_t>(1u << vc);
  const bool marked = (in_port.ecn_marks & bit) != 0;
  // Hysteresis: mark at >= threshold, clear only once drained to half, so
  // an occupancy oscillating around the threshold does not flap the mark
  // (and its standalone adverts) on every flit.
  if (!marked && occupancy >= ecn_threshold_) {
    in_port.ecn_marks = static_cast<std::uint8_t>(in_port.ecn_marks | bit);
    in_port.stats.ecn_mark_events += 1;
  } else if (marked && occupancy <= ecn_threshold_ / 2) {
    in_port.ecn_marks = static_cast<std::uint8_t>(in_port.ecn_marks & ~bit);
    in_port.stats.ecn_clear_events += 1;
  } else {
    return;
  }
  in_port.endpoint->set_ecn_marks(in_port.ecn_marks);
}

void RelaySwitch::park(RingQueue<Pending>& queue, const sim::StreamTag& tag,
                       std::uint32_t ingress,
                       std::span<const std::uint8_t, kPayloadBytes> bytes) {
  Pending& pending = queue.push_back_slot();
  pending.tag = tag;
  pending.ingress = ingress;
  if (tag.payload_of != nullptr) {
    pending.slab = kNoSlab;
    return;
  }
  if (slab_free_.empty()) {
    slab_free_.push_back(static_cast<std::uint32_t>(slab_.size()));
    slab_.emplace_back();
  }
  pending.slab = slab_free_.back();
  slab_free_.pop_back();
  std::copy(bytes.begin(), bytes.end(), slab_[pending.slab].begin());
}

/// Hands the head of one of `port`'s queues to the pulling endpoint,
/// described in `pull` (a payload held as bytes is copied from its slab
/// slot into its retry slot, and the slab slot freed; one held by
/// reference is passed on as the reference), then does the dequeue-side
/// bookkeeping: the payload leaves the bounded buffer, so the ingress slot
/// frees and its credit returns upstream on the VC that billed it. The head
/// leaves the queue first: the credit return may kick the ingress endpoint
/// into a nested pull.
void RelaySwitch::dequeue_front(Port& port, RingQueue<Pending>& queue,
                                transport::Endpoint::PayloadOut out,
                                transport::Endpoint::RelayPull& pull) {
  const Pending& head = queue.front();
  if (head.tag.payload_of == nullptr) {
    assert(head.slab < slab_.size());
    const PayloadBytes& bytes = slab_[head.slab];
    std::copy(bytes.begin(), bytes.end(), out.begin());
    slab_free_.push_back(head.slab);
  }
  static_cast<sim::StreamTag&>(pull) = head.tag;
  pull.pulled = true;
  const std::uint32_t ingress = head.ingress;
  queue.drop_front();
  port.stats.relayed_out += 1;
  if (ingress == kNoIngress) return;
  Port& in_port = ports_[ingress];
  const std::uint8_t vc = pull.vc;
  assert(in_port.in_queue > 0 && in_port.in_queue_by_vc[vc] > 0);
  in_port.in_queue -= 1;
  in_port.in_queue_by_vc[vc] -= 1;
  update_ecn(in_port, vc);
  in_port.endpoint->return_credits(vc, 1);
}

transport::Endpoint::RelayPull RelaySwitch::pull_next(
    std::size_t egress, transport::Endpoint::PayloadOut out) {
  Port& port = ports_[egress];
  transport::Endpoint::RelayPull pull;
  const transport::Endpoint& endpoint = *port.endpoint;
  if (scheduler_.policy() == EgressPolicy::kFifo) {
    // Shared queue: the head decides, and a blocked head blocks everything
    // behind it — the HOL behaviour the VC policies exist to fix.
    if (port.queues[0].empty()) return pull;
    const std::uint8_t vc = port.queues[0].front().tag.vc;
    if (!endpoint.credit_windows().vc(vc).available()) {
      pull.credit_blocked = true;
      return pull;
    }
    if (!endpoint.vc_send_ready(vc)) {
      pull.ecn_blocked = true;
      return pull;
    }
    dequeue_front(port, port.queues[0], out, pull);
    return pull;
  }
  const std::optional<std::size_t> vc = scheduler_.pick(
      port.drr, [&](std::size_t v) { return port.queues[v].empty(); },
      [&](std::size_t v) { return endpoint.credit_windows().vc(v).available(); },
      [&](std::size_t v) { return endpoint.vc_send_ready(v); },
      &pull.credit_blocked, &pull.ecn_blocked);
  if (!vc.has_value()) return pull;
  dequeue_front(port, port.queues[*vc], out, pull);
  return pull;
}

void RelaySwitch::set_route(std::uint16_t flow_id, std::size_t egress_port) {
  assert(egress_port < ports_.size());
  if (routes_.size() <= flow_id) routes_.resize(flow_id + 1u, kNoRoute);
  routes_[flow_id] = static_cast<std::uint32_t>(egress_port);
}

void RelaySwitch::inject(std::size_t egress_port,
                         const transport::Endpoint::TxItem& item) {
  assert(egress_port < ports_.size());
  Port& out_port = ports_[egress_port];
  assert(item.vc < link::kMaxVcs);
  trace(obs::TraceEventKind::kEnqueue, item.truth_index, item.flow_id, 0,
        item.vc, static_cast<std::uint32_t>(egress_port));
  const std::size_t queue_index =
      scheduler_.policy() == EgressPolicy::kFifo ? 0 : item.vc;
  park(out_port.queues[queue_index], item, kNoIngress, item.payload);
  const std::size_t depth = total_pending(out_port);
  if (depth > out_port.stats.max_queue_depth)
    out_port.stats.max_queue_depth = depth;
  out_port.endpoint->kick();
}

std::size_t RelaySwitch::migrate_pending(std::size_t from_port,
                                         std::size_t to_port,
                                         std::uint16_t flow_id) {
  assert(from_port < ports_.size() && to_port < ports_.size());
  if (from_port == to_port) return 0;
  Port& from = ports_[from_port];
  Port& to = ports_[to_port];
  // Drain each source queue completely, splitting by flow: both the
  // stayers and the movers re-enter their queues in the order they were
  // parked. A flow lives in exactly one queue (its VC's, or the shared
  // FIFO), so per-flow FIFO order survives the switchover.
  std::size_t moved = 0;
  for (std::size_t q = 0; q < from.queues.size(); ++q) {
    const std::size_t parked = from.queues[q].size();
    for (std::size_t i = 0; i < parked; ++i) {
      const Pending pending = from.queues[q].pop_front();
      if (pending.tag.flow_id == flow_id) {
        to.queues[q].push_back(pending);
        moved += 1;
      } else {
        from.queues[q].push_back(pending);
      }
    }
  }
  const std::size_t depth = total_pending(to);
  if (depth > to.stats.max_queue_depth) to.stats.max_queue_depth = depth;
  if (moved > 0) to.endpoint->kick();
  return moved;
}

bool RelaySwitch::has_flow_queued(std::uint16_t flow_id) const {
  for (const Port& port : ports_) {
    for (const RingQueue<Pending>& queue : port.queues) {
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue.at(i).tag.flow_id == flow_id) return true;
      }
    }
  }
  return false;
}

RelayPortStats RelaySwitch::port_stats(std::size_t i) const {
  RelayPortStats stats = ports_[i].stats;
  stats.queue_occupancy = total_pending(ports_[i]);
  stats.credit_stalls = ports_[i].endpoint->extra_stats().credit_stalls;
  return stats;
}

void RelaySwitch::on_delivered(std::size_t ingress,
                               const sim::FlitEnvelope& envelope) {
  // Only a flit an error touched was sealed, and it holds its payload as
  // bytes: a reference never rides a sealed image into the queue.
  assert(envelope.payload_of == nullptr ||
         envelope.seal == sim::SealState::kUnsealed);
  Port& in_port = ports_[ingress];
  in_port.stats.relayed_in += 1;
  const std::uint32_t egress =
      envelope.flow_id < routes_.size() ? routes_[envelope.flow_id] : kNoRoute;
  // The flit carries its VC from the source; it picks the per-VC queue,
  // the ingress partition it bills and the ECN mark that throttles it.
  const std::uint8_t vc = envelope.vc;
  assert(vc < link::kMaxVcs);
  if (egress == kNoRoute) {
    in_port.stats.dropped_no_route += 1;
    trace(obs::TraceEventKind::kDrop, envelope.truth_index, envelope.flow_id,
          0, vc, obs::kDropNoRoute);
    // The drop vacates the buffer slot the upstream transmitter charged
    // for this payload; return the credit or the hop would leak its
    // window one misroute at a time.
    in_port.endpoint->return_credits(vc, 1);
    return;
  }
  Port& out_port = ports_[egress];
  const std::size_t queue_index =
      scheduler_.policy() == EgressPolicy::kFifo ? 0 : vc;
  trace(obs::TraceEventKind::kEnqueue, envelope.truth_index,
        envelope.flow_id, 0, vc, static_cast<std::uint32_t>(egress));
  // Bytes are copied into the slab only for a payload held as bytes (one
  // an error touched on the way in); a reference is parked as the
  // reference.
  park(out_port.queues[queue_index], envelope,
       static_cast<std::uint32_t>(ingress), envelope.flit.payload());
  const std::size_t depth = total_pending(out_port);
  if (depth > out_port.stats.max_queue_depth)
    out_port.stats.max_queue_depth = depth;
  in_port.in_queue += 1;
  in_port.in_queue_by_vc[vc] += 1;
  if (in_port.in_queue > in_port.stats.ingress_high_water)
    in_port.stats.ingress_high_water = in_port.in_queue;
  if (in_port.in_queue_by_vc[vc] > in_port.stats.vc_ingress_high_water[vc])
    in_port.stats.vc_ingress_high_water[vc] = in_port.in_queue_by_vc[vc];
  // With credit flow control on the ingress hop, the upstream PER-VC window
  // makes overflow impossible: each VC partition's occupancy can never
  // exceed the advertised depth.
  assert(in_port.endpoint->credits().rx == 0 ||
         in_port.in_queue_by_vc[vc] <= in_port.endpoint->credits().rx);
  update_ecn(in_port, vc);
  out_port.endpoint->kick();
}

}  // namespace rxl::switchdev
