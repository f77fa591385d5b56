#include "trace/trace.hpp"

#include "sim/flow.hpp"

namespace anton2 {

const char *
traceEventName(TraceEventType t)
{
    switch (t) {
      case TraceEventType::Inject: return "inject";
      case TraceEventType::RouteComputed: return "route_computed";
      case TraceEventType::VcAllocated: return "vc_allocated";
      case TraceEventType::SwitchGrant: return "switch_grant";
      case TraceEventType::LinkTraverse: return "link_traverse";
      case TraceEventType::Retransmit: return "retransmit";
      case TraceEventType::Eject: return "eject";
      case TraceEventType::Depart: return "depart";
    }
    return "unknown";
}

const char *
stallClassName(StallClass c)
{
    switch (c) {
      case StallClass::Busy: return "busy";
      case StallClass::LinkBusy: return "link_busy";
      case StallClass::CreditStall: return "credit_stall";
      case StallClass::ArbLoss: return "arb_loss";
      case StallClass::NoInput: return "no_input";
    }
    return "unknown";
}

RingTraceSink::RingTraceSink(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity)
{
}

void
RingTraceSink::push(const TraceEvent &ev)
{
    ring_[next_] = ev;
    next_ = (next_ + 1) % ring_.size();
    ++recorded_;
}

std::size_t
RingTraceSink::size() const
{
    return recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                    : ring_.size();
}

std::uint64_t
RingTraceSink::dropped() const
{
    return recorded_ < ring_.size() ? 0 : recorded_ - ring_.size();
}

std::vector<TraceEvent>
RingTraceSink::drain() const
{
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    // When full, the oldest surviving record sits at next_ (the slot the
    // upcoming record would overwrite); otherwise the ring starts at 0.
    const std::size_t start = recorded_ < ring_.size() ? 0 : next_;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

void
RingTraceSink::clear()
{
    next_ = 0;
    recorded_ = 0;
}

void
PacketEventStream::configure(std::size_t lanes, std::size_t window_depth)
{
    buckets_.assign(window_depth < 1 ? 1 : window_depth, {});
    for (auto &bucket : buckets_)
        bucket.configure(lanes);
}

void
PacketEventStream::deliver(const PacketEvent &ev)
{
    if ((ev.to & PacketEvent::kToTrace) != 0)
        trace_->push({ ev.cycle, ev.packet, ev.node, ev.unit, ev.port,
                       ev.kind, ev.type, ev.vc });
    if ((ev.to & PacketEvent::kToFlows) != 0)
        flows_->addHop(ev);
}

} // namespace anton2
