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
    : capacity_(capacity == 0 ? 1 : capacity)
{
    ring_.reserve(capacity_);
}

void
RingTraceSink::push(const TraceEvent &ev)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(ev);
    } else {
        ring_[next_] = ev;
        if (++next_ == capacity_)
            next_ = 0;
    }
    ++recorded_;
}

std::vector<TraceEvent>
RingTraceSink::drain() const
{
    // Once full, the oldest surviving record sits at next_ (the slot the
    // upcoming record overwrites); until then next_ is 0.
    const auto oldest = ring_.begin() + static_cast<std::ptrdiff_t>(next_);
    std::vector<TraceEvent> out(oldest, ring_.end());
    out.insert(out.end(), ring_.begin(), oldest);
    return out;
}

void
RingTraceSink::clear()
{
    ring_.clear();
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
