#include "noc/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "debug/checkpoint.hpp"
#include "noc/packet_slab.hpp"
#include "noc/router.hpp"
#include "sim/flow.hpp"

namespace anton2 {

void
PacketFifo::grow()
{
    const std::uint32_t cap = cap_ == 0 ? 8 : 2 * cap_;
    auto ring = std::make_unique<PacketPtr[]>(cap);
    for (std::uint32_t i = 0; i < size_; ++i)
        ring[i] = (*this)[i];
    ring_ = std::move(ring);
    cap_ = cap;
    head_ = 0;
}

EndpointAdapter::EndpointAdapter(const EndpointConfig &cfg, EndpointAddr addr)
    : cfg_(cfg), addr_(addr)
{
    if (cfg.num_vcs < 1 || cfg.num_vcs > CreditCounter::kMaxVcs)
        throw std::invalid_argument("endpoint adapter supports 1-16 VCs");
    eject_.resize(static_cast<std::size_t>(cfg.num_vcs));
}

void
EndpointAdapter::connectRouterOut(Channel &ch, int router_buf_flits)
{
    to_router_ = &ch;
    router_credits_.init(cfg_.num_vcs, router_buf_flits);
    ch.credit.attachDoorbell(bell_, kCreditBell);
}

void
EndpointAdapter::connectRouterIn(Channel &ch)
{
    from_router_ = &ch;
    ch.data.attachDoorbell(bell_, kEjectBell);
}

void
EndpointAdapter::inject(const PacketPtr &pkt)
{
    inject_q_[static_cast<int>(pkt->tc)].push_back(pkt);
    bell_.wake().now();
}

std::size_t
EndpointAdapter::injectQueueDepth(TrafficClass tc) const
{
    std::size_t depth = inject_q_[static_cast<int>(tc)].size();
    if (inj_active_ != nullptr && inj_active_->tc == tc)
        ++depth;
    return depth;
}

void
EndpointAdapter::armCounter(std::int32_t counter, int count)
{
    counters_[counter] += count;
}

void
EndpointAdapter::tickInject(Cycle now, std::uint32_t rung)
{
    if (to_router_ == nullptr)
        return;
    if ((rung >> kCreditBell) & 1u) {
        if (auto cr = to_router_->credit.take(now))
            router_credits_.release(cr->vc);
    }

    // Start a new packet: round-robin between the two traffic classes,
    // gated on full-packet credits (virtual cut-through).
    if (inj_active_ == nullptr) {
        for (int attempt = 0; attempt < kNumTrafficClasses; ++attempt) {
            const int c = (next_class_ + attempt) % kNumTrafficClasses;
            if (inject_q_[c].empty())
                continue;
            const PacketPtr pkt = inject_q_[c].front();
            // The endpoint->router channel is M-group; a fresh packet's
            // mesh VC within its traffic class is 0.
            const int vc = fullVcIndex(pkt->tc, pkt->vc.meshVc(),
                                       cfg_.num_vcs / kNumTrafficClasses);
            if (router_credits_.available(vc) < pkt->size_flits)
                continue;
            router_credits_.consume(vc, pkt->size_flits);
            inj_active_ = pkt;
            inj_sent_ = 0;
            inject_q_[c].pop_front();
            next_class_ = (c + 1) % kNumTrafficClasses;
            inj_active_->inject_time = now;
            // Also the source-queueing span: birth -> injection grant.
            // Both cycles already exist; the probe reads no clock.
            emitPacketEvent(events_, TraceEventType::Inject, now,
                            inj_active_, -1, vc, inj_active_->birth, now);
            break;
        }
    }

    if (inj_active_ != nullptr) {
        const int vc = fullVcIndex(inj_active_->tc, inj_active_->vc.meshVc(),
                                   cfg_.num_vcs / kNumTrafficClasses);
        const bool tail = inj_sent_ + 1 == inj_active_->size_flits;
        Phit phit;
        phit.pkt = inj_active_;
        phit.vc = static_cast<std::uint8_t>(vc);
        phit.index = inj_sent_;
        phit.head = (inj_sent_ == 0);
        phit.tail = tail;
        to_router_->data.send(now, phit);
        ++inj_sent_;
        ++flits_injected_;
        if (tail) {
            inj_active_ = nullptr;
            inj_sent_ = 0;
            ++injected_;
        }
    }
}

void
EndpointAdapter::tickEject(Cycle now, std::uint32_t rung)
{
    if (from_router_ == nullptr || ((rung >> kEjectBell) & 1u) == 0)
        return;
    auto phit = from_router_->data.take(now);
    if (!phit)
        return;

    // Sink semantics: accept the flit and return the credit immediately.
    from_router_->credit.send(now, Credit{ phit->vc });
    ++flits_ejected_;

    auto &slot = eject_[phit->vc];
    if (phit->head) {
        assert(slot.pkt == nullptr && "interleaved packets on one VC");
        slot.pkt = phit->pkt;
        slot.arrived = 0;
        slot.head_at = now;
    }
    ++slot.arrived;
    if (slot.arrived < slot.pkt->size_flits)
        return;

    // Full packet delivered. Endpoint-local accounting happens here;
    // the side effects that touch shared machine state run inline only
    // in standalone use - under a Machine they are queued and drained by
    // the engine's serial phase after the per-cycle barrier (identically
    // in serial and threaded runs).
    PacketPtr pkt = slot.pkt;
    const Cycle head_at = slot.head_at;
    slot = EjectSlot{};
    pkt->eject_time = now;
    last_delivery_ = now;
    // The Eject record's port slot carries the packet's inter-node hop
    // count, surfaced as the flight record's `hops` column.
    emitPacketEvent(events_, TraceEventType::Eject, now, pkt, pkt->hops,
                    phit->vc);
    if (staged_ != nullptr) {
        pending_.push_back({ pkt, head_at, now });
        *staged_ |= staged_bit_;
    } else {
        deliverSideEffects(pkt, head_at, now);
    }
}

void
EndpointAdapter::deliverSideEffects(PacketPtr pkt, Cycle head_at, Cycle now)
{
    // Counted with the side effects, as the Machine counts its own.
    ++delivered_;

    // Close the packet's flight in the flow matrix. Under a Machine
    // this runs in the serial delivery flush (canonical order), after
    // the cycle's staged hop records were merged.
    FlowProbe *flows =
        events_.stream != nullptr ? events_.stream->flows() : nullptr;
    if (flows != nullptr && pkt->mcast_group < 0) {
        FlowDeliveryRecord d;
        d.packet = pkt->id;
        d.src_node = static_cast<std::int64_t>(pkt->src.node);
        d.src_ep = pkt->src.ep;
        d.dst_node = static_cast<std::int64_t>(pkt->dst.node);
        d.dst_ep = pkt->dst.ep;
        d.tc = static_cast<int>(pkt->tc);
        d.size_flits = pkt->size_flits;
        d.hops = pkt->hops;
        d.birth = pkt->birth;
        d.delivered = now;
        flows->recordDelivery(d);
    }

    if (deliver_fn_)
        deliver_fn_(pkt, head_at, now);

    if (pkt->op == OpKind::ReadRequest) {
        if (read_fn_)
            read_fn_(pkt, now);
    } else if (pkt->counter >= 0) {
        // Counted write: decrement; dispatch the handler at zero.
        auto it = counters_.find(pkt->counter);
        if (it != counters_.end() && --it->second <= 0) {
            counters_.erase(it);
            if (handler_fn_)
                handler_fn_(pkt->counter, now);
        }
    }
    // Delivered and every side effect run: the packet's life ends here.
    pkt->slab->release(pkt);
}

void
EndpointAdapter::flushDeliveries(Cycle up_to)
{
    // Entries are appended by tickEject in nondecreasing cycle order, so
    // the deliveries due at or before up_to form a prefix. Index loop:
    // handlers may inject new packets (never new pending deliveries -
    // those only arise inside tickEject).
    std::size_t done = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].at > up_to)
            break;
        const PendingDelivery d = pending_[i];
        deliverSideEffects(d.pkt, d.head_at, d.at);
        done = i + 1;
    }
    if (done == pending_.size())
        pending_.clear();
    else if (done > 0)
        pending_.erase(pending_.begin(),
                       pending_.begin() + static_cast<std::ptrdiff_t>(done));
}

void
EndpointAdapter::tick(Cycle now)
{
    const std::uint32_t rung = bell_.take(now);
    tickInject(now, rung);
    tickEject(now, rung);
}

int
EndpointAdapter::injectReservedFlits(int vc) const
{
    if (inj_active_ == nullptr)
        return 0;
    const int active_vc =
        fullVcIndex(inj_active_->tc, inj_active_->vc.meshVc(),
                    cfg_.num_vcs / kNumTrafficClasses);
    if (active_vc != vc)
        return 0;
    return inj_active_->size_flits - static_cast<int>(inj_sent_);
}

Cycle
EndpointAdapter::oldestBirth() const
{
    Cycle oldest = kNoCycle;
    if (inj_active_ != nullptr)
        oldest = inj_active_->birth;
    for (const auto &slot : eject_) {
        if (slot.pkt != nullptr && slot.pkt->birth < oldest)
            oldest = slot.pkt->birth;
    }
    return oldest;
}

void
EndpointAdapter::fields(CkptArchive &ar, const Router &to_router)
{
    ar.tag("endpoint");
    // Staged deliveries are flushed by the serial phase within the same
    // cycle, so at any window boundary the pending list is empty; a
    // non-empty list here means the save point is mid-window.
    assert(pending_.empty() && "checkpoint mid-window (pending deliveries)");
    ar.same(to_router_ != nullptr, "endpoint wiring mismatch");
    if (to_router_ != nullptr)
        router_credits_.fields(ar);
    for (auto &q : inject_q_) {
        ar.size(q, ~std::size_t{ 0 }, 4, "injection queue");
        for (std::size_t i = 0; i < q.size(); ++i)
            ar.packet(q[i]);
    }
    ar.io(next_class_, 0, kNumTrafficClasses - 1, "next traffic class");
    ar.packet(inj_active_, /*nullable=*/true);
    ar.io(inj_sent_);
    ar.same(static_cast<std::uint32_t>(eject_.size()),
            "endpoint VC count mismatch");
    for (EjectSlot &s : eject_) {
        ar.packet(s.pkt, /*nullable=*/true);
        ar.io(s.arrived);
        ar.io(s.head_at);
        ar.check(s.pkt != nullptr
                     ? s.arrived > 0 && s.arrived < s.pkt->size_flits
                     : s.arrived == 0,
                 "reassembly slot flit count out of range");
    }
    // unordered_map iteration order is not deterministic; sort by key so
    // identical machine states produce identical checkpoint bytes.
    std::vector<std::pair<std::int32_t, int>> armed(counters_.begin(),
                                                    counters_.end());
    std::sort(armed.begin(), armed.end());
    ar.size(armed, ~std::size_t{ 0 }, 8, "armed counters");
    for (auto &[counter, count] : armed) {
        ar.io(counter);
        ar.io(count);
    }
    ar.io(delivered_);
    ar.io(injected_);
    ar.io(flits_injected_);
    ar.io(flits_ejected_);
    ar.io(last_delivery_);
    if (!ar.loading())
        return;

    counters_ = { armed.begin(), armed.end() };
    ar.check(counters_.size() == armed.size(), "counter armed twice");
    ar.check(inj_active_ != nullptr ? inj_sent_ < inj_active_->size_flits
                                    : inj_sent_ == 0,
             "injection progress out of range");
    for (const auto &q : inject_q_) {
        for (std::size_t i = 0; i < q.size(); ++i)
            ar.holds(q[i], 0, q[i]->size_flits);
    }
    if (inj_active_ != nullptr)
        ar.holds(inj_active_, inj_sent_, inj_active_->size_flits);
    for (const EjectSlot &s : eject_) {
        if (s.pkt != nullptr)
            ar.holds(s.pkt, 0, s.arrived);
    }
    // The endpoint's router routes every packet still to be injected.
    bool routable = inj_active_ == nullptr || to_router.routable(*inj_active_);
    for (const auto &q : inject_q_) {
        for (std::size_t i = 0; i < q.size(); ++i)
            routable = routable && to_router.routable(*q[i]);
    }
    ar.check(routable, "queued packet has no route at the endpoint's "
                       "router");
}

bool
EndpointAdapter::busy() const
{
    if (inj_active_ != nullptr)
        return true;
    for (const auto &q : inject_q_) {
        if (!q.empty())
            return true;
    }
    for (const auto &slot : eject_) {
        if (slot.pkt != nullptr)
            return true;
    }
    for (const Channel *ch : { to_router_, from_router_ }) {
        if (ch != nullptr && ch->busy())
            return true;
    }
    return false;
}

} // namespace anton2
