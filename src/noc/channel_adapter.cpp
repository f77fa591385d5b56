#include "noc/channel_adapter.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "debug/checkpoint.hpp"
#include "noc/router.hpp"

namespace anton2 {
namespace {

/** @p cfg, once its VCs fit the adapter's credit counters and
 * arbiters (checked before the arbiters are built from it). */
const ChannelAdapterConfig &
checkedConfig(const ChannelAdapterConfig &cfg)
{
    if (cfg.num_vcs < 1 || cfg.num_vcs > CreditCounter::kMaxVcs)
        throw std::invalid_argument("channel adapter supports 1-16 VCs");
    return cfg;
}

} // namespace

ChannelAdapter::ChannelAdapter(const ChannelAdapterConfig &cfg,
                               bool crosses_dateline, IngressFn ingress_fn,
                               LaneRelease release)
    : cfg_(checkedConfig(cfg)),
      vcs_per_class_(std::max(1, cfg.num_vcs / kNumTrafficClasses)),
      crosses_dateline_(crosses_dateline),
      ingress_fn_(std::move(ingress_fn)),
      release_(release),
      egress_vcs_(static_cast<std::size_t>(cfg.num_vcs)),
      egress_arb_(makeArbiter(cfg.arb, cfg.num_vcs)),
      ingress_vcs_(static_cast<std::size_t>(cfg.num_vcs)),
      ingress_heads_(static_cast<std::size_t>(cfg.num_vcs)),
      ingress_arb_(makeArbiter(cfg.arb, cfg.num_vcs))
{
    for (auto &vc : egress_vcs_)
        vc.init(cfg.buf_flits_per_vc);
    for (auto &vc : ingress_vcs_)
        vc.init(cfg.buf_flits_per_vc);
}

void
ChannelAdapter::connectRouterIn(Channel &ch)
{
    router_in_ = &ch;
    ch.data.attachDoorbell(bell_, kEgressDataBell);
}

void
ChannelAdapter::connectRouterOut(Channel &ch, int router_buf_flits)
{
    router_out_ = &ch;
    router_credits_.init(cfg_.num_vcs, router_buf_flits);
    ch.credit.attachDoorbell(bell_, kIngressCreditBell);
}

void
ChannelAdapter::connectTorusOut(Channel &ch, int peer_buf_flits)
{
    torus_out_ = &ch;
    torus_credits_.init(cfg_.num_vcs, peer_buf_flits);
    ch.credit.attachRemote(bell_);
}

void
ChannelAdapter::connectTorusIn(Channel &ch)
{
    torus_in_ = &ch;
    ch.data.attachRemote(bell_);
}

void
ChannelAdapter::tickEgress(Cycle now, std::uint32_t rung)
{
    if (router_in_ == nullptr || torus_out_ == nullptr)
        return;

    if (auto cr = torus_out_->credit.take(now)) {
        // Negative-control fault hook: a withheld credit leaves the
        // flow-control loop forever, exactly like a lost credit update.
        if (fault_withhold_
            && (fault_withhold_vc_ < 0 || fault_withhold_vc_ == cr->vc))
            ++credits_withheld_;
        else
            torus_credits_.release(cr->vc);
    }
    if ((rung >> kEgressDataBell) & 1u) {
        if (auto phit = router_in_->data.take(now)) {
            if (phit->head) {
                ++egress_packets_;
                egress_nonempty_ |= 1u << phit->vc;
            }
            egress_vcs_[phit->vc].acceptFlit(*phit, now);
        }
    }

    // Serialization tokens: 14 per cycle, 45 per flit (89.6/288 Gb/s).
    // When idle, tokens cap at one flit's worth so a newly arriving packet
    // starts immediately but cannot burst beyond the SerDes rate.
    ser_tokens_ += kSerdesTokensPerCycle;
    if (ser_tokens_ > kSerdesTokenCap)
        ser_tokens_ = kSerdesTokenCap;

    if (egress_packets_ == 0)
        return;

    // Packet-granular virtual cut-through grant.
    if (!egress_busy_) {
        std::uint32_t req = 0;
        bool credit_blocked = false;
        ReqInfo *info = reqInfoScratch();
        for (std::uint32_t m = egress_nonempty_; m != 0; m &= m - 1) {
            const int v = std::countr_zero(m);
            auto &head = egress_vcs_[static_cast<std::size_t>(v)].head();
            if (now <= head.head_at)
                continue;
            if (torus_credits_.available(linkVc(*head.pkt))
                < head.size_flits) {
                credit_blocked = true;
                continue;
            }
            req |= 1u << v;
            info[v].pattern = head.pattern;
        }
        if (req == 0 && credit_blocked)
            ++credit_stalls_;
        if (req != 0) {
            const int v = arbiterPick(egress_arb_, req, info);
            auto &head = egress_vcs_[static_cast<std::size_t>(v)].head();
            egress_link_vc_ = linkVc(*head.pkt);
            head.pkt->vc.onTorusHop(crosses_dateline_);
            ++head.pkt->hops;
            torus_credits_.consume(egress_link_vc_, head.size_flits);
            egress_busy_ = true;
            egress_vc_ = v;
            egress_grant_at_ = now;
        }
    }

    // Transmit at the SerDes rate.
    if (egress_busy_) {
        auto &buf = egress_vcs_[static_cast<std::size_t>(egress_vc_)];
        auto &head = buf.head();
        if (ser_tokens_ >= kSerdesTokensPerFlit
            && head.sent < head.arrived) {
            const bool tail = head.sent + 1 == head.size_flits;
            Phit phit;
            phit.pkt = head.pkt;
            phit.vc = egress_link_vc_;
            phit.index = head.sent;
            phit.head = (head.sent == 0);
            phit.tail = tail;
            torus_out_->data.send(now, phit);
            if (head.sent == 0)
                emitPacketEvent(events_, TraceEventType::LinkTraverse, now,
                                head.pkt, -1, egress_link_vc_);
            ser_tokens_ -= kSerdesTokensPerFlit;
            router_in_->credit.send(
                now, Credit{ static_cast<std::uint8_t>(egress_vc_) });
            buf.sendFlit();
            ++flits_sent_;
            if (tail) {
                // Emit the link hop span while the entry is live (all
                // cycles are existing state - no clock reads).
                emitPacketEvent(events_, TraceEventType::Depart, now,
                                head.pkt, -1, egress_link_vc_, head.head_at,
                                egress_grant_at_);
                buf.popHead();
                if (buf.empty())
                    egress_nonempty_ &= ~(1u << egress_vc_);
                --egress_packets_;
                egress_busy_ = false;
                egress_vc_ = -1;
            }
        }
    } else if (ser_tokens_ >= kSerdesTokensPerFlit) {
        ++idle_cycles_;
    }
}

void
ChannelAdapter::tickIngress(Cycle now, std::uint32_t rung)
{
    if (torus_in_ == nullptr || router_out_ == nullptr)
        return;

    if ((rung >> kIngressCreditBell) & 1u) {
        if (auto cr = router_out_->credit.take(now))
            router_credits_.release(cr->vc);
    }
    if (auto phit = torus_in_->data.take(now)) {
        if (phit->head) {
            ++ingress_packets_;
            ingress_nonempty_ |= 1u << phit->vc;
        }
        ingress_vcs_[phit->vc].acceptFlit(*phit, now);
        ++flits_received_;
    }

    if (ingress_packets_ == 0 && pending_credits_.empty())
        return;

    // Expand new head packets: inter-node route decision (and multicast
    // fan-out) happens once per packet, at the adapter.
    for (std::uint32_t m = ingress_nonempty_ & ~ingress_expanded_; m != 0;
         m &= m - 1) {
        const int v = std::countr_zero(m);
        const auto &buf = ingress_vcs_[static_cast<std::size_t>(v)];
        auto &entry = ingress_heads_[static_cast<std::size_t>(v)];
        ingress_fn_(buf.head().pkt, entry.copies);
        entry.next_copy = 0;
        entry.copy_sent = 0;
        ingress_expanded_ |= 1u << v;
    }

    auto finishEntry = [&](int v) {
        auto &buf = ingress_vcs_[static_cast<std::size_t>(v)];
        auto &entry = ingress_heads_[static_cast<std::size_t>(v)];
        Packet *pkt = buf.head().pkt;
        // Multi-copy (and dropped) packets release their buffer slots and
        // link credits only once all copies have been forwarded.
        if (entry.copies.size() != 1) {
            while (buf.head().sent < pkt->size_flits) {
                buf.sendFlit();
                pendingTorusCredit(v);
            }
        }
        buf.popHead();
        if (buf.empty())
            ingress_nonempty_ &= ~(1u << v);
        --ingress_packets_;
        ingress_expanded_ &= ~(1u << v);
        // A unicast packet continued as its own copy; a multicast packet's
        // copies are new records, so the original retires here.
        if (entry.copies.size() != 1 || entry.copies[0].pkt != pkt)
            release_(pkt);
        entry.copies.clear();
    };

    // Grant a packet copy for the adapter->router channel.
    if (!ingress_busy_) {
        std::uint32_t req = 0;
        ReqInfo *info = reqInfoScratch();
        for (std::uint32_t m = ingress_nonempty_ & ingress_expanded_;
             m != 0; m &= m - 1) {
            const int v = std::countr_zero(m);
            auto &entry = ingress_heads_[static_cast<std::size_t>(v)];
            if (entry.copies.empty()) {
                finishEntry(v); // all copies done (or none): retire
                continue;
            }
            if (entry.next_copy >= entry.copies.size())
                continue;
            const auto &head =
                ingress_vcs_[static_cast<std::size_t>(v)].head();
            if (now <= head.head_at)
                continue;
            const auto &copy = entry.copies[entry.next_copy];
            if (router_credits_.available(copy.vc) < copy.pkt->size_flits)
                continue;
            req |= 1u << v;
            info[v].pattern = copy.pkt->pattern;
        }
        if (req != 0) {
            const int v = arbiterPick(ingress_arb_, req, info);
            auto &entry = ingress_heads_[static_cast<std::size_t>(v)];
            const auto &copy = entry.copies[entry.next_copy];
            router_credits_.consume(copy.vc, copy.pkt->size_flits);
            ingress_busy_ = true;
            ingress_vc_ = v;
        }
    }

    // Forward one flit of the active copy per cycle.
    if (ingress_busy_) {
        const int v = ingress_vc_;
        auto &buf = ingress_vcs_[static_cast<std::size_t>(v)];
        auto &entry = ingress_heads_[static_cast<std::size_t>(v)];
        auto &head = buf.head();
        auto &copy = entry.copies[entry.next_copy];
        if (entry.copy_sent < head.arrived) {
            Phit phit;
            phit.pkt = copy.pkt;
            phit.vc = copy.vc;
            phit.index = entry.copy_sent;
            phit.head = (entry.copy_sent == 0);
            phit.tail = (entry.copy_sent + 1 == copy.pkt->size_flits);
            router_out_->data.send(now, phit);
            ++entry.copy_sent;
            if (entry.copies.size() == 1) {
                // Unicast: stream buffer slots / link credits per flit.
                buf.sendFlit();
                pendingTorusCredit(v);
            }
            if (entry.copy_sent == copy.pkt->size_flits) {
                ++entry.next_copy;
                entry.copy_sent = 0;
                ingress_busy_ = false;
                ingress_vc_ = -1;
                if (entry.next_copy >= entry.copies.size())
                    finishEntry(v);
            }
        }
    }

    // Return at most one torus-link credit per cycle.
    if (!pending_credits_.empty()) {
        torus_in_->credit.send(now, Credit{ pending_credits_.front() });
        pending_credits_.erase(pending_credits_.begin());
    }
}

void
ChannelAdapter::tick(Cycle now)
{
    settleIdle(now);
    idle_from_ = now + 1;
    // One doorbell read covers both on-chip wires; the torus wires are
    // polled inside each side.
    const std::uint32_t rung = bell_.take(now);
    tickEgress(now, rung);
    tickIngress(now, rung);
}

void
ChannelAdapter::settleIdle(Cycle now)
{
    if (idle_from_ >= now) // also kNoCycle: nothing to settle
        return;
    accrueIdle(now - idle_from_);
    idle_from_ = now;
}

void
ChannelAdapter::accrueIdle(Cycle slept)
{
    // Mirror the accrual tickEgress would have run on each slept cycle:
    // +kSerdesTokensPerCycle, capped at kSerdesTokenCap (an idle adapter
    // never passes the egress_packets_ gate, so nothing else in tick()
    // touches state).
    if (router_in_ == nullptr || torus_out_ == nullptr)
        return;
    const Cycle to_cap =
        ser_tokens_ >= kSerdesTokenCap
            ? 0
            : static_cast<Cycle>(
                  (kSerdesTokenCap - ser_tokens_ + kSerdesTokensPerCycle - 1)
                  / kSerdesTokensPerCycle);
    const Cycle n = slept < to_cap ? slept : to_cap;
    ser_tokens_ += static_cast<int>(n) * kSerdesTokensPerCycle;
    if (ser_tokens_ > kSerdesTokenCap)
        ser_tokens_ = kSerdesTokenCap;
}

int
ChannelAdapter::egressReservedFlits(int link_vc) const
{
    if (!egress_busy_ || static_cast<int>(egress_link_vc_) != link_vc)
        return 0;
    const auto &head =
        egress_vcs_[static_cast<std::size_t>(egress_vc_)].head();
    return head.size_flits - static_cast<int>(head.sent);
}

int
ChannelAdapter::ingressReservedFlits(int vc) const
{
    if (!ingress_busy_)
        return 0;
    const auto &entry = ingress_heads_[static_cast<std::size_t>(ingress_vc_)];
    const auto &copy = entry.copies[entry.next_copy];
    if (static_cast<int>(copy.vc) != vc)
        return 0;
    return copy.pkt->size_flits - static_cast<int>(entry.copy_sent);
}

int
ChannelAdapter::pendingTorusCredits(int vc) const
{
    int n = 0;
    for (std::uint8_t c : pending_credits_) {
        if (static_cast<int>(c) == vc)
            ++n;
    }
    return n;
}

void
ChannelAdapter::collectBlockedHeads(std::vector<BlockedHead> &out) const
{
    // Egress heads waiting on torus-link credits.
    if (!egress_busy_) {
        for (int v = 0; v < cfg_.num_vcs; ++v) {
            const auto &buf = egress_vcs_[static_cast<std::size_t>(v)];
            if (buf.empty())
                continue;
            const auto &head = buf.head();
            const std::uint8_t link_vc = linkVc(*head.pkt);
            if (torus_credits_.available(link_vc) >= head.size_flits)
                continue;
            BlockedHead b;
            b.egress = true;
            b.vc = v;
            b.want_vc = link_vc;
            b.pkt = head.pkt;
            out.push_back(b);
        }
    }
    // Ingress copies waiting on adapter->router credits.
    for (int v = 0; v < cfg_.num_vcs; ++v) {
        if (ingress_busy_ && ingress_vc_ == v)
            continue;
        const auto &buf = ingress_vcs_[static_cast<std::size_t>(v)];
        if (buf.empty() || ((ingress_expanded_ >> v) & 1u) == 0)
            continue;
        const auto &entry = ingress_heads_[static_cast<std::size_t>(v)];
        if (entry.next_copy >= entry.copies.size())
            continue;
        const auto &copy = entry.copies[entry.next_copy];
        if (router_credits_.available(copy.vc) >= copy.pkt->size_flits)
            continue;
        BlockedHead b;
        b.egress = false;
        b.vc = v;
        b.want_vc = copy.vc;
        b.pkt = copy.pkt;
        out.push_back(b);
    }
}

void
ChannelAdapter::fields(CkptArchive &ar, const Router &to_router,
                       std::size_t max_copies)
{
    const int vcs = cfg_.num_vcs;
    const auto top_vc = static_cast<std::uint8_t>(vcs - 1);
    ar.tag("channel_adapter");
    // Adapter entries are never granted: their grant slots hold 0.
    Cycle no_grant = 0;
    // Egress side.
    for (VcBuffer &vc : egress_vcs_)
        vc.fields(ar, 0, vcs, no_grant);
    torus_credits_.fields(ar);
    arbiterFields(egress_arb_, ar);
    ar.io(ser_tokens_, 0, kSerdesTokenCap, "serializer tokens out of range");
    ar.io(egress_busy_);
    ar.io(egress_vc_, -1, vcs - 1, "egress active VC");
    ar.io(egress_link_vc_, 0, top_vc, "egress link VC");
    ar.io(egress_grant_at_);
    // Ingress side.
    for (VcBuffer &vc : ingress_vcs_)
        vc.fields(ar, 0, vcs, no_grant);
    ar.same(static_cast<std::uint32_t>(ingress_heads_.size()),
            "adapter VC count mismatch");
    for (IngressEntry &e : ingress_heads_) {
        ar.size(e.copies, max_copies, 5, "ingress copies");
        for (IngressCopy &c : e.copies) {
            ar.packet(c.pkt);
            ar.io(c.vc, 0, top_vc, "ingress copy VC");
        }
        ar.io(e.next_copy);
        ar.io(e.copy_sent);
    }
    for (int v = 0; v < vcs; ++v)
        ar.bit(ingress_expanded_, static_cast<unsigned>(v));
    router_credits_.fields(ar);
    arbiterFields(ingress_arb_, ar);
    ar.io(ingress_busy_);
    ar.io(ingress_vc_, -1, vcs - 1, "ingress active VC");
    // One queued credit per freed ingress slot, at most.
    ar.size(pending_credits_,
            static_cast<std::size_t>(vcs * cfg_.buf_flits_per_vc), 1,
            "pending torus credits");
    for (std::uint8_t &c : pending_credits_)
        ar.io(c, 0, top_vc, "pending credit VC");
    // Counters.
    ar.io(flits_sent_);
    ar.io(flits_received_);
    ar.io(idle_cycles_);
    ar.io(credits_withheld_);
    ar.io(egress_packets_);
    ar.io(ingress_packets_);
    if (!ar.loading())
        return;

    // The active grants must hold a packet with flits left to send, the
    // packet counts and expansion state must match the buffers, and
    // ingress copies need a route at the adapter's router.
    if (egress_busy_) {
        ar.check(egress_vc_ >= 0 && !egress_vcs_[egress_vc_].empty(),
                 "egress grant without a buffered packet");
        const VcBuffer::Entry &head = egress_vcs_[egress_vc_].head();
        ar.check(head.sent < head.size_flits,
                 "egress grant on a sent packet");
    }
    ar.check(egress_busy_ != (egress_vc_ < 0), "egress grant mismatch");
    if (ingress_busy_) {
        ar.check(ingress_vc_ >= 0
                     && ((ingress_expanded_ >> ingress_vc_) & 1u) != 0,
                 "ingress grant on an unexpanded VC");
        const IngressEntry &e = ingress_heads_[ingress_vc_];
        ar.check(e.next_copy < e.copies.size(),
                 "ingress grant without a copy left");
    }
    ar.check(ingress_busy_ != (ingress_vc_ < 0), "ingress grant mismatch");
    int egress = 0;
    int ingress = 0;
    egress_nonempty_ = 0;
    ingress_nonempty_ = 0;
    for (int v = 0; v < vcs; ++v) {
        const VcBuffer &out = egress_vcs_[static_cast<std::size_t>(v)];
        const VcBuffer &in = ingress_vcs_[static_cast<std::size_t>(v)];
        egress += static_cast<int>(out.packetCount());
        ingress += static_cast<int>(in.packetCount());
        egress_nonempty_ |= out.empty() ? 0u : 1u << v;
        ingress_nonempty_ |= in.empty() ? 0u : 1u << v;
        const IngressEntry &e = ingress_heads_[static_cast<std::size_t>(v)];
        const bool active = ingress_busy_ && ingress_vc_ == v;
        // Expansion resets next_copy, so a retired entry keeps a stale one.
        if (((ingress_expanded_ >> v) & 1u) == 0) {
            ar.check(e.copies.empty() && e.copy_sent == 0,
                     "ingress copies on an unexpanded VC");
            continue;
        }
        ar.check(!in.empty() && e.next_copy <= e.copies.size(),
                 "expanded ingress VC without a packet or copy");
        const VcBuffer::Entry &head = in.head();
        for (const IngressCopy &c : e.copies)
            ar.check(c.pkt->size_flits == head.pkt->size_flits
                         && to_router.routable(*c.pkt),
                     "ingress copy differs from its packet or has no "
                     "route");
        // A unicast packet is its own copy; multicast copies are new
        // records, holding the flits not yet forwarded, and the original
        // holds the flits they consumed.
        const bool own_copy =
            e.copies.size() == 1 && e.copies[0].pkt == head.pkt;
        ar.check(own_copy == (head.pkt->mcast_group < 0),
                 "ingress copies disagree with the packet's cast");
        if (!own_copy) {
            ar.holds(head.pkt, 0, head.sent);
            for (std::size_t j = e.next_copy; j < e.copies.size(); ++j) {
                const IngressCopy &c = e.copies[j];
                ar.holds(c.pkt, j == e.next_copy ? e.copy_sent : 0,
                         c.pkt->size_flits);
            }
        }
        ar.check(e.copies.size() == 1 ? e.copy_sent == head.sent
                                      : head.sent == 0,
                 "ingress copy progress differs from its buffer");
        ar.check(e.copy_sent <= head.arrived
                     && (active ? e.copy_sent < head.pkt->size_flits
                                : e.copy_sent == 0),
                 "ingress copy progress out of range");
    }
    ar.check(egress == egress_packets_ && ingress == ingress_packets_,
             "adapter packet count mismatch");
    idle_from_ = kNoCycle;
}

bool
ChannelAdapter::busy() const
{
    if (egress_nonempty_ != 0 || ingress_nonempty_ != 0
        || !pending_credits_.empty())
        return true;
    for (const Channel *ch : { router_in_, router_out_, torus_in_,
                               torus_out_ }) {
        if (ch != nullptr && ch->busy())
            return true;
    }
    return false;
}

} // namespace anton2
