#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "debug/checkpoint.hpp"

namespace anton2 {

Router::Router(const RouterConfig &cfg, const RouteTable &routes, int id)
    : cfg_(cfg),
      routes_(routes),
      id_(id),
      vcs_per_class_(std::max(1, cfg.num_vcs / kNumTrafficClasses))
{
    // Per-port state is in kMaxPorts-sized arrays, and each output's
    // credit counter holds CreditCounter::kMaxVcs VCs.
    if (cfg.num_ports < 1 || cfg.num_ports > kMaxPorts || cfg.num_vcs < 1
        || cfg.num_vcs > CreditCounter::kMaxVcs)
        throw std::invalid_argument("router supports 1-6 ports and "
                                    "1-16 VCs");
    if (id < 0 || id >= routes.numRouters())
        throw std::invalid_argument("router id has no route-table row");
    for (int slot = 0; slot < routes.numSlots(); ++slot) {
        if (routes.step(id, slot).out_port >= cfg.num_ports)
            throw std::invalid_argument("route table names a port the "
                                        "router does not have");
    }
    const int num_bufs = cfg.num_ports * cfg.num_vcs;
    bufs_ = std::make_unique<VcBuffer[]>(static_cast<std::size_t>(num_bufs));
    for (int i = 0; i < num_bufs; ++i)
        bufs_[i].init(cfg.buf_flits_per_vc);
    // SA1 arbitrates among each input's VCs; SA2 among input ports.
    // SA1 fairness is secondary (round-robin suffices); SA2 is where the
    // inverse-weighted policy applies (Section 3).
    sa1_winner_.fill(-1);
    for (std::size_t p = 0; p < numPorts(); ++p) {
        in_[p].vcs = &bufs_[p * static_cast<std::size_t>(cfg.num_vcs)];
        sa1_[p] = RoundRobinArbiter(cfg.num_vcs);
        sa2_[p] = makeArbiter(cfg.out_arb, cfg.num_ports);
    }
}

void
Router::sampleOccupancy(ScalarStat &total, std::vector<ScalarStat *> per_vc)
{
    occupancy_ = &total;
    vc_occupancy_ = std::move(per_vc);
}

void
Router::enableStallSampling()
{
    if (stalls_ == nullptr)
        stalls_ = std::make_unique<RouterStallSampler>(cfg_.num_ports);
}

void
Router::connectIn(int port, Channel &ch)
{
    in_[static_cast<std::size_t>(port)].ch = &ch;
    ch.data.attachDoorbell(bell_, static_cast<unsigned>(port));
}

void
Router::connectOut(int port, Channel &ch, int downstream_buf_flits)
{
    auto &op = out_[static_cast<std::size_t>(port)];
    op.ch = &ch;
    op.credits.init(cfg_.num_vcs, downstream_buf_flits);
    ch.credit.attachDoorbell(bell_, kCreditBell
                                        + static_cast<unsigned>(port));
}

void
Router::receive(Cycle now)
{
    // Only the wires that rang this cycle's doorbell delivered: inputs in
    // the low bits (ascending port order, as the energy meter's running
    // sum requires), returning credits in the high bits.
    const std::uint32_t rung = bell_.take(now);
    for (std::uint32_t m = rung >> kCreditBell; m != 0; m &= m - 1) {
        auto &op = out_[static_cast<std::size_t>(std::countr_zero(m))];
        if (auto cr = op.ch->credit.take(now))
            op.credits.release(cr->vc);
    }
    for (std::uint32_t m = rung & ((1u << kCreditBell) - 1); m != 0;
         m &= m - 1) {
        const int p = std::countr_zero(m);
        auto &ip = in_[static_cast<std::size_t>(p)];
        auto phit = ip.ch->data.take(now);
        if (!phit)
            continue;
        const std::uint8_t v = phit->vc;
        if (phit->head) {
            ++buffered_packets_;
            ip.nonempty |= 1u << v;
            live_in_ |= 1u << p;
            // A new packet inside the lookahead window awaits RC.
            if (ip.vcs[v].packetCount() < kLookahead) {
                ip.rc_pending |= 1u << v;
                rc_ports_ |= 1u << p;
            }
        }
        if (energy_ != nullptr)
            energy_->onFlit(p, phit->payload(), now);
        ++ip.flits;
        ++flits_routed_;
        ip.vcs[v].acceptFlit(*phit, now);
    }
}

void
Router::stageRc(Cycle now)
{
    // RC is one table lookup per packet. Entries that arrived this cycle
    // wait until the next one and keep their VC's pending bit set.
    for (std::uint32_t ports = rc_ports_; ports != 0; ports &= ports - 1) {
        const int p = std::countr_zero(ports);
        auto &ip = in_[static_cast<std::size_t>(p)];
        for (std::uint32_t mask = ip.rc_pending; mask != 0;
             mask &= mask - 1) {
            const int v = std::countr_zero(mask);
            auto &vc = ip.vcs[static_cast<std::size_t>(v)];
            const std::size_t depth =
                std::min(vc.packetCount(), kLookahead);
            bool waiting = false;
            bool routed = false;
            for (std::size_t i = 0; i < depth; ++i) {
                auto &entry = vc.entry(i);
                if (entry.routed)
                    continue;
                if (now <= entry.head_at) {
                    waiting = true;
                    continue;
                }
                const Packet &pkt = *entry.pkt;
                const RouteStep &step =
                    routes_.step(id_, routes_.slot(pkt));
                assert(step.out_port >= 0
                       && out_[static_cast<std::size_t>(step.out_port)].ch
                              != nullptr);
                entry.out_port = step.out_port;
                entry.out_vc = static_cast<std::uint8_t>(fullVcIndex(
                    pkt.tc,
                    step.group == VcGroup::Torus ? pkt.vc.torusVc()
                                                 : pkt.vc.meshVc(),
                    vcs_per_class_));
                entry.routed = true;
                entry.routed_at = now;
                routed = true;
                emitPacketEvent(events_, TraceEventType::RouteComputed, now,
                                &pkt, entry.out_port, entry.out_vc);
            }
            if (routed) {
                ip.va_pending |= 1u << v;
                va_ports_ |= 1u << p;
            }
            if (!waiting)
                ip.rc_pending &= ~(1u << v);
        }
        if (ip.rc_pending == 0)
            rc_ports_ &= ~(1u << p);
    }
}

void
Router::stageVa(Cycle now)
{
    // Heads blocked on credits stay pending and are re-examined every
    // cycle (each such cycle counts one credit stall).
    for (std::uint32_t ports = va_ports_; ports != 0; ports &= ports - 1) {
        const int p = std::countr_zero(ports);
        auto &ip = in_[static_cast<std::size_t>(p)];
        for (std::uint32_t mask = ip.va_pending; mask != 0;
             mask &= mask - 1) {
            const int v = std::countr_zero(mask);
            auto &vc = ip.vcs[static_cast<std::size_t>(v)];
            const std::size_t depth =
                std::min(vc.packetCount(), kLookahead);
            bool waiting = false;
            for (std::size_t i = 0; i < depth; ++i) {
                auto &entry = vc.entry(i);
                if (!entry.routed || entry.va_done)
                    continue;
                const auto &op =
                    out_[static_cast<std::size_t>(entry.out_port)];
                if (now <= entry.routed_at) {
                    waiting = true;
                } else if (op.credits.available(entry.out_vc)
                           >= entry.size_flits) {
                    entry.va_done = true;
                    entry.va_at = now;
                    emitPacketEvent(events_, TraceEventType::VcAllocated,
                                    now, entry.pkt, entry.out_port,
                                    entry.out_vc);
                } else {
                    waiting = true;
                    if (i == 0)
                        ++va_credit_stalls_;
                }
            }
            if (!waiting)
                ip.va_pending &= ~(1u << v);
        }
        if (ip.va_pending == 0)
            va_ports_ &= ~(1u << p);
    }
}

void
Router::stageSa1(Cycle now)
{
    for (std::uint32_t m = sa1_mask_; m != 0; m &= m - 1)
        sa1_winner_[static_cast<std::size_t>(std::countr_zero(m))] = -1;
    sa1_mask_ = 0;
    for (std::uint32_t ports = live_in_ & ~draining_; ports != 0;
         ports &= ports - 1) {
        const int p = std::countr_zero(ports);
        const auto &ip = in_[static_cast<std::size_t>(p)];
        std::uint32_t req = 0;
        for (std::uint32_t mask = ip.nonempty; mask != 0;
             mask &= mask - 1) {
            const auto v = static_cast<std::size_t>(
                std::countr_zero(mask));
            const auto &head = ip.vcs[v].head();
            if (head.va_done && !head.granted && now > head.va_at)
                req |= 1u << v;
        }
        if (req != 0) {
            sa1_winner_[static_cast<std::size_t>(p)] =
                sa1_[static_cast<std::size_t>(p)].pick(req, nullptr);
            sa1_mask_ |= 1u << p;
        }
    }
}

void
Router::stageSa2(Cycle now)
{
    // One pass over the SA1 winners builds every output's request mask.
    // Each input requests exactly one output (its head's out_port), so
    // this equals scanning every input once per output, and a grant at
    // one output cannot change another output's requests.
    if (sa1_mask_ == 0)
        return;
    std::uint32_t wanted = 0;          // outputs with a request
    std::uint32_t req[kMaxPorts] = {}; // requesting inputs per output
    ReqInfo *info = reqInfoScratch();  // per input, for requesters
    for (std::uint32_t ports = sa1_mask_ & ~draining_; ports != 0;
         ports &= ports - 1) {
        const int p = std::countr_zero(ports);
        const auto &vcbuf =
            in_[static_cast<std::size_t>(p)]
                .vcs[static_cast<std::size_t>(
                    sa1_winner_[static_cast<std::size_t>(p)])];
        // Re-validate: the SA1 pick is a cycle old and the head may
        // have been popped or granted since.
        if (vcbuf.empty())
            continue;
        const auto &head = vcbuf.head();
        if (!head.va_done || head.granted)
            continue;
        const int o = head.out_port;
        const auto &op = out_[static_cast<std::size_t>(o)];
        if (op.ch == nullptr || ((busy_out_ >> o) & 1u) != 0)
            continue;
        // Re-validate credits at grant time: VA eligibility may be
        // stale if an earlier grant consumed the slots.
        if (op.credits.available(head.out_vc) < head.size_flits)
            continue;
        wanted |= 1u << o;
        req[o] |= 1u << p;
        info[p].pattern = head.pattern;
    }

    for (; wanted != 0; wanted &= wanted - 1) {
        const int o = std::countr_zero(wanted);
        auto &op = out_[static_cast<std::size_t>(o)];
        const int winner =
            arbiterPick(sa2_[static_cast<std::size_t>(o)], req[o], info);
        assert(winner >= 0);
        ++sa2_grants_;
        sa2_losses_ += static_cast<std::uint64_t>(std::popcount(req[o])) - 1;
        auto &winner_vc = sa1_winner_[static_cast<std::size_t>(winner)];
        auto &head = in_[static_cast<std::size_t>(winner)]
                         .vcs[static_cast<std::size_t>(winner_vc)]
                         .head();
        head.granted = true;
        emitPacketEvent(events_, TraceEventType::SwitchGrant, now, head.pkt,
                        o, head.out_vc);
        busy_out_ |= 1u << o;
        op.granted_at = now;
        op.src_port = winner;
        op.src_vc = winner_vc;
        op.out_vc = head.out_vc;
        op.credits.consume(head.out_vc, head.size_flits);
        draining_ |= 1u << winner;
        winner_vc = -1;
        sa1_mask_ &= ~(1u << winner);
    }
}

void
Router::stageSt(Cycle now)
{
    for (std::uint32_t outs = busy_out_; outs != 0; outs &= outs - 1) {
        const int o = std::countr_zero(outs);
        auto &op = out_[static_cast<std::size_t>(o)];
        auto &ip = in_[static_cast<std::size_t>(op.src_port)];
        auto &vcbuf = ip.vcs[static_cast<std::size_t>(op.src_vc)];
        auto &head = vcbuf.head();
        if (head.sent >= head.arrived)
            continue; // cut-through: tail not yet arrived
        st_sent_mask_ |= 1u << o;

        const bool tail = head.sent + 1 == head.size_flits;
        Phit phit;
        phit.pkt = head.pkt;
        phit.vc = op.out_vc;
        phit.index = head.sent;
        phit.head = (head.sent == 0);
        phit.tail = tail;
        op.ch->data.send(now, phit);

        ip.ch->credit.send(now, Credit{ static_cast<std::uint8_t>(
                                    op.src_vc) });
        vcbuf.sendFlit();

        if (tail) {
            // Emit the hop span while the entry's pipeline timestamps
            // are still live (every cycle below is existing state - no
            // clock is read for the probe).
            emitPacketEvent(events_, TraceEventType::Depart, now, head.pkt,
                            o, op.out_vc, head.head_at, op.granted_at);
            vcbuf.popHead();
            if (vcbuf.empty()) {
                ip.nonempty &= ~(1u << op.src_vc);
                if (ip.nonempty == 0)
                    live_in_ &= ~(1u << op.src_port);
            } else if (vcbuf.packetCount() >= kLookahead) {
                // The window slid onto one more entry.
                refreshPending(op.src_port, op.src_vc);
            }
            --buffered_packets_;
            busy_out_ &= ~(1u << o);
            draining_ &= ~(1u << op.src_port);
            op.src_port = -1;
        }
    }
}

/**
 * Attribute this cycle for every connected output port. Called once per
 * tick after the pipeline stages (so the sent mask and grant state are
 * final); exactly one class is counted per port, which is what makes
 * the per-port totals sum to the sampled cycle count.
 */
void
Router::sampleStalls()
{
    ++stalls_->sampled_cycles;
    for (std::size_t o = 0; o < numPorts(); ++o) {
        const auto &op = out_[o];
        if (op.ch == nullptr)
            continue;
        StallClass cls;
        if ((st_sent_mask_ >> o) & 1u) {
            cls = StallClass::Busy;
        } else if ((busy_out_ >> o) & 1u) {
            // Granted but no flit this cycle: the cut-through gap.
            cls = StallClass::LinkBusy;
        } else {
            bool any = false;
            bool ready = false;
            for (const auto &ip : inPorts()) {
                for (std::uint32_t mask = ip.nonempty; mask != 0;
                     mask &= mask - 1) {
                    const auto &head =
                        ip.vcs[static_cast<std::size_t>(
                                   std::countr_zero(mask))]
                            .head();
                    if (!head.routed || head.granted
                        || head.out_port != static_cast<int>(o))
                        continue;
                    any = true;
                    if (op.credits.available(head.out_vc)
                        >= head.size_flits)
                        ready = true;
                }
            }
            cls = !any ? StallClass::NoInput
                       : (ready ? StallClass::ArbLoss
                                : StallClass::CreditStall);
        }
        ++stalls_->ports[o].cycles[static_cast<std::size_t>(cls)];
    }
}

void
Router::bookIdle(Cycle slept)
{
    // An idle tick sends nothing and, with no buffered packet, finds no
    // input for any connected output port.
    st_sent_mask_ = 0;
    if (stalls_ == nullptr)
        return;
    stalls_->sampled_cycles += slept;
    for (std::size_t o = 0; o < numPorts(); ++o) {
        if (out_[o].ch != nullptr)
            stalls_->ports[o].cycles[static_cast<std::size_t>(
                StallClass::NoInput)] += slept;
    }
}

void
Router::settleIdle(Cycle now)
{
    if (idle_from_ >= now) // also kNoCycle: nothing to settle
        return;
    bookIdle(now - idle_from_);
    idle_from_ = now;
}

void
Router::tick(Cycle now)
{
    settleIdle(now);
    idle_from_ = now + 1;
    st_sent_mask_ = 0;
    receive(now);
    if (buffered_packets_ == 0) {
        // Nothing buffered: the pipeline stages have no work, but the
        // stall sampler still owes this cycle (all ports: no input).
        if (stalls_ != nullptr)
            sampleStalls();
        return;
    }
    if (occupancy_ != nullptr) {
        const bool per_vc = !vc_occupancy_.empty();
        int total = 0;
        for (int v = 0; v < cfg_.num_vcs; ++v) {
            int occ = 0;
            for (const auto &ip : inPorts())
                occ += ip.vcs[static_cast<std::size_t>(v)].occupancy();
            if (per_vc)
                vc_occupancy_[static_cast<std::size_t>(v)]->add(occ);
            total += occ;
        }
        occupancy_->add(total);
    }
    stageRc(now);
    stageVa(now);
    // SA2 consumes the SA1 winners registered in the previous cycle, so
    // SA1 and SA2 are distinct pipeline stages as in Figure 12. SA1 runs
    // after ST so that an input port freed by a departing tail flit can
    // nominate its next packet in the same cycle (no turnaround bubble).
    stageSa2(now);
    stageSt(now);
    stageSa1(now);
    if (stalls_ != nullptr)
        sampleStalls();
}

bool
Router::busy() const
{
    if (live_in_ != 0 || busy_out_ != 0)
        return true;
    for (const auto &ip : inPorts()) {
        if (ip.ch != nullptr && ip.ch->busy())
            return true;
    }
    return false;
}

int
Router::outReservedFlits(int port, int vc) const
{
    const auto &op = out_[port];
    if (((busy_out_ >> port) & 1u) == 0
        || static_cast<int>(op.out_vc) != vc)
        return 0;
    const auto &entry = in_[op.src_port].vcs[op.src_vc].head();
    return entry.size_flits - static_cast<int>(entry.sent);
}

void
Router::collectBlockedHeads(std::vector<BlockedHead> &out) const
{
    for (std::size_t p = 0; p < numPorts(); ++p) {
        const auto &ip = in_[p];
        for (int v = 0; v < cfg_.num_vcs; ++v) {
            const auto &buf = ip.vcs[v];
            if (buf.empty())
                continue;
            const auto &e = buf.head();
            // A routed head that is not yet granted and would fail the
            // VA/SA2 credit test is waiting on a downstream resource; an
            // unrouted or granted head is making progress this cycle.
            if (!e.routed || e.granted)
                continue;
            const auto &op = out_[e.out_port];
            if (op.ch == nullptr
                || op.credits.available(e.out_vc) >= e.size_flits)
                continue;
            BlockedHead b;
            b.in_port = static_cast<int>(p);
            b.in_vc = v;
            b.out_port = e.out_port;
            b.out_vc = e.out_vc;
            b.pkt = e.pkt;
            out.push_back(b);
        }
    }
}

void
Router::fields(CkptArchive &ar)
{
    const int ports = cfg_.num_ports;
    const int vcs = cfg_.num_vcs;
    ar.tag("router");
    for (unsigned p = 0; p < numPorts(); ++p) {
        InPort &ip = in_[p];
        ar.same(ip.ch != nullptr, "router input wiring mismatch");
        if (ip.ch == nullptr)
            continue;
        for (int v = 0; v < vcs; ++v) {
            // The image keeps the grant cycle in the granted head's
            // entry; the router keeps it on the head's output.
            VcBuffer &buf = ip.vcs[v];
            const bool granted = !buf.empty() && buf.head().granted;
            Cycle grant = granted ? out_[buf.head().out_port].granted_at : 0;
            buf.fields(ar, ports, vcs, grant);
            if (ar.loading() && !buf.empty() && buf.head().granted)
                out_[buf.head().out_port].granted_at = grant;
        }
        ar.io(ip.nonempty);
        ar.bit(draining_, p);
    }
    for (unsigned o = 0; o < numPorts(); ++o) {
        OutPort &op = out_[o];
        ar.same(op.ch != nullptr, "router output wiring mismatch");
        if (op.ch == nullptr)
            continue;
        op.credits.fields(ar);
        ar.bit(busy_out_, o);
        ar.io(op.src_port, -1, ports - 1, "granted input port");
        ar.io(op.src_vc, -1, vcs - 1, "granted input VC");
        ar.io(op.out_vc, 0, static_cast<std::uint8_t>(vcs - 1),
              "granted output VC");
    }
    for (std::size_t p = 0; p < numPorts(); ++p)
        sa1_[p].fields(ar);
    for (std::size_t o = 0; o < numPorts(); ++o)
        arbiterFields(sa2_[o], ar);
    for (std::size_t p = 0; p < numPorts(); ++p)
        ar.io(sa1_winner_[p], -1, vcs - 1, "SA1 winner");
    ar.io(st_sent_mask_);
    ar.io(flits_routed_);
    ar.io(buffered_packets_);
    if (!ar.loading())
        return;

    // Grants, masks and counts must match the buffers: each granted
    // output drains a granted head of a connected input, once.
    std::uint32_t draining = 0;
    for (unsigned o = 0; o < numPorts(); ++o) {
        const OutPort &op = out_[o];
        if (((busy_out_ >> o) & 1u) == 0)
            continue;
        const bool src_ok = op.src_port >= 0 && op.src_vc >= 0
                            && in_[op.src_port].ch != nullptr
                            && !in_[op.src_port].vcs[op.src_vc].empty()
                            && ((draining >> op.src_port) & 1u) == 0;
        ar.check(src_ok, "granted output without a buffered input");
        const VcBuffer::Entry &head = in_[op.src_port].vcs[op.src_vc].head();
        ar.check(head.granted && head.out_port == static_cast<int>(o)
                     && head.out_vc == op.out_vc,
                 "granted output disagrees with its input's head");
        draining |= 1u << op.src_port;
    }
    int packets = 0;
    for (unsigned p = 0; p < numPorts(); ++p) {
        const InPort &ip = in_[p];
        std::uint32_t nonempty = 0;
        for (int v = 0; v < vcs; ++v) {
            const VcBuffer &buf = ip.vcs[static_cast<std::size_t>(v)];
            packets += static_cast<int>(buf.packetCount());
            nonempty |= buf.empty() ? 0u : 1u << v;
            for (std::size_t i = 0; i < buf.packetCount(); ++i) {
                const VcBuffer::Entry &e = buf.entry(i);
                ar.check(e.routed ? out_[e.out_port].ch != nullptr
                                  : routable(*e.pkt),
                         "buffered packet has no route at this router");
                ar.check(!e.granted || (((busy_out_ >> e.out_port) & 1u)
                                        && out_[e.out_port].src_port
                                               == static_cast<int>(p)
                                        && out_[e.out_port].src_vc == v),
                         "granted head without its output");
            }
        }
        ar.check(nonempty == ip.nonempty, "nonempty mask mismatch");
    }
    ar.check(draining == draining_ && packets == buffered_packets_
                 && (st_sent_mask_ >> ports) == 0,
             "router masks or packet count mismatch");
    idle_from_ = kNoCycle;
    rebuildLiveState();
}

bool
Router::routable(const Packet &pkt) const
{
    const RouteStep &step = routes_.step(id_, routes_.slot(pkt));
    return step.out_port >= 0 && out_[step.out_port].ch != nullptr;
}

void
Router::refreshPending(int p, int v)
{
    auto &ip = in_[static_cast<std::size_t>(p)];
    const auto &vc = ip.vcs[static_cast<std::size_t>(v)];
    const std::uint32_t bit = 1u << v;
    ip.rc_pending &= ~bit;
    ip.va_pending &= ~bit;
    const std::size_t depth = std::min(vc.packetCount(), kLookahead);
    for (std::size_t i = 0; i < depth; ++i) {
        const VcBuffer::Entry &e = vc.entry(i);
        if (!e.routed)
            ip.rc_pending |= bit;
        else if (!e.va_done)
            ip.va_pending |= bit;
    }
    if (ip.rc_pending != 0)
        rc_ports_ |= 1u << p;
    if (ip.va_pending != 0)
        va_ports_ |= 1u << p;
}

void
Router::rebuildLiveState()
{
    live_in_ = 0;
    sa1_mask_ = 0;
    rc_ports_ = 0;
    va_ports_ = 0;
    for (std::size_t p = 0; p < numPorts(); ++p) {
        InPort &ip = in_[p];
        if (ip.nonempty != 0)
            live_in_ |= 1u << p;
        if (sa1_winner_[p] >= 0)
            sa1_mask_ |= 1u << p;
        ip.rc_pending = 0;
        ip.va_pending = 0;
        for (int v = 0; v < cfg_.num_vcs; ++v)
            refreshPending(static_cast<int>(p), v);
    }
}

} // namespace anton2
