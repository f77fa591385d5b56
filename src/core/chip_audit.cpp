/**
 * @file
 * One chip's resource inventory and its readers. Chip::forEachResource
 * is the single walk over the chip's per-VC buffers and credit loops;
 * the runtime auditor's per-chip checks, the forensic snapshot's
 * buffer, packet and credit rows, and the census behind flit
 * conservation, the packet-age watermark and the time series' chip
 * levels are visitors of it. Resource names follow the static deadlock
 * checker's scheme (analysis/deadlock) so runtime snapshots diff cleanly
 * against static dependency graphs.
 */
#include "core/chip.hpp"

#include <algorithm>

namespace anton2 {

std::string
Chip::egressLinkName(int ca, int full_vc) const
{
    int dim, slice;
    Dir dir;
    layout_.channelAdapterParams(ca, dim, dir, slice);
    const int per = cfg_.vcsPerClass();
    return linkResName(node_, kDimNames[dim], dirName(dir), slice,
                       full_vc % per, full_vc >= per);
}

std::string
Chip::ingressLinkName(int ca, int full_vc) const
{
    int dim, slice;
    Dir dir;
    layout_.channelAdapterParams(ca, dim, dir, slice);
    // The adapter labeled (dim, dir) receives the link driven by the
    // neighbor in direction dir; packets on it travel opposite(dir), and
    // the static checker names the link after its sender.
    const NodeId sender = geom_.neighbor(node_, dim, dir);
    const int per = cfg_.vcsPerClass();
    return linkResName(sender, kDimNames[dim], dirName(opposite(dir)),
                       slice, full_vc % per, full_vc >= per);
}

namespace {

/** Name of on-chip channel (@p kind, @p from -> @p to, @p adapter) at
 * full VC index @p v (@p per VCs per traffic class). */
std::string
channelName(NodeId node, ChipChannel::Kind kind, RouterId from, RouterId to,
            int adapter, int v, int per)
{
    return chipResName(node, static_cast<int>(kind), from, to, adapter,
                       v % per, v >= per);
}

/** Name of the buffer behind port @p p of router @p r at full VC index
 * @p v: the port's input buffer if @p input, else the downstream buffer
 * its output's credits meter. */
std::string
portName(NodeId node, const ChipLayout &layout, RouterId r, int p,
         bool input, int v, int per)
{
    using Kind = ChipChannel::Kind;
    const auto &port = layout.routerPorts(r)[static_cast<std::size_t>(p)];
    Kind kind = Kind::Mesh;
    RouterId peer = r;
    int adapter = -1;
    switch (port.kind) {
      case RouterPort::Kind::Mesh:
        peer = layout.mesh().move(r, port.mesh_dir);
        break;
      case RouterPort::Kind::Skip:
        kind = Kind::Skip;
        peer = port.skip_peer;
        break;
      case RouterPort::Kind::Channel:
        kind = input ? Kind::AdapterToRouter : Kind::RouterToAdapter;
        adapter = port.adapter;
        break;
      case RouterPort::Kind::Endpoint:
        kind = input ? Kind::EndpointToRouter : Kind::RouterToEndpoint;
        adapter = port.adapter;
        break;
      case RouterPort::Kind::Unused:
        return "?";
    }
    return input ? channelName(node, kind, peer, r, adapter, v, per)
                 : channelName(node, kind, r, peer, adapter, v, per);
}

std::string
endpointAddrName(const EndpointAddr &a)
{
    return "n" + std::to_string(a.node) + ".e" + std::to_string(a.ep);
}

} // namespace

template <class OnBuffer, class OnLoop>
void
Chip::forEachResource(OnBuffer &&on_buffer, OnLoop &&on_loop) const
{
    using Kind = ChipChannel::Kind;
    const int per = cfg_.vcsPerClass();
    const int vcs = cfg_.numVcs();

    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        const Router &rt = router(r);
        for (int p = 0; p < kRouterPorts; ++p) {
            if (rt.inConnected(p)) {
                for (int v = 0; v < vcs; ++v) {
                    on_buffer(rt.inputBuffer(p, v), v, [&] {
                        return portName(node_, layout_, r, p, true, v, per);
                    });
                }
            }
            if (!rt.outConnected(p))
                continue;
            // The input port the output's credits meter, if on a router
            // or adapter (an endpoint drains and credits at once).
            const auto &port =
                layout_.routerPorts(r)[static_cast<std::size_t>(p)];
            const Router *down = nullptr;
            int down_port = 0;
            if (port.kind == RouterPort::Kind::Mesh) {
                const RouterId peer = layout_.mesh().move(r, port.mesh_dir);
                down = &router(peer);
                down_port =
                    layout_.meshPort(peer, meshOpposite(port.mesh_dir));
            } else if (port.kind == RouterPort::Kind::Skip) {
                down = &router(port.skip_peer);
                down_port = layout_.skipPort(port.skip_peer);
            }
            for (int v = 0; v < vcs; ++v) {
                int occ = 0;
                if (down != nullptr)
                    occ = down->inputBuffer(down_port, v).occupancy();
                else if (port.kind == RouterPort::Kind::Channel)
                    occ = channelAdapter(port.adapter)
                              .egressBuffer(v)
                              .occupancy();
                on_loop(CreditLoop{ LoopKind::RouterOut, rt.outCredits(p),
                                    v, rt.outReservedFlits(p, v),
                                    *rt.outChannel(p), occ },
                        [&] {
                            return portName(node_, layout_, r, p, false, v,
                                            per);
                        });
            }
        }
    }

    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        const ChannelAdapter &ad = channelAdapter(ca);
        const RouterId r = layout_.channelRouter(ca);
        const int rp = layout_.channelPort(r, ca);
        for (int v = 0; v < vcs; ++v) {
            on_buffer(ad.egressBuffer(v), v, [&] {
                return channelName(node_, Kind::RouterToAdapter, r, r, ca, v,
                                   per);
            });
            on_buffer(ad.ingressBuffer(v), v,
                      [&] { return ingressLinkName(ca, v); });
            if (ad.torusOut() != nullptr) {
                on_loop(CreditLoop{ LoopKind::TorusLink, ad.torusCredits(),
                                    v, ad.egressReservedFlits(v),
                                    *ad.torusOut(), 0 },
                        [&] { return egressLinkName(ca, v); });
            }
            if (ad.routerOut() != nullptr) {
                on_loop(CreditLoop{ LoopKind::AdapterToRouter,
                                    ad.routerCredits(), v,
                                    ad.ingressReservedFlits(v),
                                    *ad.routerOut(),
                                    router(r).inputBuffer(rp, v).occupancy() },
                        [&] {
                            return channelName(node_, Kind::AdapterToRouter,
                                               r, r, ca, v, per);
                        });
            }
        }
    }

    for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
        const EndpointAdapter &ep = endpoint(e);
        if (ep.toRouter() == nullptr)
            continue;
        const RouterId r = layout_.endpointRouter(e);
        const int rp = layout_.endpointPort(r, e);
        for (int v = 0; v < vcs; ++v) {
            on_loop(CreditLoop{ LoopKind::EndpointToRouter,
                                ep.routerCredits(), v,
                                ep.injectReservedFlits(v), *ep.toRouter(),
                                router(r).inputBuffer(rp, v).occupancy() },
                    [&] {
                        return channelName(node_, Kind::EndpointToRouter, r,
                                           r, e, v, per);
                    });
        }
    }
}

Chip::FlitCensus
Chip::flitCensus() const
{
    FlitCensus census;
    forEachResource(
        [&census](const VcBuffer &buf, int, auto &&) {
            census.buffered += static_cast<std::uint64_t>(buf.occupancy());
            for (std::size_t i = 0; i < buf.packetCount(); ++i) {
                const Packet &pkt = *buf.entry(i).pkt;
                census.oldest_birth = std::min(census.oldest_birth,
                                               pkt.birth);
                if (pkt.mcast_group >= 0)
                    census.multicast = true;
            }
        },
        [&census](const CreditLoop &loop, auto &&) {
            if (loop.kind == LoopKind::RouterOut
                || loop.kind == LoopKind::TorusLink) {
                census.free_credits += static_cast<std::uint64_t>(
                    loop.credits.available(loop.vc));
            }
        });
    for (const auto &ep : endpoints_)
        census.oldest_birth = std::min(census.oldest_birth, ep->oldestBirth());
    for (const Channel &ch : channels_) {
        ch.data.forEachInFlight([&census](const Phit &phit) {
            ++census.on_wires;
            if (phit.pkt->mcast_group >= 0)
                census.multicast = true;
        });
    }
    return census;
}

void
Chip::auditInvariants(
    const std::function<void(const std::string &, const std::string &)>
        &report) const
{
    const int per = cfg_.vcsPerClass();

    // Resource names are built only for a report: a clean pass builds no
    // strings.
    auto checkBuffer = [&](const VcBuffer &buf, int full_vc, auto &&name) {
        const int cls = full_vc / per;
        const int promo = full_vc % per;
        int resident = 0;
        for (std::size_t i = 0; i < buf.packetCount(); ++i) {
            const auto &e = buf.entry(i);
            resident += static_cast<int>(e.arrived)
                        - static_cast<int>(e.sent);
            const auto &pkt = *e.pkt;
            if (cls != static_cast<int>(pkt.tc)) {
                report("vc_legality",
                       name() + ": packet " + std::to_string(pkt.id)
                           + " of class " + std::to_string(
                                 static_cast<int>(pkt.tc))
                           + " resident in class-" + std::to_string(cls)
                           + " VC");
            } else if (!vcLegalForState(cfg_.vc_policy,
                                        pkt.vc.dimsCompleted(),
                                        pkt.vc.crossedInCurrentDim(), promo,
                                        3)) {
                report("vc_legality",
                       name() + ": packet " + std::to_string(pkt.id)
                           + " (dims=" + std::to_string(
                                 pkt.vc.dimsCompleted())
                           + ", crossed="
                           + (pkt.vc.crossedInCurrentDim() ? "1" : "0")
                           + ") illegally resident in promotion VC v"
                           + std::to_string(promo));
            }
        }
        if (buf.occupancy() != resident || buf.occupancy() < 0
            || buf.occupancy() > buf.capacity()) {
            report("buffer_sanity",
                   name() + ": occupancy " + std::to_string(buf.occupancy())
                       + " != resident flits " + std::to_string(resident)
                       + " (capacity " + std::to_string(buf.capacity())
                       + ")");
        }
    };

    auto checkCredits = [&](const CreditLoop &loop, auto &&name) {
        // A torus link's buffer is on the peer chip: the machine checks
        // that loop with both adapters in hand.
        if (loop.kind == LoopKind::TorusLink)
            return;
        const int avail = loop.credits.available(loop.vc);
        const int lhs = avail + loop.reserved
                        + inFlightPhits(loop.channel.data, loop.vc)
                        + loop.downstream_occ
                        + inFlightCredits(loop.channel.credit, loop.vc);
        if (lhs != loop.credits.initialPerVc()) {
            report("credit_conservation",
                   name() + ": credits " + std::to_string(avail)
                       + " + reserved " + std::to_string(loop.reserved)
                       + " + in-flight + occupancy = " + std::to_string(lhs)
                       + ", expected depth "
                       + std::to_string(loop.credits.initialPerVc()));
        }
    };

    forEachResource(checkBuffer, checkCredits);
}

void
Chip::collectSnapshot(Cycle now, MachineSnapshot &snap) const
{
    const int per = cfg_.vcsPerClass();

    forEachResource(
        [&](const VcBuffer &buf, int, auto &&name) {
            if (buf.empty())
                return;
            SnapshotBuffer b;
            b.resource = name();
            b.occupancy = buf.occupancy();
            b.capacity = buf.capacity();
            b.packets = static_cast<int>(buf.packetCount());
            for (std::size_t i = 0; i < buf.packetCount(); ++i) {
                const auto &e = buf.entry(i);
                SnapshotPacket p;
                p.id = e.pkt->id;
                p.age = now - e.pkt->birth;
                p.position = b.resource;
                p.src = endpointAddrName(e.pkt->src);
                p.dst = endpointAddrName(e.pkt->dst);
                p.size_flits = e.pkt->size_flits;
                p.flits_here =
                    static_cast<int>(e.arrived) - static_cast<int>(e.sent);
                p.hops = e.pkt->hops;
                p.dims_completed = e.pkt->vc.dimsCompleted();
                p.crossed_dateline = e.pkt->vc.crossedInCurrentDim();
                p.traffic_class = static_cast<int>(e.pkt->tc);
                snap.packets.push_back(std::move(p));
            }
            snap.buffers.push_back(std::move(b));
        },
        [&](const CreditLoop &loop, auto &&name) {
            const int avail = loop.credits.available(loop.vc);
            if (avail >= loop.credits.initialPerVc())
                return;
            SnapshotCredit c;
            c.resource = name();
            c.available = avail;
            c.depth = loop.credits.initialPerVc();
            snap.credits.push_back(std::move(c));
        });

    // Blocked heads are the waits-for edges: each holds its buffer and
    // wants the credits of the next.
    auto edge = [&](std::string holds, std::string wants, PacketPtr pkt) {
        snap.waits_for.push_back(
            { std::move(holds), std::move(wants), pkt->id, now - pkt->birth });
    };
    std::vector<Router::BlockedHead> router_heads;
    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        router_heads.clear();
        router(r).collectBlockedHeads(router_heads);
        for (const auto &b : router_heads) {
            edge(portName(node_, layout_, r, b.in_port, true, b.in_vc, per),
                 portName(node_, layout_, r, b.out_port, false, b.out_vc,
                          per),
                 b.pkt);
        }
    }
    std::vector<ChannelAdapter::BlockedHead> adapter_heads;
    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        const RouterId r = layout_.channelRouter(ca);
        adapter_heads.clear();
        channelAdapter(ca).collectBlockedHeads(adapter_heads);
        for (const auto &b : adapter_heads) {
            if (b.egress) {
                edge(channelName(node_, ChipChannel::Kind::RouterToAdapter,
                                 r, r, ca, b.vc, per),
                     egressLinkName(ca, b.want_vc), b.pkt);
            } else {
                edge(ingressLinkName(ca, b.vc),
                     channelName(node_, ChipChannel::Kind::AdapterToRouter,
                                 r, r, ca, b.want_vc, per),
                     b.pkt);
            }
        }
    }
}

} // namespace anton2
