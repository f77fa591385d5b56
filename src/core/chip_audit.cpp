/**
 * @file
 * Chip-side implementation of the runtime auditor: invariant checks over
 * one chip's routers, adapters, and endpoints, and forensic-snapshot
 * collection. Resource names follow the static deadlock checker's scheme
 * (analysis/deadlock) so runtime snapshots diff cleanly against static
 * dependency graphs.
 */
#include "core/chip.hpp"

#include <sstream>

namespace anton2 {

namespace {

constexpr int
kindInt(ChipChannel::Kind k)
{
    return static_cast<int>(k);
}

} // namespace

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

/** Name of the buffer fed by input port @p p of router @p r. */
std::string
inputBufferName(NodeId node, const ChipLayout &layout, RouterId r, int p,
                int promo, bool reply)
{
    const auto &port = layout.routerPorts(r)[static_cast<std::size_t>(p)];
    switch (port.kind) {
      case RouterPort::Kind::Mesh:
        return chipResName(node, kindInt(ChipChannel::Kind::Mesh),
                           layout.mesh().move(r, port.mesh_dir), r, -1,
                           promo, reply);
      case RouterPort::Kind::Skip:
        return chipResName(node, kindInt(ChipChannel::Kind::Skip),
                           port.skip_peer, r, -1, promo, reply);
      case RouterPort::Kind::Channel:
        return chipResName(node,
                           kindInt(ChipChannel::Kind::AdapterToRouter), r,
                           r, port.adapter, promo, reply);
      case RouterPort::Kind::Endpoint:
        return chipResName(node,
                           kindInt(ChipChannel::Kind::EndpointToRouter), r,
                           r, port.adapter, promo, reply);
      case RouterPort::Kind::Unused:
        break;
    }
    return "?";
}

/** Name of the downstream buffer of output port @p p of router @p r. */
std::string
outputDownstreamName(NodeId node, const ChipLayout &layout, RouterId r,
                     int p, int promo, bool reply)
{
    const auto &port = layout.routerPorts(r)[static_cast<std::size_t>(p)];
    switch (port.kind) {
      case RouterPort::Kind::Mesh:
        return chipResName(node, kindInt(ChipChannel::Kind::Mesh), r,
                           layout.mesh().move(r, port.mesh_dir), -1, promo,
                           reply);
      case RouterPort::Kind::Skip:
        return chipResName(node, kindInt(ChipChannel::Kind::Skip), r,
                           port.skip_peer, -1, promo, reply);
      case RouterPort::Kind::Channel:
        return chipResName(node,
                           kindInt(ChipChannel::Kind::RouterToAdapter), r,
                           r, port.adapter, promo, reply);
      case RouterPort::Kind::Endpoint:
        return chipResName(node,
                           kindInt(ChipChannel::Kind::RouterToEndpoint), r,
                           r, port.adapter, promo, reply);
      case RouterPort::Kind::Unused:
        break;
    }
    return "?";
}

std::string
endpointAddrName(const EndpointAddr &a)
{
    return "n" + std::to_string(a.node) + ".e" + std::to_string(a.ep);
}

} // namespace

Cycle
Chip::oldestPacketBirth() const
{
    Cycle oldest = kNoCycle;
    auto fold = [&oldest](Cycle b) {
        if (b < oldest)
            oldest = b;
    };
    for (const auto &r : routers_)
        fold(r->oldestBirth());
    for (const auto &ca : channel_adapters_)
        fold(ca->oldestBirth());
    for (const auto &ep : endpoints_)
        fold(ep->oldestBirth());
    return oldest;
}

Chip::FlitCensus
Chip::flitCensus() const
{
    FlitCensus census;
    auto scanBuffer = [&census](const VcBuffer &buf) {
        census.buffered += static_cast<std::uint64_t>(buf.occupancy());
        for (std::size_t i = 0; i < buf.packetCount(); ++i) {
            if (buf.entry(i).pkt->mcast_group >= 0)
                census.multicast = true;
        }
    };
    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        for (int p = 0; p < kRouterPorts; ++p) {
            if (!router(r).inConnected(p))
                continue;
            for (int v = 0; v < cfg_.numVcs(); ++v)
                scanBuffer(router(r).inputBuffer(p, v));
        }
    }
    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        for (int v = 0; v < cfg_.numVcs(); ++v) {
            scanBuffer(channelAdapter(ca).egressBuffer(v));
            scanBuffer(channelAdapter(ca).ingressBuffer(v));
        }
    }
    for (const auto &ch : channels_) {
        ch->data.forEachInFlight([&census](const Phit &phit) {
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
    const int ndims = layout_.ndims();

    // Resource names are built only for a report (@p name is a callable
    // returning it): a clean pass builds no strings.
    auto checkBuffer = [&](const VcBuffer &buf, int full_vc, auto &&name,
                           bool check_vc) {
        int resident = 0;
        for (std::size_t i = 0; i < buf.packetCount(); ++i) {
            const auto &e = buf.entry(i);
            resident += static_cast<int>(e.arrived)
                        - static_cast<int>(e.sent);
            const auto &pkt = *e.pkt;
            if (!check_vc)
                continue;
            const int cls = full_vc / per;
            const int promo = full_vc % per;
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
                                        ndims)) {
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

    auto checkCredits = [&](const CreditCounter &credits, int vc,
                            int reserved, const Wire<Phit> &data,
                            const Wire<Credit> &credit_wire,
                            int downstream_occ, auto &&name) {
        const int lhs = credits.available(vc) + reserved
                        + inFlightPhits(data, vc) + downstream_occ
                        + inFlightCredits(credit_wire, vc);
        if (lhs != credits.initialPerVc()) {
            report("credit_conservation",
                   name() + ": credits " + std::to_string(credits.available(vc))
                       + " + reserved " + std::to_string(reserved)
                       + " + in-flight + occupancy = " + std::to_string(lhs)
                       + ", expected depth "
                       + std::to_string(credits.initialPerVc()));
        }
    };

    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        const Router &rt = router(r);
        const auto &ports = layout_.routerPorts(r);
        for (int p = 0; p < kRouterPorts; ++p) {
            if (rt.inConnected(p)) {
                for (int v = 0; v < cfg_.numVcs(); ++v) {
                    checkBuffer(rt.inputBuffer(p, v), v,
                                [&] {
                                    return inputBufferName(node_, layout_, r,
                                                           p, v % per,
                                                           v >= per);
                                },
                                /*check_vc=*/true);
                }
            }
            if (!rt.outConnected(p))
                continue;
            const auto &port = ports[static_cast<std::size_t>(p)];
            for (int v = 0; v < cfg_.numVcs(); ++v) {
                int occ = 0;
                switch (port.kind) {
                  case RouterPort::Kind::Mesh: {
                      const RouterId peer =
                          layout_.mesh().move(r, port.mesh_dir);
                      occ = router(peer)
                                .inputBuffer(
                                    layout_.meshPort(
                                        peer, meshOpposite(port.mesh_dir)),
                                    v)
                                .occupancy();
                      break;
                  }
                  case RouterPort::Kind::Skip:
                      occ = router(port.skip_peer)
                                .inputBuffer(
                                    layout_.skipPort(port.skip_peer), v)
                                .occupancy();
                      break;
                  case RouterPort::Kind::Channel:
                      occ = channelAdapter(port.adapter)
                                .egressBuffer(v)
                                .occupancy();
                      break;
                  case RouterPort::Kind::Endpoint:
                      occ = 0; // endpoints drain and credit immediately
                      break;
                  case RouterPort::Kind::Unused:
                      break;
                }
                checkCredits(rt.outCredits(p), v,
                             rt.outReservedFlits(p, v),
                             rt.outChannel(p)->data,
                             rt.outChannel(p)->credit, occ, [&] {
                                 return outputDownstreamName(
                                     node_, layout_, r, p, v % per,
                                     v >= per);
                             });
            }
        }
    }

    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        const ChannelAdapter &ad = channelAdapter(ca);
        int dim, slice;
        Dir dir;
        layout_.channelAdapterParams(ca, dim, dir, slice);
        const RouterId r = layout_.channelRouter(ca);
        for (int v = 0; v < cfg_.numVcs(); ++v) {
            checkBuffer(ad.egressBuffer(v), v,
                        [&] {
                            return chipResName(
                                node_,
                                kindInt(ChipChannel::Kind::RouterToAdapter),
                                r, r, ca, v % per, v >= per);
                        },
                        /*check_vc=*/true);
            checkBuffer(ad.ingressBuffer(v), v,
                        [&] { return ingressLinkName(ca, v); },
                        /*check_vc=*/true);
            // Adapter -> router channel conservation (the torus-link side
            // spans two chips and is checked by the machine).
            if (ad.routerOut() != nullptr) {
                checkCredits(
                    ad.routerCredits(), v, ad.ingressReservedFlits(v),
                    ad.routerOut()->data, ad.routerOut()->credit,
                    router(r)
                        .inputBuffer(layout_.channelPort(r, ca), v)
                        .occupancy(),
                    [&] {
                        return chipResName(
                            node_,
                            kindInt(ChipChannel::Kind::AdapterToRouter), r,
                            r, ca, v % per, v >= per);
                    });
            }
        }
    }

    for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
        const EndpointAdapter &ep = endpoint(e);
        if (ep.toRouter() == nullptr)
            continue;
        const RouterId r = layout_.endpointRouter(e);
        for (int v = 0; v < cfg_.numVcs(); ++v) {
            checkCredits(
                ep.routerCredits(), v, ep.injectReservedFlits(v),
                ep.toRouter()->data, ep.toRouter()->credit,
                router(r)
                    .inputBuffer(layout_.endpointPort(r, e), v)
                    .occupancy(),
                [&] {
                    return chipResName(
                        node_, kindInt(ChipChannel::Kind::EndpointToRouter),
                        r, r, e, v % per, v >= per);
                });
        }
    }
}

void
Chip::collectSnapshot(Cycle now, MachineSnapshot &snap) const
{
    const int per = cfg_.vcsPerClass();

    auto recordBuffer = [&](const VcBuffer &buf, const std::string &name) {
        if (buf.empty())
            return;
        SnapshotBuffer b;
        b.resource = name;
        b.occupancy = buf.occupancy();
        b.capacity = buf.capacity();
        b.packets = static_cast<int>(buf.packetCount());
        snap.buffers.push_back(std::move(b));
        for (std::size_t i = 0; i < buf.packetCount(); ++i) {
            const auto &e = buf.entry(i);
            SnapshotPacket p;
            p.id = e.pkt->id;
            p.age = now - e.pkt->birth;
            p.position = name;
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
    };

    auto recordCredits = [&](const CreditCounter &credits, int vc,
                             const std::string &name) {
        if (credits.available(vc) >= credits.initialPerVc())
            return;
        SnapshotCredit c;
        c.resource = name;
        c.available = credits.available(vc);
        c.depth = credits.initialPerVc();
        snap.credits.push_back(std::move(c));
    };

    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        const Router &rt = router(r);
        for (int p = 0; p < kRouterPorts; ++p) {
            if (rt.inConnected(p)) {
                for (int v = 0; v < cfg_.numVcs(); ++v)
                    recordBuffer(rt.inputBuffer(p, v),
                                 inputBufferName(node_, layout_, r, p,
                                                 v % per, v >= per));
            }
            if (rt.outConnected(p)) {
                for (int v = 0; v < cfg_.numVcs(); ++v)
                    recordCredits(rt.outCredits(p), v,
                                  outputDownstreamName(node_, layout_, r,
                                                       p, v % per,
                                                       v >= per));
            }
        }

        std::vector<Router::BlockedHead> blocked;
        rt.collectBlockedHeads(blocked);
        for (const auto &b : blocked) {
            WaitsForEdge e;
            e.holds = inputBufferName(node_, layout_, r, b.in_port,
                                      b.in_vc % per, b.in_vc >= per);
            e.wants = outputDownstreamName(node_, layout_, r, b.out_port,
                                           b.out_vc % per,
                                           b.out_vc >= per);
            e.packet_id = b.pkt->id;
            e.age = now - b.pkt->birth;
            snap.waits_for.push_back(std::move(e));
        }
    }

    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        const ChannelAdapter &ad = channelAdapter(ca);
        const RouterId r = layout_.channelRouter(ca);
        for (int v = 0; v < cfg_.numVcs(); ++v) {
            recordBuffer(ad.egressBuffer(v),
                         chipResName(node_,
                                     kindInt(
                                         ChipChannel::Kind::RouterToAdapter),
                                     r, r, ca, v % per, v >= per));
            recordBuffer(ad.ingressBuffer(v), ingressLinkName(ca, v));
            if (ad.torusOut() != nullptr)
                recordCredits(ad.torusCredits(), v, egressLinkName(ca, v));
            if (ad.routerOut() != nullptr)
                recordCredits(
                    ad.routerCredits(), v,
                    chipResName(node_,
                                kindInt(ChipChannel::Kind::AdapterToRouter),
                                r, r, ca, v % per, v >= per));
        }

        std::vector<ChannelAdapter::BlockedHead> blocked;
        ad.collectBlockedHeads(blocked);
        for (const auto &b : blocked) {
            WaitsForEdge e;
            if (b.egress) {
                e.holds = chipResName(
                    node_, kindInt(ChipChannel::Kind::RouterToAdapter), r,
                    r, ca, b.vc % per, b.vc >= per);
                e.wants = egressLinkName(ca, b.want_vc);
            } else {
                e.holds = ingressLinkName(ca, b.vc);
                e.wants = chipResName(
                    node_, kindInt(ChipChannel::Kind::AdapterToRouter), r,
                    r, ca, b.want_vc % per, b.want_vc >= per);
            }
            e.packet_id = b.pkt->id;
            e.age = now - b.pkt->birth;
            snap.waits_for.push_back(std::move(e));
        }
    }

    for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
        const EndpointAdapter &ep = endpoint(e);
        if (ep.toRouter() == nullptr)
            continue;
        const RouterId r = layout_.endpointRouter(e);
        for (int v = 0; v < cfg_.numVcs(); ++v)
            recordCredits(
                ep.routerCredits(), v,
                chipResName(node_,
                            kindInt(ChipChannel::Kind::EndpointToRouter),
                            r, r, e, v % per, v >= per));
    }
}

} // namespace anton2
