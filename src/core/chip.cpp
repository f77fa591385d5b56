#include "core/chip.hpp"

#include <algorithm>
#include <cassert>

#include "debug/checkpoint.hpp"
#include "sim/flow.hpp"

namespace anton2 {
namespace {

/** Channels the chip builds for one router port: a mesh or skip port
 * drives one (its peer's input end is wired from this side), an adapter
 * or endpoint port one each way. */
std::size_t
portChannels(RouterPort::Kind kind)
{
    switch (kind) {
      case RouterPort::Kind::Mesh:
      case RouterPort::Kind::Skip: return 1;
      case RouterPort::Kind::Channel:
      case RouterPort::Kind::Endpoint: return 2;
      case RouterPort::Kind::Unused: return 0;
    }
    return 0;
}

} // namespace

Chip::Chip(NodeId node, const ChipConfig &cfg, const ChipLayout &layout,
           const TorusGeom &geom, const RouteTable &routes,
           LaneBuffer<Packet *> &releases)
    : node_(node), cfg_(cfg), layout_(layout), geom_(geom)
{
    RouterConfig rcfg;
    rcfg.num_ports = kRouterPorts;
    rcfg.num_vcs = cfg_.numVcs();
    rcfg.buf_flits_per_vc = kBufFlitsPerVc;
    rcfg.out_arb = cfg_.arb;

    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        routers_.push_back(std::make_unique<Router>(rcfg, routes, r));
    }

    ChannelAdapterConfig ccfg;
    ccfg.num_vcs = cfg_.numVcs();
    ccfg.buf_flits_per_vc = kBufFlitsPerVc;
    ccfg.arb = cfg_.arb;

    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        int dim, slice;
        Dir dir;
        layout_.channelAdapterParams(ca, dim, dir, slice);
        const int from = geom_.coord(node_, dim);
        const int to = geom_.neighborCoord(from, dim, dir);
        channel_adapters_.push_back(std::make_unique<ChannelAdapter>(
            ccfg, geom_.crossesDateline(from, to, dim),
            [this, ca](PacketPtr pkt, std::vector<IngressCopy> &copies) {
                ingressAt(ca, pkt, copies);
            },
            LaneRelease{ &slab_, &releases }));
    }

    EndpointConfig ecfg;
    ecfg.num_vcs = cfg_.numVcs();
    for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
        endpoints_.push_back(
            std::make_unique<EndpointAdapter>(ecfg, EndpointAddr{ node_, e }));
    }

    // ------------------------------------------------------------------
    // Wiring. Every channel is a unidirectional data+credit bundle owned
    // by the chip; the Machine wires the torus-side channels. Components
    // keep pointers to the channels, so the array is reserved to its
    // exact count before the first one is built and never grows.
    // ------------------------------------------------------------------
    std::size_t num_channels = 0;
    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        for (const RouterPort &port : layout_.routerPorts(r))
            num_channels += portChannels(port.kind);
    }
    channels_.reserve(num_channels);
    auto newChannel = [&](Cycle latency) -> Channel & {
        assert(channels_.size() < channels_.capacity());
        return channels_.emplace_back(latency, 1);
    };

    const MeshGeom &mesh = layout_.mesh();
    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        const auto &ports = layout_.routerPorts(r);
        for (int p = 0; p < static_cast<int>(ports.size()); ++p) {
            const auto &port = ports[static_cast<std::size_t>(p)];
            switch (port.kind) {
              case RouterPort::Kind::Mesh: {
                  // Create the channel from r to its neighbor; the
                  // neighbor's input side is wired when we visit r, so
                  // only create outgoing channels here.
                  const RouterId peer = mesh.move(r, port.mesh_dir);
                  Channel &ch = newChannel(kMeshLatency);
                  router(r).connectOut(p, ch, kBufFlitsPerVc);
                  router(peer).connectIn(
                      layout_.meshPort(peer, meshOpposite(port.mesh_dir)),
                      ch);
                  break;
              }
              case RouterPort::Kind::Skip: {
                  const RouterId peer = port.skip_peer;
                  Channel &ch = newChannel(kSkipLatency);
                  router(r).connectOut(p, ch, kBufFlitsPerVc);
                  router(peer).connectIn(layout_.skipPort(peer), ch);
                  break;
              }
              case RouterPort::Kind::Channel: {
                  ChannelAdapter &ca = channelAdapter(port.adapter);
                  Channel &to_ca = newChannel(kAttachLatency);
                  router(r).connectOut(p, to_ca, kBufFlitsPerVc);
                  ca.connectRouterIn(to_ca);
                  Channel &from_ca = newChannel(kAttachLatency);
                  ca.connectRouterOut(from_ca, kBufFlitsPerVc);
                  router(r).connectIn(p, from_ca);
                  break;
              }
              case RouterPort::Kind::Endpoint: {
                  EndpointAdapter &ep = endpoint(port.adapter);
                  Channel &to_ep = newChannel(kAttachLatency);
                  router(r).connectOut(p, to_ep, kBufFlitsPerVc * 2);
                  ep.connectRouterIn(to_ep);
                  Channel &from_ep = newChannel(kAttachLatency);
                  ep.connectRouterOut(from_ep, kBufFlitsPerVc);
                  router(r).connectIn(p, from_ep);
                  break;
              }
              case RouterPort::Kind::Unused:
                break;
            }
        }
    }
}

void
Chip::registerWith(Engine &engine)
{
    // One shard per chip; each thunk ticks through a qualified
    // (non-virtual) call and reports whether the component keeps work
    // for the next cycle. The class tags keep registration's contiguous
    // grouping visible to the profiler's sampled attribution pass (one
    // timestamped run per class per shard).
    const std::size_t shard = engine.newShard();
    for (auto &r : routers_)
        engine.addWakeable(shard, *r, HostCompClass::Router);
    for (auto &ca : channel_adapters_)
        engine.addWakeable(shard, *ca, HostCompClass::ChannelAdapter);
    for (auto &ep : endpoints_)
        engine.addWakeable(shard, *ep, HostCompClass::Endpoint);
}

void
Chip::settleIdle(Cycle now)
{
    for (auto &r : routers_)
        r->settleIdle(now);
    for (auto &ca : channel_adapters_)
        ca->settleIdle(now);
}

void
Chip::bindEvents(PacketEventStream &events)
{
    const auto node = static_cast<std::int32_t>(node_);
    FlowProbe *flows = events.flows();
    const MeshGeom &mesh = layout_.mesh();
    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        Router &router = *routers_[static_cast<std::size_t>(r)];
        router.bindEvents(events, node, static_cast<std::int16_t>(r));
        if (events.trace() != nullptr)
            router.enableStallSampling();
        if (flows != nullptr)
            flows->registerUnit(node, TraceUnitKind::Router, r,
                                "r" + std::to_string(mesh.u(r)) + "."
                                    + std::to_string(mesh.v(r)));
    }
    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        channel_adapters_[static_cast<std::size_t>(ca)]->bindEvents(
            events, node, static_cast<std::int16_t>(ca));
        if (flows != nullptr)
            flows->registerUnit(node, TraceUnitKind::ChannelAdapter, ca,
                                layout_.channelShortName(ca));
    }
    for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
        endpoints_[static_cast<std::size_t>(e)]->bindEvents(events);
        if (flows != nullptr)
            flows->registerUnit(node, TraceUnitKind::Endpoint, e,
                                "ep" + std::to_string(e));
    }
}

void
Chip::addMcastEntry(std::int32_t group, McastNodeEntry entry)
{
    mcast_[group] = std::move(entry);
}

const McastNodeEntry *
Chip::mcastEntry(std::int32_t group) const
{
    const auto it = mcast_.find(group);
    return it == mcast_.end() ? nullptr : &it->second;
}

void
Chip::setExit(Packet &pkt, int next_dim) const
{
    pkt.x_through = false;
    if (next_dim < 0) {
        pkt.chip_exit = AttachPoint::forEndpoint(pkt.dst.ep);
    } else {
        pkt.chip_exit = AttachPoint::forChannel(
            next_dim, pkt.route.dirs[static_cast<std::size_t>(next_dim)],
            pkt.route.slice);
    }
}

void
Chip::ingressAt(int ca, PacketPtr pkt, std::vector<IngressCopy> &copies)
{
    int dim, slice;
    Dir dir;
    layout_.channelAdapterParams(ca, dim, dir, slice);
    // Arriving packets travel opposite to the adapter's label.
    const Dir travel = opposite(dir);

    if (pkt->mcast_group >= 0) {
        const McastNodeEntry *entry = mcastEntry(pkt->mcast_group);
        assert(entry != nullptr && "multicast packet at node without entry");
        // Copies are new records from this chip's slab; the adapter
        // releases the original when the entry retires.
        for (const auto &hop : entry->forward) {
            Packet *copy = slab_.copy(*pkt);
            const auto arrival_vc = copy->vc.torusVc();
            if (hop.dim != dim)
                copy->vc.onDimComplete();
            copy->x_through = (hop.dim == dim && hop.dim == 0
                               && hop.dir == travel);
            copy->chip_exit =
                AttachPoint::forChannel(hop.dim, hop.dir, slice);
            copies.push_back({ copy, static_cast<std::uint8_t>(
                                         fullVc(copy->tc, arrival_vc)) });
        }
        for (int ep : entry->local) {
            Packet *copy = slab_.copy(*pkt);
            const auto arrival_vc = copy->vc.torusVc();
            copy->vc.onDimComplete();
            copy->x_through = false;
            copy->chip_exit = AttachPoint::forEndpoint(ep);
            copy->dst = EndpointAddr{ node_, ep };
            copies.push_back({ copy, static_cast<std::uint8_t>(
                                         fullVc(copy->tc, arrival_vc)) });
        }
        return;
    }

    // Unicast: one hop along dim taken; continue in the same dimension,
    // turn, or eject. (A packet a restored image placed off its route
    // keeps a count of zero rather than wrapping.)
    std::uint16_t &left = pkt->route.left[dim];
    left = static_cast<std::uint16_t>(left - (left != 0));
    const int next = pkt->route.nextDim();
    const auto arrival_vc = pkt->vc.torusVc();
    if (next == dim) {
        pkt->x_through = (dim == 0);
        pkt->chip_exit = AttachPoint::forChannel(dim, travel, slice);
    } else {
        pkt->vc.onDimComplete();
        setExit(*pkt, next);
    }
    copies.push_back({ pkt, static_cast<std::uint8_t>(
                                fullVc(pkt->tc, arrival_vc)) });
}

void
Chip::fields(CkptArchive &ar)
{
    ar.tag("chip");
    for (const auto &r : routers_)
        r->fields(ar);
    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        // A packet fans out to at most one copy per torus direction and
        // one per endpoint.
        channel_adapters_[static_cast<std::size_t>(ca)]->fields(
            ar, router(layout_.channelRouter(ca)),
            static_cast<std::size_t>(2 * 3 + layout_.numEndpoints()));
    }
    for (EndpointId e = 0; e < layout_.numEndpoints(); ++e)
        endpoints_[static_cast<std::size_t>(e)]->fields(
            ar, router(layout_.endpointRouter(e)));
    ar.tag("chip.channels");
    ar.same(static_cast<std::uint32_t>(channels_.size()),
            "chip channel count mismatch");
    for (Channel &ch : channels_)
        ch.fields(ar, cfg_.numVcs());
    // The multicast table is installed by calls, not construction, so it
    // is part of the state; sorted by group id for deterministic bytes.
    // Machine::fields validates the restored trees.
    ar.tag("chip.mcast");
    std::vector<std::pair<std::int32_t, McastNodeEntry>> table(
        mcast_.begin(), mcast_.end());
    std::sort(table.begin(), table.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    ar.size(table, ~std::size_t{ 0 }, 12, "multicast groups");
    for (auto &[group, entry] : table) {
        ar.io(group);
        ar.size(entry.forward, 2 * 3, 2, "multicast hops");
        for (McastHop &hop : entry.forward) {
            ar.io(hop.dim);
            ar.io(hop.dir);
        }
        ar.size(entry.local,
                static_cast<std::size_t>(layout_.numEndpoints()), 4,
                "multicast endpoints");
        for (int &ep : entry.local)
            ar.io(ep);
    }
    if (ar.loading())
        mcast_ = { table.begin(), table.end() };
    ar.check(mcast_.size() == table.size(), "multicast group listed twice");
}

} // namespace anton2
