/**
 * @file
 * Tests for the on-chip route table (RC as a lookup) and the channel
 * adapters' construction-time dateline flags, each against the reference
 * it replaced: ChipLayout::route for every on-chip route, and
 * TorusGeom::crossesDateline for every torus link.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/machine.hpp"
#include "noc/route_table.hpp"

namespace anton2 {
namespace {

std::vector<AttachPoint>
allAttachPoints(const ChipLayout &layout)
{
    std::vector<AttachPoint> out;
    for (EndpointId e = 0; e < layout.numEndpoints(); ++e)
        out.push_back(AttachPoint::forEndpoint(e));
    for (ChannelAdapterId ca = 0; ca < layout.numChannelAdapters(); ++ca) {
        int dim, slice;
        Dir dir;
        layout.channelAdapterParams(ca, dim, dir, slice);
        out.push_back(AttachPoint::forChannel(dim, dir, slice));
    }
    return out;
}

/** The chip channel a router port leads onto (Unused ports fail). */
ChipChannel
channelOut(const ChipLayout &layout, RouterId r, const RouterPort &port)
{
    switch (port.kind) {
      case RouterPort::Kind::Mesh:
        return { ChipChannel::Kind::Mesh, r,
                 layout.mesh().move(r, port.mesh_dir), -1 };
      case RouterPort::Kind::Skip:
        return { ChipChannel::Kind::Skip, r, port.skip_peer, -1 };
      case RouterPort::Kind::Channel:
        return { ChipChannel::Kind::RouterToAdapter, r, r, port.adapter };
      case RouterPort::Kind::Endpoint:
        return { ChipChannel::Kind::RouterToEndpoint, r, r, port.adapter };
      case RouterPort::Kind::Unused:
        break;
    }
    ADD_FAILURE() << "route uses an unwired port of router " << r;
    return { ChipChannel::Kind::Mesh, r, r, -1 };
}

TEST(RouteTable, WalksReproduceChipLayoutRoutes)
{
    const ChipLayout layout;
    const MeshDirOrder order = anton2DirOrder();
    const RouteTable routes = RouteTable::build(layout, order);
    for (const AttachPoint &entry : allAttachPoints(layout)) {
        for (const AttachPoint &exit : allAttachPoints(layout)) {
            // The chip marks a packet x_through when it continues along
            // X on the same slice (Chip::ingressAt).
            Packet pkt;
            pkt.chip_exit = exit;
            pkt.x_through = entry.kind == AttachPoint::Kind::Channel
                            && exit.kind == AttachPoint::Kind::Channel
                            && entry.dim == 0 && exit.dim == 0
                            && entry.slice == exit.slice
                            && entry.dir == opposite(exit.dir);
            const std::vector<ChipChannel> want =
                layout.route(entry, exit, order);

            // The entry channel carries no RC decision; walk the rest.
            std::vector<ChipChannel> got{ want.front() };
            std::vector<bool> t_group;
            RouterId here = layout.attachRouter(entry);
            for (int hop = 0; hop <= layout.numRouters(); ++hop) {
                const RouteStep &step = routes.step(here, routes.slot(pkt));
                ASSERT_GE(step.out_port, 0);
                const ChipChannel c = channelOut(
                    layout, here,
                    layout.routerPorts(here)[static_cast<std::size_t>(
                        step.out_port)]);
                got.push_back(c);
                t_group.push_back(step.group == VcGroup::Torus);
                if (c.kind == ChipChannel::Kind::RouterToAdapter
                    || c.kind == ChipChannel::Kind::RouterToEndpoint)
                    break;
                here = c.to_router;
            }
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got[i].kind, want[i].kind);
                EXPECT_EQ(got[i].from_router, want[i].from_router);
                EXPECT_EQ(got[i].to_router, want[i].to_router);
                EXPECT_EQ(got[i].adapter, want[i].adapter);
                if (i > 0) { // same M/T group as the reference channel
                    EXPECT_EQ(t_group[i - 1], want[i].isTGroup());
                }
            }
        }
    }
}

TEST(RouteTable, ThroughSlotsAreSetOnlyOnTheSkipPair)
{
    const ChipLayout layout;
    const RouteTable routes = RouteTable::build(layout, anton2DirOrder());
    for (ChannelAdapterId ca = 0; ca < layout.numChannelAdapters(); ++ca) {
        const int slot =
            layout.numEndpoints() + layout.numChannelAdapters() + ca;
        int set = 0;
        for (RouterId r = 0; r < layout.numRouters(); ++r)
            set += routes.step(r, slot).out_port >= 0;
        int dim, slice;
        Dir dir;
        layout.channelAdapterParams(ca, dim, dir, slice);
        EXPECT_EQ(set, dim == 0 ? 2 : 0) << "adapter " << ca;
    }
}

TEST(RouteTable, CheckRejectsBrokenTables)
{
    const ChipLayout layout;
    const RouteTable good = RouteTable::build(layout, anton2DirOrder());
    EXPECT_NO_THROW(good.check(layout));
    const int slot = 0; // endpoint 0
    const RouterId far = static_cast<RouterId>(layout.numRouters() - 1);
    ASSERT_NE(layout.endpointRouter(0), far);

    auto broken = [&](auto edit) {
        RouteTable t = good;
        edit(t);
        return t;
    };
    // An entry a packet can request left empty.
    EXPECT_THROW(broken([&](RouteTable &t) {
                     t.set(far, slot, RouteStep{});
                 }).check(layout),
                 std::invalid_argument);
    // Two routers pointing at each other: the walk never leaves.
    const RouteStep hop = good.step(far, slot);
    const RouterId next = layout.mesh().move(
        far, layout.routerPorts(far)[static_cast<std::size_t>(
                                         hop.out_port)]
                 .mesh_dir);
    const MeshDir back = meshOpposite(
        layout.routerPorts(far)[static_cast<std::size_t>(hop.out_port)]
            .mesh_dir);
    EXPECT_THROW(broken([&](RouteTable &t) {
                     t.set(next, slot,
                           { static_cast<std::int8_t>(
                                 layout.meshPort(next, back)),
                             VcGroup::Mesh });
                 }).check(layout),
                 std::invalid_argument);
    // A mesh hop tagged T-group.
    EXPECT_THROW(broken([&](RouteTable &t) {
                     t.set(far, slot, { hop.out_port, VcGroup::Torus });
                 }).check(layout),
                 std::invalid_argument);
    // Leaving at another endpoint's port.
    const RouterId r1 = layout.endpointRouter(1);
    EXPECT_THROW(broken([&](RouteTable &t) {
                     t.set(r1, slot,
                           { static_cast<std::int8_t>(
                                 layout.endpointPort(r1, 1)),
                             VcGroup::Mesh });
                 }).check(layout),
                 std::invalid_argument);
}

TEST(RouteTable, RouterRejectsPortsItDoesNotHave)
{
    RouteTable routes(1, 1, 0);
    routes.set(0, 0, { 2, VcGroup::Mesh });
    RouterConfig cfg;
    cfg.num_ports = 2;
    EXPECT_THROW(Router(cfg, routes, 0), std::invalid_argument);
    EXPECT_THROW(Router(cfg, routes, 1), std::invalid_argument);
    routes.set(0, 0, { 1, VcGroup::Mesh });
    EXPECT_NO_THROW(Router(cfg, routes, 0));
}

TEST(ChannelAdapterDateline, FlagsMatchTorusGeom)
{
    for (const std::vector<int> &radix :
         { std::vector<int>{ 4, 4, 4 }, { 3, 5, 8 } }) {
        MachineConfig cfg;
        cfg.radix = radix;
        cfg.chip.endpoints_per_node = 4;
        Machine m(cfg);
        const TorusGeom &g = m.geom();
        int crossing = 0;
        for (NodeId n = 0; n < g.numNodes(); ++n) {
            for (int ca = 0; ca < m.layout().numChannelAdapters(); ++ca) {
                int dim, slice;
                Dir dir;
                m.layout().channelAdapterParams(ca, dim, dir, slice);
                const int from = g.coords(n)[static_cast<std::size_t>(dim)];
                const int to = g.neighborCoord(from, dim, dir);
                const bool want = g.crossesDateline(from, to, dim);
                EXPECT_EQ(m.chip(n).channelAdapter(ca).crossesDateline(),
                          want)
                    << "node " << n << " adapter " << ca;
                crossing += want;
            }
        }
        // Each ring has one dateline, crossed by both directions on
        // both slices.
        int rings = 0;
        for (int d = 0; d < g.ndims(); ++d)
            rings += static_cast<int>(g.numNodes()) / g.radix(d);
        EXPECT_EQ(crossing, rings * 2 * kNumSlices);
    }
}

} // namespace
} // namespace anton2
