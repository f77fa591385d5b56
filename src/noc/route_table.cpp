#include "noc/route_table.hpp"

#include <stdexcept>
#include <string>

#include "routing/mesh_route.hpp"

namespace anton2 {

namespace {

[[noreturn]] void
fail(int router, int slot, const char *what)
{
    throw std::invalid_argument("RouteTable: router " + std::to_string(router)
                                + ", exit slot " + std::to_string(slot)
                                + ": " + what);
}

} // namespace

RouteTable::RouteTable(int num_routers, int num_endpoints, int num_channels)
    : num_routers_(num_routers),
      num_endpoints_(num_endpoints),
      num_channels_(num_channels),
      steps_(static_cast<std::size_t>(num_routers
                                      * (num_endpoints + 2 * num_channels)))
{
}

RouteTable
RouteTable::build(const ChipLayout &layout, const MeshDirOrder &order)
{
    const MeshGeom &mesh = layout.mesh();
    const int routers = layout.numRouters();
    const int num_eps = layout.numEndpoints();
    const int num_cas = layout.numChannelAdapters();
    RouteTable t(routers, num_eps, num_cas);

    // Local routes: every router takes the direction-order mesh hop
    // toward the exit router, which leaves through the exit port.
    auto local = [&](int slot, RouterId r_out, int exit_port,
                     VcGroup exit_group) {
        for (RouterId r = 0; r < routers; ++r) {
            MeshDir d = MeshDir::UPos;
            if (r == r_out) {
                t.set(r, slot, { static_cast<std::int8_t>(exit_port),
                                 exit_group });
            } else if (meshNextDir(mesh, r, r_out, order, d)) {
                t.set(r, slot, { static_cast<std::int8_t>(
                                     layout.meshPort(r, d)),
                                 VcGroup::Mesh });
            }
        }
    };
    for (EndpointId e = 0; e < num_eps; ++e) {
        const RouterId r_out = layout.endpointRouter(e);
        local(e, r_out, layout.endpointPort(r_out, e), VcGroup::Mesh);
    }
    for (ChannelAdapterId ca = 0; ca < num_cas; ++ca) {
        const RouterId r_out = layout.channelRouter(ca);
        local(num_eps + ca, r_out, layout.channelPort(r_out, ca),
              VcGroup::Torus);
    }
    // X through-routes enter at the skip peer of the exit router and
    // cross the chip on the skip channel (Section 2.2); Y and Z
    // through-routes enter and leave at one router, so the local slot
    // serves them.
    for (ChannelAdapterId ca = 0; ca < num_cas; ++ca) {
        int dim = 0, slice = 0;
        Dir dir = Dir::Pos;
        layout.channelAdapterParams(ca, dim, dir, slice);
        if (dim != 0)
            continue;
        const int slot = num_eps + num_cas + ca;
        const RouterId r_out = layout.channelRouter(ca);
        const auto r_in = layout.skipPeer(r_out);
        if (!r_in)
            fail(r_out, slot, "X adapter router has no skip channel");
        t.set(*r_in, slot, { static_cast<std::int8_t>(
                                 layout.skipPort(*r_in)),
                             VcGroup::Torus });
        t.set(r_out, slot, { static_cast<std::int8_t>(
                                 layout.channelPort(r_out, ca)),
                             VcGroup::Torus });
    }

    t.check(layout);
    return t;
}

void
RouteTable::checkShape(const ChipLayout &layout) const
{
    if (layout.numRouters() != num_routers_
        || layout.numEndpoints() != num_endpoints_
        || layout.numChannelAdapters() != num_channels_)
        throw std::invalid_argument("RouteTable: shape differs from the "
                                    "chip layout");
}

void
RouteTable::check(const ChipLayout &layout) const
{
    checkShape(layout);
    std::vector<RouteHop> hops;
    for (int slot = 0; slot < numSlots(); ++slot) {
        const bool through = slot >= num_endpoints_ + num_channels_;
        for (RouterId start = 0; start < num_routers_; ++start) {
            if (step(start, slot).out_port < 0) {
                if (!through)
                    fail(start, slot, "no route");
                continue;
            }
            walk(layout, start, slot, hops);
        }
    }
}

void
RouteTable::walk(const ChipLayout &layout, RouterId start, int slot,
                 std::vector<RouteHop> &hops) const
{
    checkShape(layout);
    if (start >= num_routers_ || slot < 0 || slot >= numSlots())
        fail(static_cast<int>(start), slot, "no such table entry");
    const bool to_endpoint = slot < num_endpoints_;
    const int exit =
        to_endpoint ? slot : (slot - num_endpoints_) % num_channels_;
    hops.clear();
    RouterId here = start;
    // A route that has not left after visiting every router loops.
    for (int hop = 0; hop <= num_routers_; ++hop) {
        const RouteStep &s = step(here, slot);
        if (s.out_port < 0 || s.out_port >= kRouterPorts)
            fail(here, slot, "route dead-ends");
        const RouterPort &port =
            layout.routerPorts(here)[static_cast<std::size_t>(s.out_port)];
        const bool t_group = port.kind == RouterPort::Kind::Skip
                             || port.kind == RouterPort::Kind::Channel;
        if (port.kind == RouterPort::Kind::Unused)
            fail(here, slot, "route uses an unwired port");
        if (t_group != (s.group == VcGroup::Torus))
            fail(here, slot, "VC group disagrees with the port");
        hops.push_back({ here, s.out_port });
        switch (port.kind) {
          case RouterPort::Kind::Mesh:
            here = layout.mesh().move(here, port.mesh_dir);
            break;
          case RouterPort::Kind::Skip:
            here = port.skip_peer;
            break;
          case RouterPort::Kind::Channel:
          case RouterPort::Kind::Endpoint:
            if (to_endpoint != (port.kind == RouterPort::Kind::Endpoint)
                || port.adapter != exit)
                fail(here, slot, "route leaves at the wrong exit");
            return;
          case RouterPort::Kind::Unused:
            break;
        }
    }
    fail(start, slot, "route does not reach its exit");
}

} // namespace anton2
