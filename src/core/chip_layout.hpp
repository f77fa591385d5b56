/**
 * @file
 * Static layout of one Anton 2 ASIC's network (Section 2.2, Figure 1).
 *
 * The chip contains a 4x4 mesh of routers serving two roles: connecting the
 * on-chip endpoints, and switching the 12 external torus channels (2 slices
 * x 3 dimensions x 2 directions). This class is pure geometry - placement
 * of adapters, skip channels, port assignment, and on-chip route
 * computation. The cycle simulator and the analytic load model route
 * through the RouteTable built from it; the worst-case load search and
 * the deadlock checker walk route(), against which the table is tested,
 * so that all agree on routes.
 *
 * Placement (reconstructed from the paper's textual constraints):
 *  - X channels are split across the two I/O edges (U=0 and U=3): slice 1
 *    X+ at R(0,0) / X- at R(3,0) with a skip-channel pair between them, and
 *    slice 0 X+ at R(0,3) / X- at R(3,3) likewise. This matches the paper's
 *    example route X1- -> R(3,0) -> skip -> R(0,0) -> X1+.
 *  - Y and Z channels place both directions of a (dim, slice) pair on a
 *    single router so through-routes traverse one router, with same-slice Y
 *    and Z on the same edge: Y0+/- at R(0,2), Z0+/- at R(0,1) on the left
 *    edge, Y1+/- at R(3,2), Z1+/- at R(3,1) on the right edge. This matches
 *    the paper's example route Y0+ -> R(0,2) -> Y0-.
 *  - The 23 endpoint adapters fill remaining router ports in router-id
 *    order (the paper does not give their exact positions).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topo/mesh.hpp"
#include "topo/torus.hpp"

namespace anton2 {

/** Index of a channel adapter within one chip, in [0, 12). */
using ChannelAdapterId = int;

/** Index of an endpoint adapter within one chip, in [0, numEndpoints). */
using EndpointId = int;

/** Where a route enters or leaves the on-chip network. */
struct AttachPoint
{
    enum class Kind : std::uint8_t { Endpoint, Channel };

    Kind kind;
    EndpointId endpoint = -1; ///< valid when kind == Endpoint
    std::uint8_t dim = 0;     ///< valid when kind == Channel
    Dir dir = Dir::Pos;       ///< valid when kind == Channel
    std::uint8_t slice = 0;   ///< valid when kind == Channel

    static AttachPoint
    forEndpoint(EndpointId e)
    {
        AttachPoint p;
        p.kind = Kind::Endpoint;
        p.endpoint = e;
        return p;
    }

    static AttachPoint
    forChannel(int dim, Dir dir, int slice)
    {
        AttachPoint p;
        p.kind = Kind::Channel;
        p.dim = static_cast<std::uint8_t>(dim);
        p.dir = dir;
        p.slice = static_cast<std::uint8_t>(slice);
        return p;
    }
};

/** One unidirectional on-chip channel traversed by a route. */
struct ChipChannel
{
    enum class Kind : std::uint8_t
    {
        Mesh,            ///< router -> adjacent router (M-group)
        Skip,            ///< edge router -> opposite edge router (T-group)
        AdapterToRouter, ///< channel adapter -> router (T-group)
        RouterToAdapter, ///< router -> channel adapter (T-group)
        EndpointToRouter,///< endpoint adapter -> router (M-group)
        RouterToEndpoint ///< router -> endpoint adapter (M-group)
    };

    Kind kind;
    RouterId from_router = 0; ///< valid for Mesh, Skip, RouterTo*
    RouterId to_router = 0;   ///< valid for Mesh, Skip, *ToRouter
    int adapter = -1;         ///< ChannelAdapterId or EndpointId

    /**
     * T-group channels are the skip channels, router<->torus-adapter
     * channels, and the torus channels themselves; everything else on chip
     * is M-group (Section 2.5, Figure 1).
     */
    bool
    isTGroup() const
    {
        return kind == Kind::Skip || kind == Kind::AdapterToRouter
            || kind == Kind::RouterToAdapter;
    }
};

/** What a router port is wired to. */
struct RouterPort
{
    enum class Kind : std::uint8_t { Unused, Mesh, Skip, Channel, Endpoint };

    Kind kind = Kind::Unused;
    MeshDir mesh_dir = MeshDir::UPos; ///< valid when kind == Mesh
    RouterId skip_peer = 0;           ///< valid when kind == Skip
    int adapter = -1;                 ///< ChannelAdapterId or EndpointId
};

/** Maximum ports per router (Section 4.4: routers have six ports). */
inline constexpr int kRouterPorts = 6;

class ChipLayout
{
  public:
    /**
     * The Anton 2 ASIC placement, for a 3-D torus.
     * @param num_endpoints Endpoint adapters per chip; the Anton 2 ASIC
     * has 23 (Table 1). Must fit in the free router ports.
     */
    explicit ChipLayout(int num_endpoints = 23);

    const MeshGeom &mesh() const { return mesh_; }
    int numEndpoints() const { return static_cast<int>(endpoint_router_.size()); }
    int numChannelAdapters() const { return 2 * 3 * kNumSlices; }
    int numRouters() const { return mesh_.numRouters(); }

    /** Dense index for a channel adapter. */
    static constexpr int
    channelAdapterIndex(int dim, Dir dir, int slice)
    {
        return (dim * kNumSlices + slice) * 2 + dirIndex(dir);
    }

    /** Inverse of channelAdapterIndex. */
    void
    channelAdapterParams(ChannelAdapterId ca, int &dim, Dir &dir,
                         int &slice) const
    {
        dir = (ca % 2) == 0 ? Dir::Pos : Dir::Neg;
        slice = (ca / 2) % kNumSlices;
        dim = ca / (2 * kNumSlices);
    }

    /**
     * Short lowercase channel label used in metrics paths and trace track
     * names: dimension letter, slice, direction - e.g. `x0p`, `z1n`.
     */
    std::string channelShortName(ChannelAdapterId ca) const;

    /** Router a channel adapter attaches to. */
    RouterId
    channelRouter(int dim, Dir dir, int slice) const
    {
        return channel_router_[static_cast<std::size_t>(
            channelAdapterIndex(dim, dir, slice))];
    }

    RouterId
    channelRouter(ChannelAdapterId ca) const
    {
        return channel_router_[static_cast<std::size_t>(ca)];
    }

    /** Router an endpoint adapter attaches to. */
    RouterId
    endpointRouter(EndpointId e) const
    {
        return endpoint_router_[static_cast<std::size_t>(e)];
    }

    /** Router of an arbitrary attach point. */
    RouterId
    attachRouter(const AttachPoint &p) const
    {
        return p.kind == AttachPoint::Kind::Endpoint
                   ? endpointRouter(p.endpoint)
                   : channelRouter(p.dim, p.dir, p.slice);
    }

    /** Skip-channel peer of @p r, if r terminates a skip channel. */
    std::optional<RouterId> skipPeer(RouterId r) const;

    /** Port table of router @p r (size kRouterPorts, possibly Unused). */
    const std::vector<RouterPort> &
    routerPorts(RouterId r) const
    {
        return router_ports_[r];
    }

    /** Port index on router @p r wired to the given attachment. */
    int meshPort(RouterId r, MeshDir d) const;
    int skipPort(RouterId r) const;
    int channelPort(RouterId r, ChannelAdapterId ca) const;
    int endpointPort(RouterId r, EndpointId e) const;

    /**
     * The on-chip channels traversed by a packet entering at @p entry and
     * leaving at @p exit, under mesh direction order @p order. Handles the
     * three route shapes of Section 2.4: Y/Z through (single router), X
     * through (skip channel), and local direction-order routes.
     */
    std::vector<ChipChannel> route(const AttachPoint &entry,
                                   const AttachPoint &exit,
                                   const MeshDirOrder &order) const;

  private:
    void placeAdapters(int num_endpoints);
    void assignPorts();
    int findPort(RouterId r, RouterPort::Kind kind, int adapter) const;

    MeshGeom mesh_;
    std::vector<RouterId> channel_router_;  ///< by ChannelAdapterId
    std::vector<RouterId> endpoint_router_; ///< by EndpointId
    std::vector<std::pair<RouterId, RouterId>> skip_pairs_;
    std::vector<std::vector<RouterPort>> router_ports_;
};

} // namespace anton2
