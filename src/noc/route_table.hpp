/**
 * @file
 * The on-chip route table: route computation (RC) as one lookup
 * (Sections 2.3-2.5).
 *
 * Routing is oblivious. Where a packet leaves a chip is fixed when it
 * enters the chip, and the on-chip routes are deterministic: a
 * direction-order mesh route to the exit router, or an X through-route
 * across the skip channel. A packet's next hop at a router therefore
 * depends only on the router and the packet's exit slot, so one table of
 * router x exit slot -> (output port, VC group) replaces the per-hop
 * search. ChipLayout and the mesh direction order are machine-wide, so a
 * Machine builds one table and every chip's routers share it.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/chip_layout.hpp"
#include "noc/packet.hpp"

namespace anton2 {

/** The channel group a hop belongs to (Section 2.5): it selects the
 * packet's M-group or T-group promotion VC. */
enum class VcGroup : std::uint8_t { Mesh, Torus };

/** One table entry: where a packet leaves the router, in which group. */
struct RouteStep
{
    std::int8_t out_port = -1; ///< -1: no packet can request this entry
    VcGroup group = VcGroup::Mesh;
};

/** One router on a walked route and the port the route leaves it by. */
struct RouteHop
{
    RouterId router = 0;
    int out_port = -1;
};

/**
 * Rows are routers; columns are exit slots. Slot `e` is endpoint `e`,
 * slot `E + ca` is channel adapter `ca` (E = endpoints), and slot
 * `E + C + ca` is the X through-route to adapter `ca` (C = adapters),
 * which takes the skip port at the entry router.
 */
class RouteTable
{
  public:
    /** An empty table (every entry out_port = -1). */
    RouteTable(int num_routers, int num_endpoints, int num_channels);

    /**
     * The table of a chip with @p layout under mesh direction order
     * @p order: a mesh route toward the exit router (M group), the exit
     * port at it (M group for endpoints, T group for adapters), and the
     * skip port for X through-routes (T group).
     * @throws std::invalid_argument if check() fails.
     */
    static RouteTable build(const ChipLayout &layout,
                            const MeshDirOrder &order);

    /**
     * Verify this table against @p layout: every entry a packet can
     * request names a wired port in the matching VC group, and following
     * the table from any router leaves the chip at the slot's exit.
     * Endpoint and adapter slots are requested at every router (packets
     * enter anywhere and transit the mesh); through slots only where set.
     * @throws std::invalid_argument naming the first bad entry.
     */
    void check(const ChipLayout &layout) const;

    /**
     * Follow the table from router @p start toward exit slot @p slot,
     * replacing @p hops with every router the route passes and the port
     * it leaves that router by; the last hop leaves the chip. This is
     * the walk check() runs from every router, and the one the load
     * model charges its on-chip arbiters from.
     * @throws std::invalid_argument if @p layout differs in shape, if
     * @p start or @p slot is out of range, or if the route dead-ends,
     * takes an unwired port or one outside its VC group, leaves at the
     * wrong exit, or passes every router without leaving.
     */
    void walk(const ChipLayout &layout, RouterId start, int slot,
              std::vector<RouteHop> &hops) const;

    int numRouters() const { return num_routers_; }
    int numSlots() const { return num_endpoints_ + 2 * num_channels_; }

    /** Exit slot of @p pkt, from its chip exit and through-route flag. */
    int
    slot(const Packet &pkt) const
    {
        const AttachPoint &x = pkt.chip_exit;
        if (x.kind == AttachPoint::Kind::Endpoint)
            return x.endpoint;
        const int ca = ChipLayout::channelAdapterIndex(x.dim, x.dir, x.slice);
        return num_endpoints_ + (pkt.x_through ? num_channels_ : 0) + ca;
    }

    const RouteStep &
    step(int router, int slot) const
    {
        return steps_[static_cast<std::size_t>(router * numSlots() + slot)];
    }

    void
    set(int router, int slot, RouteStep s)
    {
        steps_[static_cast<std::size_t>(router * numSlots() + slot)] = s;
    }

  private:
    void checkShape(const ChipLayout &layout) const;

    int num_routers_;
    int num_endpoints_;
    int num_channels_;
    std::vector<RouteStep> steps_;
};

} // namespace anton2
