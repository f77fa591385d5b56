/**
 * @file
 * Inter-node oblivious routing (Section 2.3).
 *
 * Unicast routes are minimal and dimension-ordered. Each packet is assigned
 * a dimension order (any of the n! permutations), a torus slice (the network
 * is channel-sliced with two physical channels per neighbor), and a travel
 * direction for each dimension. Orders and slices are typically randomized
 * at the source and are independent of network load.
 */
#pragma once

#include <array>
#include <cstdint>

#include "sim/rng.hpp"
#include "topo/torus.hpp"

namespace anton2 {

/**
 * The routing decision made at the source for one packet of a 3-D
 * torus, as the fixed-size record the packet carries: dimension order,
 * torus slice, and the direction of travel chosen for each dimension
 * (relevant when the minimal direction is ambiguous, i.e. the offset is
 * exactly k/2 on an even ring), plus the torus hops still to take per
 * dimension along the chosen directions.
 */
struct PacketRoute
{
    std::array<std::uint8_t, 3> order{ 0, 1, 2 }; ///< dimension order
    std::array<Dir, 3> dirs{ Dir::Pos, Dir::Pos, Dir::Pos };
    std::uint8_t slice = 0; ///< torus slice, in [0, kNumSlices)
    /** Torus hops left per dimension: set when the route is drawn or
     * built, decremented at each unicast ingress (multicast packets
     * route by their tree and keep zeros). */
    std::array<std::uint16_t, 3> left{};

    PacketRoute() = default;

    /**
     * The route from @p src to @p dst along explicit choices, with
     * `left` the hops each dimension takes in its direction: minimal,
     * or the long way round.
     * @throws std::invalid_argument if @p geom does not have three
     * dimensions or a choice is malformed (see malformedRoute()), such
     * as an @p route_order that is not a permutation of the three.
     */
    PacketRoute(const TorusGeom &geom, NodeId src, NodeId dst,
                const DimOrder &route_order,
                const std::array<Dir, 3> &route_dirs,
                std::uint8_t route_slice);

    /** The first dimension in route order with hops left, or -1 when
     * the packet is at its destination node. */
    int
    nextDim() const
    {
        for (const std::uint8_t d : order) {
            if (left[d] != 0)
                return d;
        }
        return -1;
    }

    /** Per dimension, the hops from @p src to @p dst along that
     * dimension's direction. */
    std::array<std::uint16_t, 3> hops(const TorusGeom &geom, NodeId src,
                                      NodeId dst) const;
};

/**
 * The route from @p src to @p dst with the given order and slice, each
 * dimension's direction minimal and ties drawn from @p rng.
 * @throws std::invalid_argument, before any draw, as the record's
 * constructor does.
 */
PacketRoute makeRoute(const TorusGeom &geom, NodeId src, NodeId dst,
                      const DimOrder &order, std::uint8_t slice, Rng &rng);

/**
 * Fully randomized route into @p out: random dimension order, slice and
 * tie-breaks, and `out.left` the hops each dimension takes in its drawn
 * direction.
 * @throws std::invalid_argument, before any draw, unless @p geom has
 * three dimensions.
 */
void randomRoute(const TorusGeom &geom, NodeId src, NodeId dst, Rng &rng,
                 PacketRoute &out);

/**
 * The same from the two nodes' coordinates, as TorusGeom::coords()
 * gives them, for a caller that keeps a coordinate table: no division.
 * @throws std::invalid_argument, before any draw, unless @p geom has
 * three dimensions.
 */
void randomRoute(const TorusGeom &geom, const std::array<int, 3> &src,
                 const std::array<int, 3> &dst, Rng &rng, PacketRoute &out);

/**
 * Why @p route is not a route of a 3-D torus - its order must be a
 * permutation of the dimensions, with one Pos or Neg direction per
 * dimension and a slice below kNumSlices - or null when it is one.
 */
const char *malformedRoute(const PacketRoute &route);

/**
 * malformedRoute(route), or why `route.left` differs from the hops its
 * directions take from @p src to @p dst (a record drawn or built for
 * another pair, or part-way along its route); null when @p route is a
 * whole route from @p src to @p dst.
 */
const char *malformedRoute(const TorusGeom &geom, NodeId src, NodeId dst,
                           const PacketRoute &route);

} // namespace anton2
