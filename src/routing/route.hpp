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
#include <vector>

#include "sim/rng.hpp"
#include "topo/torus.hpp"

namespace anton2 {

/** One inter-node hop: travel along @p dim in direction @p dir. */
struct TorusHop
{
    std::uint8_t dim;
    Dir dir;
};

/**
 * The routing decision made at the source for one packet: dimension order,
 * torus slice, and the direction of travel chosen for each dimension
 * (relevant when the minimal direction is ambiguous, i.e. the offset is
 * exactly k/2 on an even ring).
 */
struct RouteSpec
{
    DimOrder order;        ///< permutation of dimension indices
    std::uint8_t slice;    ///< torus slice, in [0, kNumSlices)
    std::vector<Dir> dirs; ///< chosen direction per dimension (indexed by dim)
};

/**
 * A route of a 3-D torus as the fixed-size record a packet carries
 * (Section 2.3): the RouteSpec fields in arrays, plus the torus hops
 * still to take per dimension along the chosen directions.
 */
struct PacketRoute
{
    std::array<std::uint8_t, 3> order{ 0, 1, 2 }; ///< dimension order
    std::array<Dir, 3> dirs{ Dir::Pos, Dir::Pos, Dir::Pos };
    std::uint8_t slice = 0; ///< torus slice, in [0, kNumSlices)
    /** Torus hops left per dimension: set when the route is drawn or
     * set, decremented at each unicast ingress (multicast packets route
     * by their tree and keep zeros). */
    std::array<std::uint16_t, 3> left{};

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

    /** The route as a RouteSpec (for torusHops and nextRouteDim). */
    RouteSpec
    spec() const
    {
        return { DimOrder(order.begin(), order.end()), slice,
                 std::vector<Dir>(dirs.begin(), dirs.end()) };
    }
};

/**
 * Build a RouteSpec with the given order and slice, resolving direction ties
 * with @p rng. Directions for dimensions needing no travel are set to Pos
 * and never used.
 */
RouteSpec makeRoute(const TorusGeom &geom, NodeId src, NodeId dst,
                    DimOrder order, std::uint8_t slice, Rng &rng);

/**
 * makeRoute() into @p out, reusing the storage of its vectors: the same
 * spec from the same RNG draws. @p order may be `out.order` itself.
 */
void makeRoute(const TorusGeom &geom, NodeId src, NodeId dst,
               const DimOrder &order, std::uint8_t slice, Rng &rng,
               RouteSpec &out);

/** Fully randomized route: random dimension order, slice, and tie-breaks. */
RouteSpec randomRoute(const TorusGeom &geom, NodeId src, NodeId dst, Rng &rng);

/**
 * randomRoute() into @p out, reusing the storage of its vectors: the same
 * spec from the same RNG draws, with no allocation once @p out has held a
 * route of this torus.
 */
void randomRoute(const TorusGeom &geom, NodeId src, NodeId dst, Rng &rng,
                 RouteSpec &out);

/**
 * randomRoute() into the fixed-size record of a 3-D torus: the same
 * order, slice and dirs from the same RNG draws, and `out.left` the hops
 * each dimension takes in its drawn direction.
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
 * @p spec as the fixed-size record from @p src to @p dst: its order,
 * slice and dirs, and per dimension the hops to the destination's
 * coordinate along the spec's direction, minimal or the long way round.
 * @throws std::invalid_argument if @p spec is malformed (see
 * malformedRoute()) or @p geom does not have three dimensions.
 */
PacketRoute packetRoute(const TorusGeom &geom, NodeId src, NodeId dst,
                        const RouteSpec &spec);

/**
 * Expand a RouteSpec into the exact sequence of inter-node hops from @p src
 * to @p dst. Hops for one dimension are contiguous (dimension-order).
 */
std::vector<TorusHop> torusHops(const TorusGeom &geom, NodeId src, NodeId dst,
                                const RouteSpec &spec);

/**
 * The next dimension (index into spec.order traversal) a packet at @p here
 * must route in, or -1 if @p here == @p dst. Used for per-chip incremental
 * route decisions.
 */
int nextRouteDim(const TorusGeom &geom, NodeId here, NodeId dst,
                 const RouteSpec &spec);

/**
 * Why @p spec is not a route of a 3-D torus - its order must be a
 * permutation of the dimensions, with one Pos or Neg direction per
 * dimension and a slice below kNumSlices - or null when it is one.
 */
const char *malformedRoute(const RouteSpec &spec);

} // namespace anton2
