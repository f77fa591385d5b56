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

#include <cstdint>
#include <span>
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
 * The in-place randomRoute() from the two nodes' coordinates, as
 * TorusGeom::coords() gives them: the same spec from the same RNG draws,
 * with no division. For a caller that keeps a coordinate table.
 * @throws std::invalid_argument unless @p src and @p dst hold one
 * coordinate per dimension.
 */
void randomRoute(const TorusGeom &geom, std::span<const int> src,
                 std::span<const int> dst, Rng &rng, RouteSpec &out);

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
