/**
 * @file
 * Table-based inter-node multicast (Section 2.3, Figure 3).
 *
 * A multicast tree delivers one packet to an arbitrary set of destination
 * endpoints. Every root-to-leaf path is required to be a valid unicast
 * (minimal dimension-order) route, which is why multicast adds no new VC
 * dependencies (Section 2.5). Trees are built by merging the unicast
 * routes from the source to each destination; shared prefixes become
 * shared tree edges, saving inter-node bandwidth.
 *
 * MD simulations alternate between trees built with different dimension
 * orders for the same destination set to balance channel load (Figure 3).
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "routing/route.hpp"
#include "sim/rng.hpp"
#include "topo/torus.hpp"

namespace anton2 {

/** One forwarding action at a node: send a copy onward along (dim, dir). */
struct McastHop
{
    std::uint8_t dim;
    Dir dir;

    bool
    operator==(const McastHop &o) const
    {
        return dim == o.dim && dir == o.dir;
    }
};

/** What a node does with an arriving packet of a multicast group. */
struct McastNodeEntry
{
    std::vector<McastHop> forward; ///< copies sent to neighbor nodes
    std::vector<int> local;        ///< endpoint adapters delivered locally
};

/** The full tree: per-node forwarding entries. */
struct McastTree
{
    NodeId root = 0;
    std::uint8_t slice = 0;
    std::unordered_map<NodeId, McastNodeEntry> nodes;

    /** Total inter-node hops consumed by one packet using this tree. */
    int
    torusHops() const
    {
        int total = 0;
        for (const auto &[node, entry] : nodes)
            total += static_cast<int>(entry.forward.size());
        return total;
    }
};

/** A destination: (node, endpoint adapter index). */
using McastDest = std::pair<NodeId, int>;

/**
 * Build a multicast tree from @p src to @p dests, merging the unicast
 * dimension-order routes that use @p order (the same order for every
 * destination, so shared prefixes merge). Direction ties (offset exactly
 * k/2) are broken with @p rng once per dimension for the whole tree.
 * @throws std::invalid_argument, before any draw, as PacketRoute's
 * constructor does: for a torus that is not 3-D, an @p order that is
 * not a permutation of the three dimensions, or a @p slice out of range.
 */
McastTree buildMcastTree(const TorusGeom &geom, NodeId src,
                         const std::vector<McastDest> &dests,
                         const DimOrder &order, std::uint8_t slice,
                         Rng &rng);

/**
 * Total inter-node hops if each destination node were sent a separate
 * unicast instead (the baseline multicast saves against, Figure 3).
 */
int unicastTorusHops(const TorusGeom &geom, NodeId src,
                     const std::vector<McastDest> &dests);

} // namespace anton2
