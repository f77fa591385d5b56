/**
 * @file
 * A small MD halo-exchange workload shared by the tests: every node
 * multicasts its particles to the endpoints of its 26-node neighbor
 * shell over two alternating trees, and counted writes close each step
 * (the pattern of examples/md_halo_exchange.cpp). Radices must be at
 * least 3, so the 26 neighbors are distinct.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/machine.hpp"
#include "routing/multicast.hpp"

namespace anton2::test {

/** Two multicast groups per node (orders XYZ and ZYX on both slices),
 * each reaching endpoints [0, @p receivers) of its neighbor shell. */
inline std::vector<std::array<std::int32_t, 2>>
installHalo(Machine &m, int receivers)
{
    const TorusGeom &g = m.geom();
    std::vector<std::array<std::int32_t, 2>> groups(g.numNodes());
    Rng tie(11);
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        std::vector<McastDest> dests;
        for (int dx : { -1, 0, 1 }) {
            for (int dy : { -1, 0, 1 }) {
                for (int dz : { -1, 0, 1 }) {
                    if (dx == 0 && dy == 0 && dz == 0)
                        continue;
                    Coords c = g.coords(n);
                    const int d[3] = { dx, dy, dz };
                    for (std::size_t i = 0; i < 3; ++i) {
                        const int k = g.radix(static_cast<int>(i));
                        c[i] = (c[i] + d[i] + k) % k;
                    }
                    for (int e = 0; e < receivers; ++e)
                        dests.push_back({ g.id(c), e });
                }
            }
        }
        groups[n] = { m.installTree(buildMcastTree(g, n, dests,
                                                   DimOrder{ 0, 1, 2 }, 0,
                                                   tie)),
                      m.installTree(buildMcastTree(g, n, dests,
                                                   DimOrder{ 2, 1, 0 }, 1,
                                                   tie)) };
    }
    return groups;
}

/**
 * One step: arm counter @p counter at every receiving endpoint, then
 * multicast @p particles packets from endpoint 0 of each node,
 * alternating trees and one- and two-flit packets. Returns the
 * deliveries the step makes.
 */
inline std::uint64_t
sendHaloStep(Machine &m, const std::vector<std::array<std::int32_t, 2>> &groups,
             int receivers, int particles, std::int32_t counter)
{
    const NodeId nodes = m.geom().numNodes();
    for (NodeId n = 0; n < nodes; ++n) {
        for (int e = 0; e < receivers; ++e)
            m.chip(n).endpoint(e).armCounter(counter, 26 * particles);
    }
    for (int p = 0; p < particles; ++p) {
        for (NodeId n = 0; n < nodes; ++n)
            m.sendMulticast({ n, 0 }, groups[n][p % 2],
                            static_cast<std::uint8_t>(p % 2), 1 + p % 2,
                            counter);
    }
    return static_cast<std::uint64_t>(nodes) * 26
           * static_cast<std::uint64_t>(receivers * particles);
}

/** Packet records live across every chip's slab. */
inline std::size_t
livePackets(Machine &m)
{
    std::size_t live = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n)
        live += m.chip(n).slab().live();
    return live;
}

} // namespace anton2::test
