/**
 * @file
 * Physical packaging model (Section 2.2, Figure 2).
 *
 * A 512-node Anton 2 machine packs 16 nodecards per backplane (a 4x4x1
 * array), 8 backplanes per rack, and 4 racks. Torus channels within a
 * backplane are PCB traces; channels between backplanes (within or between
 * racks) are cables. The paper gives nodecard trace lengths of 7.1-11.7 cm;
 * the backplane/cable lengths are read off Figure 2's legend only
 * qualitatively, so this model fixes representative lengths and derives
 * per-link wire latency from length and propagation speed, plus a fixed
 * SerDes serialization/framing latency per hop.
 */
#pragma once

#include <cmath>

#include "sim/types.hpp"
#include "topo/torus.hpp"

namespace anton2 {

struct PackagingModel
{
    /** Signal propagation, ~0.7 c in PCB/cable dielectric. */
    static constexpr double velocity_cm_per_ns = 21.0;

    /** Per card (paper: 7.1-11.7 cm). */
    static constexpr double nodecard_trace_cm = 9.4;
    /** Within one 4x4x1 backplane. */
    static constexpr double backplane_trace_cm = 25.0;
    static constexpr double intra_rack_cable_cm = 75.0;
    static constexpr double inter_rack_cable_cm = 180.0;

    /**
     * Fixed per-hop latency of the SerDes pair and link layer (serializer,
     * framing/CRC, clock recovery, deserializer). Chosen so that the total
     * per-hop latency lands near the paper's 39.1 ns/hop fit (Figure 11).
     */
    static constexpr double serdes_fixed_ns = 22.0;

    /** Backplane holding a node: 4x4x1 groups in (X, Y) at each Z. */
    static int
    backplaneOf(const TorusGeom &geom, NodeId n)
    {
        const Coords c = geom.coords(n);
        const int bx = c[0] / 4;
        const int by = c.size() > 1 ? c[1] / 4 : 0;
        const int bz = c.size() > 2 ? c[2] : 0;
        const int nbx = (geom.radix(0) + 3) / 4;
        const int nby = geom.ndims() > 1 ? (geom.radix(1) + 3) / 4 : 1;
        return (bz * nby + by) * nbx + bx;
    }

    /** Rack holding a backplane: 8 backplanes per rack, in order. */
    static int
    rackOf(int backplane)
    {
        return backplane / 8;
    }

    /** One-way wire length of the torus link leaving @p n along (dim,dir). */
    static double
    linkLengthCm(const TorusGeom &geom, NodeId n, int dim, Dir dir)
    {
        const NodeId peer = geom.neighbor(n, dim, dir);
        const int bp_a = backplaneOf(geom, n);
        const int bp_b = backplaneOf(geom, peer);
        double between = backplane_trace_cm;
        if (bp_a != bp_b) {
            between = rackOf(bp_a) == rackOf(bp_b) ? intra_rack_cable_cm
                                                   : inter_rack_cable_cm;
        }
        return 2.0 * nodecard_trace_cm + between;
    }

    /** Total link latency in core cycles (SerDes + propagation). */
    static Cycle
    linkLatency(const TorusGeom &geom, NodeId n, int dim, Dir dir)
    {
        const double ns = serdes_fixed_ns
                          + linkLengthCm(geom, n, dim, dir)
                                / velocity_cm_per_ns;
        const Cycle cycles = nsToCycles(ns);
        return cycles < 1 ? 1 : cycles;
    }
};

} // namespace anton2
