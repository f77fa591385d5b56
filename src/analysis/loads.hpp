/**
 * @file
 * Analytic channel/arbiter load model (Sections 3.1-3.2).
 *
 * Equality of service requires knowing, for every arbiter input, the
 * expected load contributed by each pre-computed traffic pattern. This
 * model traces the route distribution of a pattern (Monte-Carlo over
 * sources, dimension orders, slices, and tie-breaks), accumulating:
 *
 *  - router output-arbiter loads per (router, out port, in port),
 *  - channel-adapter egress/ingress arbiter loads per VC,
 *  - torus and mesh channel loads (for throughput normalization and the
 *    Figure 4 style analysis).
 *
 * On-chip paths come from the RouteTable the routers' RC stage reads:
 * the constructor walks it once into a charge table, one list of router
 * arbiters and mesh channels per (entry attach point, exit slot), so a
 * traced packet charges each chip it crosses from one list.
 *
 * A route is at most three runs: straight torus hops along one
 * dimension, in the route's dimension order. Its draw fills one
 * fixed-size PacketRoute (order, slice, dirs, hops per dimension). The
 * chip crossings where a run starts or ends - at the source, at a turn,
 * at the destination - depend on the whole route; everything else a run
 * charges depends only on its start node, its adapter, its hops and the
 * dimensions completed before it (which fix its VC).
 *
 * addPattern() counts, then charges. Its samples all weigh the same
 * w = 1/samples_per_core, so it tallies in integers each run-end
 * crossing by (node, entry, exit slot) and each run by (start node,
 * adapter, hops, dimensions done). It then expands each run once, per
 * hop, into adapter arbitrations by (node, adapter, VC) and the
 * crossings the run passes straight through, expands the crossings
 * through the charge table once, and turns a count c into the double
 * that c additions of w give: entry c of the running sums (0, w, w+w,
 * ...) for a load at zero, c additions in turn for one an earlier call
 * already charged. The loads are bit for bit those of adding w per
 * sample. tracePacket() takes any weight and adds it directly, expanding
 * each run as it walks it; both callers walk a route through one run
 * loop.
 *
 * applyWeights() then programs every inverse-weighted arbiter in a Machine
 * from these loads (Section 3.3).
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "arb/inverse_weighted.hpp"
#include "core/chip.hpp"
#include "core/machine.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {

class LoadModel
{
  public:
    /**
     * @throws std::invalid_argument unless @p geom is a 3-D torus (the
     * chip layout's placement) and @p num_patterns is at least 1, or if
     * the route table of @p layout under `chip.dir_order` fails
     * RouteTable::check().
     */
    LoadModel(const TorusGeom &geom, const ChipLayout &layout,
              const ChipConfig &chip, int num_patterns = kNumPatterns);

    /**
     * Accumulate pattern @p slot's loads: every core (node x endpoint in
     * @p cores) injects at rate 1 packet/cycle, destinations drawn from
     * @p pattern, destination endpoint uniform over @p cores.
     * @throws std::invalid_argument, before the first draw from @p rng,
     * if @p slot is not a pattern slot, a core is not an endpoint of the
     * layout, @p samples_per_core is below 1, or nodes x cores x
     * samples_per_core exceeds 2^32 - 1 (the counts are 32-bit).
     */
    void addPattern(int slot, const TrafficPattern &pattern,
                    const std::vector<EndpointId> &cores,
                    int samples_per_core, Rng &rng);

    /**
     * Trace one concrete unicast route, adding @p weight to slot's loads.
     * @throws std::invalid_argument if @p slot is not a pattern slot, an
     * address is outside the machine, or @p route is not a whole route
     * from @p src's node to @p dst's (see malformedRoute).
     */
    void tracePacket(EndpointAddr src, EndpointAddr dst,
                     const PacketRoute &route, double weight, int slot);

    // --- queries (loads are packets/cycle at unit per-core injection).
    // Each throws std::invalid_argument for a slot that is not a pattern
    // slot.
    double routerLoad(NodeId n, RouterId r, int out_port, int in_port,
                      int slot) const;
    double caEgressLoad(NodeId n, int ca, int vc, int slot) const;
    double caIngressLoad(NodeId n, int ca, int vc, int slot) const;
    double torusLoad(NodeId n, int dim, Dir dir, int slice, int slot) const;
    double meshLoad(NodeId n, RouterId from, MeshDir d, int slot) const;

    double maxTorusLoad(int slot) const;
    double maxMeshLoad(int slot) const;

    /**
     * Saturation per-core throughput (packets/cycle/core) implied by the
     * torus-channel bottleneck: the normalization of Figure 9/10 where
     * "throughput of 1 indicates full utilization of torus channels".
     * @throws std::invalid_argument if @p slot is not a pattern slot or
     * @p size_flits is below 1.
     */
    double idealCoreThroughput(int slot, int size_flits = 1) const;

    /**
     * Program every inverse-weighted arbiter in @p machine from these
     * loads (no-op for other arbiter policies).
     * @throws std::invalid_argument if @p machine has another node,
     * router or channel-adapter count than this model.
     */
    void applyWeights(Machine &machine) const;

    int numPatterns() const { return num_patterns_; }

  private:
    /**
     * One arbiter charge of a chip crossing, as offsets within one
     * node's block of the router and mesh arrays: the (router, out port,
     * in port) output-arbiter load, and for a mesh hop the (router, mesh
     * direction) channel load (-1 for other hops).
     */
    struct Charge
    {
        std::uint32_t router;
        std::int32_t mesh;
    };

    /**
     * Walk one unicast route as straight torus runs, at most one per
     * dimension, and report the chip crossings that start or end a run:
     * `cross(n, key)` at the source, at each turn and at the
     * destination, keyed like the charge table. `run(n, ca, hops,
     * dims_done)` reports each run: `hops` torus hops leaving node `n`
     * on adapter `ca`'s link, after `dims_done` earlier runs.
     */
    template <class Cross, class Run>
    void walkRuns(EndpointAddr src, EndpointAddr dst,
                  const PacketRoute &route, Cross &&cross, Run &&run) const;

    /**
     * Expand one run hop by hop: `egress(n, ca, vc)` for each torus hop
     * leaving node `n`, whose torus channel is adapter `ca`'s link,
     * `ingress(n, ca, vc)` as the hop arrives at node `n` on adapter
     * `ca`, and `cross(n, key)` for each chip the run passes straight
     * through.
     */
    template <class Egress, class Ingress, class Cross>
    void expandRun(NodeId start, int out_ca, int hops, int dims_done,
                   Egress &&egress, Ingress &&ingress, Cross &&cross) const;

    /**
     * Add @p amount to each router-arbiter and mesh load of the chip
     * crossing @p key. @p router and @p mesh point at the chip's blocks
     * of the router and mesh arrays (of loads, or of counts).
     */
    template <class T>
    void chargeChip(std::size_t key, T amount, T *router, T *mesh) const;

    void checkSlot(int slot) const;

    std::size_t
    routerIdx(NodeId n, RouterId r, int out_port, int in_port) const
    {
        return ((static_cast<std::size_t>(n) * nr_ + r) * np_
                + static_cast<std::size_t>(out_port))
                   * np_
               + static_cast<std::size_t>(in_port);
    }

    std::size_t
    caIdx(NodeId n, int ca, int vc) const
    {
        return (static_cast<std::size_t>(n) * nca_
                + static_cast<std::size_t>(ca))
                   * nvc_
               + static_cast<std::size_t>(vc);
    }

    /** A node's torus channels are indexed like the adapters driving
     * them (ChipLayout::channelAdapterIndex). */
    std::size_t
    torusIdx(NodeId n, int ca) const
    {
        return static_cast<std::size_t>(n) * nca_
               + static_cast<std::size_t>(ca);
    }

    std::size_t
    meshIdx(NodeId n, RouterId from, MeshDir d) const
    {
        return (static_cast<std::size_t>(n) * nr_ + from) * kNumMeshDirs
               + static_cast<std::size_t>(meshDirIdx(d));
    }

    /** A chip crossing's charge-table key. */
    std::size_t
    key(int entry, int exit_slot) const
    {
        return static_cast<std::size_t>(entry * num_slots_ + exit_slot);
    }

    const TorusGeom &geom_;
    const ChipLayout &layout_;
    ChipConfig chip_;
    int num_patterns_;
    std::size_t nr_, np_, nca_, nvc_;
    int num_eps_;   ///< endpoints per chip (charge-table entries 0..E-1)
    int num_slots_; ///< RouteTable exit slots per entry
    std::array<std::int64_t, 3> strides_; ///< node-id step per dimension
    std::vector<std::array<int, 3>> coords_; ///< node id -> coordinates

    /**
     * The charge table: the charges of entry `a` (endpoint `e` is entry
     * `e`, channel adapter `ca` is entry `E + ca`) to exit slot `s` are
     * charges_[first_[a * num_slots_ + s] .. first_[a * num_slots_ + s
     * + 1]). Pairs no route takes have no charges.
     */
    std::vector<Charge> charges_;
    std::vector<std::uint32_t> first_;

    /** One flat array per slot for each arbitration-point family. */
    std::vector<std::vector<double>> router_;
    std::vector<std::vector<double>> ca_egress_;
    std::vector<std::vector<double>> ca_ingress_;
    std::vector<std::vector<double>> torus_;
    std::vector<std::vector<double>> mesh_;
};

} // namespace anton2
