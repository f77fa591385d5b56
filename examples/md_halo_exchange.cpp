/**
 * @file
 * MD-style halo exchange: the communication pattern the Anton 2 network
 * was built for (Sections 1, 2.3).
 *
 * Each node owns a spatial box of particles; every simulation step it
 * broadcasts its particles' positions to the endpoints of its neighboring
 * nodes using table-based multicast trees, alternating between two tree
 * orientations per packet to balance channel load (Figure 3). A
 * counted-write counter at each receiving endpoint dispatches a "forces
 * ready" handler once all expected halos arrive - the synchronization
 * idiom of [15].
 */
#include <cstdio>
#include <vector>

#include "core/machine.hpp"
#include "routing/multicast.hpp"

using namespace anton2;

int
main()
{
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    cfg.seed = 7;
    Machine m(cfg);

    const int particles_per_node = 12;
    const int copies_per_node = 2; // endpoints receiving each position

    // Build two multicast trees per node (alternating orientations) to
    // its 26-node neighbor shell.
    std::vector<std::array<std::int32_t, 2>> groups(m.geom().numNodes());
    Rng tie(11);
    std::uint64_t tree_hops = 0, unicast_hops = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        std::vector<McastDest> dests;
        for (int dx : { -1, 0, 1 }) {
            for (int dy : { -1, 0, 1 }) {
                for (int dz : { -1, 0, 1 }) {
                    if (dx == 0 && dy == 0 && dz == 0)
                        continue;
                    Coords c = m.geom().coords(n);
                    c[0] = (c[0] + dx + 4) % 4;
                    c[1] = (c[1] + dy + 4) % 4;
                    c[2] = (c[2] + dz + 4) % 4;
                    for (int e = 0; e < copies_per_node; ++e)
                        dests.push_back({ m.geom().id(c), e });
                }
            }
        }
        const auto t0 = buildMcastTree(m.geom(), n, dests,
                                       DimOrder{ 0, 1, 2 }, 0, tie);
        const auto t1 = buildMcastTree(m.geom(), n, dests,
                                       DimOrder{ 2, 1, 0 }, 1, tie);
        groups[n] = { m.installTree(t0), m.installTree(t1) };
        tree_hops += static_cast<std::uint64_t>(t0.torusHops());
        unicast_hops += static_cast<std::uint64_t>(
            unicastTorusHops(m.geom(), n, dests));
    }
    std::printf("halo multicast: %llu tree hops vs %llu unicast hops "
                "(%.1fx saved)\n",
                static_cast<unsigned long long>(tree_hops),
                static_cast<unsigned long long>(unicast_hops),
                static_cast<double>(unicast_hops)
                    / static_cast<double>(tree_hops));

    // Arm the synchronization counters: each receiving endpoint expects
    // 26 neighbors x particles_per_node halo packets.
    int handlers_fired = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        for (int e = 0; e < copies_per_node; ++e) {
            m.chip(n).endpoint(e).armCounter(1,
                                             26 * particles_per_node);
            m.chip(n).endpoint(e).setHandlerFn(
                [&handlers_fired](std::int32_t, Cycle) {
                    ++handlers_fired;
                });
        }
    }

    // One simulation step: every node multicasts its particle positions,
    // alternating trees per packet.
    const Cycle start = m.now();
    for (int p = 0; p < particles_per_node; ++p) {
        for (NodeId n = 0; n < m.geom().numNodes(); ++n)
            m.sendMulticast({ n, 0 }, groups[n][p % 2],
                            static_cast<std::uint8_t>(p % 2), 1,
                            /*counter=*/1);
    }
    m.run(RunSpec::untilQuiescent(2000000));

    std::printf("step complete in %.2f us simulated time\n",
                cyclesToNs(m.now() - start) / 1000.0);
    std::printf("handlers fired: %d (expected %u)\n", handlers_fired,
                m.geom().numNodes() * copies_per_node);
    std::printf("positions delivered: %llu packets\n",
                static_cast<unsigned long long>(m.totalDelivered()));
    return 0;
}
