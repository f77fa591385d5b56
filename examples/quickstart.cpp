/**
 * @file
 * Quickstart: build a small Anton 2 machine, send remote writes and a
 * remote read, and print delivery statistics.
 *
 *   $ ./examples/quickstart
 *
 * The Machine facade assembles a 4x4x4 torus of chips, each with the 4x4
 * on-chip mesh, 12 torus-channel adapters, and 23 endpoint adapters of
 * Figure 1, wired with packaging-model link latencies (Figure 2).
 */
#include <cstdio>

#include "core/machine.hpp"

using namespace anton2;

int
main()
{
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    cfg.seed = 42;
    Machine m(cfg);

    std::printf("Built a %ux%ux%u torus: %u nodes, %zu components\n",
                4u, 4u, 4u, m.geom().numNodes(),
                m.engine().componentCount());

    // A remote write from node 0, endpoint 0 to node (2,1,3), endpoint 5.
    const EndpointAddr src{ 0, 0 };
    const EndpointAddr dst{ m.geom().id({ 2, 1, 3 }), 5 };
    // The machine releases a packet once it is delivered: the hook copies
    // what it wants to keep.
    Packet delivered;
    m.setDeliverHook([&delivered](const PacketPtr &p, Cycle) {
        delivered = *p;
    });
    auto pkt = m.makeWrite(src, dst);
    pkt->payload[0] = { 0xdeadbeef, 0xcafef00d, 0x12345678 };
    m.send(pkt);
    m.run(RunSpec::untilDelivered(1, 100000));
    std::printf("write delivered: %d inter-node hops, %.1f ns in-network\n",
                delivered.hops,
                cyclesToNs(delivered.eject_time - delivered.inject_time));

    // A remote read: the reply arrives in the separate Reply class.
    m.setDeliverHook([](const PacketPtr &p, Cycle) {
        if (p->op == OpKind::ReadReply)
            std::printf("read reply delivered to node %u endpoint %d\n",
                        p->dst.node, p->dst.ep);
    });
    m.send(m.makeRead(src, dst));
    m.run(RunSpec::untilDelivered(3, 100000));

    // A counted write: the handler fires when all expected writes arrive.
    m.endpoint(dst).armCounter(7, 2);
    m.endpoint(dst).setHandlerFn([](std::int32_t counter, Cycle now) {
        std::printf("counter %d fired at cycle %llu\n", counter,
                    static_cast<unsigned long long>(now));
    });
    m.send(m.makeWrite(src, dst, 0, 1, /*counter=*/7));
    m.send(m.makeWrite({ 1, 0 }, dst, 0, 1, /*counter=*/7));
    m.run(RunSpec::untilQuiescent(100000));

    std::printf("total delivered: %llu packets, mean latency %.1f ns\n",
                static_cast<unsigned long long>(m.totalDelivered()),
                cyclesToNs(static_cast<Cycle>(m.latencyStat().mean())));
    return 0;
}
