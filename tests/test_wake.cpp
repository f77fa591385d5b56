/**
 * @file
 * Exact wake cycles: a component sleeps while it has no work of its own
 * and wakes on the cycle a wire delivers to it, and sleeping changes
 * nothing a per-cycle schedule would show.
 *
 *  - an adapter that sleeps through idle gaps sends every flit on the
 *    same cycle as one ticked every cycle (its SerDes tokens settle
 *    arithmetically on waking), and the returning torus credits wake it;
 *  - a torus arrival wakes its receiver on another lane of a threaded,
 *    windowed engine (the wake is staged on the sending lane and merged
 *    at the barrier), while every other component sleeps.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "noc/channel_adapter.hpp"
#include "sim/engine.hpp"

namespace anton2 {
namespace {

/** An egress adapter fed by a router-side channel; the test plays the
 * router and the torus peer. */
struct Egress
{
    Egress() : from_router(1, 1), torus(1, 1)
    {
        ChannelAdapterConfig cfg;
        cfg.num_vcs = 4;
        cfg.buf_flits_per_vc = 8;
        adapter = std::make_unique<ChannelAdapter>(
            cfg, /*crosses_dateline=*/false,
            [](const PacketPtr &pkt, std::vector<IngressCopy> &copies) {
                copies.push_back({ pkt, 0 });
            });
        adapter->connectRouterIn(from_router);
        adapter->connectTorusOut(torus, 8);
    }

    /** Offer a one-flit packet from the router at cycle @p now. */
    void
    offer(Cycle now)
    {
        Phit phit;
        phit.pkt = slab.alloc();
        phit.head = phit.tail = true;
        from_router.data.send(now, phit);
    }

    /** Between cycles, at @p now: drain the credits returned to the
     * router, and take a flit arriving from the torus, crediting it
     * back. True if a flit arrived. */
    bool
    poll(Cycle now)
    {
        (void)from_router.credit.take(now);
        auto phit = torus.data.take(now);
        if (!phit)
            return false;
        torus.credit.send(now, Credit{ phit->vc });
        return true;
    }

    PacketSlab slab;
    Channel from_router;
    Channel torus;
    std::unique_ptr<ChannelAdapter> adapter;
};

TEST(Wake, SleptAdapterSendsOnTheSameCycleAsAPerCycleAdapter)
{
    Engine engine;
    Egress slept;   // wake-aware: sleeps whenever it holds no packet
    Egress ticked;  // serial tail: ticks every cycle
    engine.addWakeable(engine.newShard(), *slept.adapter,
                       HostCompClass::ChannelAdapter);
    engine.add(*ticked.adapter);

    // Each packet follows the previous flit's arrival after an idle gap
    // of 1-8 cycles, so the tokens the sleeping adapter settles on
    // waking range from a partial refill to the cap.
    const int packets = 64;
    int offered = 0;
    Cycle next_offer = 0;
    std::vector<Cycle> slept_at, ticked_at;
    while (static_cast<int>(ticked_at.size()) < packets) {
        ASSERT_LT(engine.now(), 10000u) << "a flit never arrived";
        if (engine.now() == next_offer && offered == static_cast<int>(
                                              ticked_at.size())) {
            slept.offer(engine.now());
            ticked.offer(engine.now());
            ++offered;
        }
        engine.step();
        if (slept.poll(engine.now()))
            slept_at.push_back(engine.now());
        if (ticked.poll(engine.now())) {
            ticked_at.push_back(engine.now());
            next_offer = engine.now()
                         + 1 + static_cast<Cycle>(ticked_at.size() % 8);
        }
    }
    EXPECT_EQ(slept_at, ticked_at);
    EXPECT_EQ(slept.adapter->flitsSent(), ticked.adapter->flitsSent());
    // The sharded adapter really slept through the gaps.
    EXPECT_LT(engine.ticksRun(), engine.now());
}

TEST(Wake, TorusArrivalWakesItsReceiverAtTwoThreads)
{
    MachineConfig cfg;
    cfg.radix = { 4, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = 5;
    cfg.threads = 2;
    cfg.lookahead = 0;
    Machine m(cfg);
    ASSERT_EQ(m.lookaheadWindow(), 20u);

    // One Z hop from node 0 to node 8: the two chips tick on different
    // lanes, so the flit's wake (and its credit's, coming back) is
    // staged on the sender's lane and merged at the barrier.
    const NodeId dst = m.geom().id({ 0, 0, 1 });
    ASSERT_GE(dst, m.geom().numNodes() / 2);
    m.send(m.makeWrite({ 0, 0 }, { dst, 1 }, 0, 2));
    ASSERT_EQ(m.run(RunSpec::untilDelivered(1, 10000)).reason,
              StopReason::Delivered);
    // The cycle a schedule ticking every component every cycle
    // delivers on (pinned).
    EXPECT_EQ(m.lastDeliveryTime(), 45u);

    // Every other component slept: far fewer ticks than a per-cycle
    // schedule would run.
    EXPECT_LT(m.engine().ticksRun() * 10,
              m.engine().shardedCount() * m.now());
}

} // namespace
} // namespace anton2
