/**
 * @file
 * Unit tests for the channel adapter (SerDes rate matching, egress VC
 * promotion, ingress expansion) and the endpoint adapter (injection
 * pacing, class round-robin), plus Wire delivery-tag semantics.
 */
#include <gtest/gtest.h>

#include <memory>

#include "noc/channel_adapter.hpp"
#include "noc/endpoint.hpp"
#include "noc/packet_slab.hpp"
#include "sim/engine.hpp"

namespace anton2 {
namespace {

PacketPtr
makePkt(PacketSlab &slab, int flits = 1)
{
    PacketPtr pkt = slab.alloc();
    pkt->size_flits = static_cast<std::uint16_t>(flits);
    return pkt;
}

/**
 * Egress test bench: router-side channel -> adapter -> torus channel. The
 * adapter's torus link crosses the dateline, so a packet on its first
 * dimension leaves on promotion VC 1 of its traffic class.
 */
struct EgressBench
{
    EgressBench()
        : from_router(1, 1), torus(1, 1)
    {
        ChannelAdapterConfig cfg;
        cfg.num_vcs = 4; // 2 traffic classes x 2 promotion VCs
        cfg.buf_flits_per_vc = 8;
        adapter = std::make_unique<ChannelAdapter>(
            cfg, /*crosses_dateline=*/true,
            [](const PacketPtr &pkt, std::vector<IngressCopy> &copies) {
                copies.push_back({ pkt, 0 });
            });
        adapter->connectRouterIn(from_router);
        adapter->connectTorusOut(torus, 8);
        engine.add(*adapter);
    }

    void
    offer(const PacketPtr &pkt, int vc)
    {
        Phit phit;
        phit.pkt = pkt;
        phit.vc = static_cast<std::uint8_t>(vc);
        phit.head = phit.tail = true;
        from_router.data.send(engine.now(), phit);
    }

    PacketSlab slab;
    Engine engine;
    Channel from_router;
    Channel torus;
    std::unique_ptr<ChannelAdapter> adapter;
};

TEST(ChannelAdapterUnit, SerializesAtExactly14Over45)
{
    EgressBench b;
    // Keep the adapter saturated for a long window.
    int sent = 0, got = 0;
    const int cycles = 450 * 4; // 4 x 45-cycle periods x 10 flits
    for (int t = 0; t < cycles; ++t) {
        if (sent - got < 6 && sent < 1000) {
            b.offer(makePkt(b.slab), 0);
            ++sent;
        }
        b.engine.step();
        (void)b.from_router.credit.take(b.engine.now());
        if (auto phit = b.torus.data.take(b.engine.now())) {
            ++got;
            b.torus.credit.send(b.engine.now(), Credit{ phit->vc });
        }
    }
    // 14/45 flits per cycle = 560 over 1800 cycles; allow pipeline slack.
    EXPECT_NEAR(got, cycles * 14 / 45, 8);
}

TEST(ChannelAdapterUnit, TorusFlitsCarryTheCommittedLinkVc)
{
    EgressBench b;
    // A Reply packet crossing the dateline: promotion VC 1 of class 1,
    // full link VC 1 * 2 + 1 = 3.
    auto pkt = makePkt(b.slab);
    pkt->tc = TrafficClass::Reply;
    b.offer(pkt, 1);
    for (int t = 0; t < 30; ++t) {
        b.engine.step();
        (void)b.from_router.credit.take(b.engine.now());
        if (auto phit = b.torus.data.take(b.engine.now())) {
            EXPECT_EQ(phit->vc, 3);
            EXPECT_TRUE(pkt->vc.crossedInCurrentDim());
            EXPECT_EQ(pkt->hops, 1);
            return;
        }
    }
    FAIL() << "flit never emerged";
}

TEST(ChannelAdapterUnit, NoPromotionFaultKeepsTheUnpromotedVc)
{
    EgressBench b;
    EXPECT_TRUE(b.adapter->crossesDateline());
    b.adapter->faultNoPromotion();
    EXPECT_FALSE(b.adapter->crossesDateline());
    auto pkt = makePkt(b.slab);
    b.offer(pkt, 0);
    for (int t = 0; t < 30; ++t) {
        b.engine.step();
        (void)b.from_router.credit.take(b.engine.now());
        if (auto phit = b.torus.data.take(b.engine.now())) {
            EXPECT_EQ(phit->vc, 0);
            EXPECT_FALSE(pkt->vc.crossedInCurrentDim());
            return;
        }
    }
    FAIL() << "flit never emerged";
}

TEST(ChannelAdapterUnit, EgressBlocksWithoutPeerCredits)
{
    EgressBench b;
    // Peer buffer = 8 flits on link VC 1: at most 8 single-flit packets
    // cross if credits are never returned. Offers are credit-gated the
    // way the upstream router's output stage would be, so the adapter's
    // ingress buffer is never overrun.
    int got = 0, offered = 0, credits = 8;
    for (int t = 0; t < 600; ++t) {
        if (offered < 20 && credits > 0) {
            b.offer(makePkt(b.slab), 0);
            ++offered;
            --credits;
        }
        b.engine.step();
        credits += b.from_router.credit.take(b.engine.now()).has_value();
        got += b.torus.data.take(b.engine.now()).has_value();
    }
    EXPECT_EQ(got, 8);
    EXPECT_TRUE(b.adapter->busy());
}

TEST(ChannelAdapterUnit, CommitHappensOncePerPacket)
{
    // Egress must commit the torus hop (dateline promotion and the hop
    // count) exactly once per granted packet, however often the
    // credit-probe path peeks.
    EgressBench b;
    std::vector<PacketPtr> pkts;
    int offered = 0, got = 0;
    for (int t = 0; t < 400; ++t) {
        if (offered < 6 && t % 2 == 0) {
            pkts.push_back(makePkt(b.slab));
            b.offer(pkts.back(), offered % 4);
            ++offered;
        }
        b.engine.step();
        (void)b.from_router.credit.take(b.engine.now());
        if (auto phit = b.torus.data.take(b.engine.now())) {
            ++got;
            b.torus.credit.send(b.engine.now(), Credit{ phit->vc });
        }
    }
    EXPECT_EQ(got, 6);
    for (const PacketPtr &pkt : pkts)
        EXPECT_EQ(pkt->hops, 1);
}

TEST(EndpointUnit, InjectsOneFlitPerCycle)
{
    PacketSlab slab;
    Engine engine;
    Channel to_router(1, 1), from_router(1, 1);
    EndpointConfig cfg;
    cfg.num_vcs = 8;
    EndpointAdapter ep(cfg, EndpointAddr{ 0, 0 });
    ep.connectRouterOut(to_router, 16);
    ep.connectRouterIn(from_router);
    engine.add(ep);

    for (int i = 0; i < 10; ++i) {
        auto pkt = makePkt(slab);
        pkt->vc = VcState(VcPolicy::Anton2);
        ep.inject(pkt);
    }
    int got = 0;
    Cycle first = 0, last = 0;
    for (int t = 0; t < 40; ++t) {
        engine.step();
        if (auto phit = to_router.data.take(engine.now())) {
            if (got == 0)
                first = engine.now();
            last = engine.now();
            ++got;
            to_router.credit.send(engine.now(), Credit{ phit->vc });
        }
    }
    EXPECT_EQ(got, 10);
    EXPECT_EQ(last - first, 9u); // contiguous, one per cycle
    EXPECT_EQ(ep.injected(), 10u);
}

TEST(EndpointUnit, ClassesShareInjectionRoundRobin)
{
    PacketSlab slab;
    Engine engine;
    Channel to_router(1, 1), from_router(1, 1);
    EndpointConfig cfg;
    cfg.num_vcs = 8;
    EndpointAdapter ep(cfg, EndpointAddr{ 0, 0 });
    ep.connectRouterOut(to_router, 16);
    ep.connectRouterIn(from_router);
    engine.add(ep);

    for (int i = 0; i < 6; ++i) {
        auto req = makePkt(slab);
        req->tc = TrafficClass::Request;
        ep.inject(req);
        auto rep = makePkt(slab);
        rep->tc = TrafficClass::Reply;
        ep.inject(rep);
    }
    int by_class[2] = { 0, 0 };
    std::uint8_t first_vcs[4] = { 255, 255, 255, 255 };
    int n = 0;
    for (int t = 0; t < 40; ++t) {
        engine.step();
        if (auto phit = to_router.data.take(engine.now())) {
            ++by_class[phit->vc / 4];
            if (n < 4)
                first_vcs[n] = phit->vc;
            ++n;
            to_router.credit.send(engine.now(), Credit{ phit->vc });
        }
    }
    EXPECT_EQ(by_class[0], 6);
    EXPECT_EQ(by_class[1], 6);
    // Strict alternation while both queues are non-empty.
    EXPECT_NE(first_vcs[0] / 4, first_vcs[1] / 4);
    EXPECT_NE(first_vcs[1] / 4, first_vcs[2] / 4);
}

TEST(EndpointUnit, EjectionDeliversAndReturnsCreditImmediately)
{
    PacketSlab slab;
    Engine engine;
    Channel to_router(1, 1), from_router(1, 1);
    EndpointConfig cfg;
    cfg.num_vcs = 8;
    EndpointAdapter ep(cfg, EndpointAddr{ 3, 1 });
    ep.connectRouterOut(to_router, 16);
    ep.connectRouterIn(from_router);
    engine.add(ep);

    int delivered = 0;
    ep.setDeliverFn([&](const PacketPtr &, Cycle, Cycle) { ++delivered; });

    auto pkt = makePkt(slab, 2);
    for (int f = 0; f < 2; ++f) {
        Phit phit;
        phit.pkt = pkt;
        phit.vc = 5;
        phit.head = (f == 0);
        phit.tail = (f == 1);
        from_router.data.send(engine.now(), phit);
        engine.step();
        // Credit returned the cycle the flit arrives.
        if (f == 0) {
            engine.step();
            auto cr = from_router.credit.take(engine.now());
            ASSERT_TRUE(cr.has_value());
            EXPECT_EQ(cr->vc, 5);
        }
    }
    engine.step();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(ep.delivered(), 1u);
}

TEST(WireTags, ValueNotDeliverableBeforeItsCycle)
{
    Wire<int> w(1);
    // Pre-load two cycles ahead (aliases the slot ring): must not be
    // readable early.
    w.send(1, 42); // deliverable at 2
    EXPECT_FALSE(w.take(0).has_value());
    EXPECT_FALSE(w.take(1).has_value());
    EXPECT_EQ(w.take(2).value(), 42);
}

TEST(WireTags, MissedValueDoesNotMasqueradeLater)
{
    Wire<int> w(2);
    w.send(0, 7); // deliverable at 2
    // Receiver never polls at 2; at cycle 5 (same ring slot) nothing
    // should appear as freshly deliverable.
    EXPECT_FALSE(w.take(5).has_value());
    EXPECT_TRUE(w.busy()); // the stale value still occupies the wire
}

} // namespace
} // namespace anton2
