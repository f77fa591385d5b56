/**
 * @file
 * Component-level tests of the router, channel adapter, and endpoint
 * adapter: pipeline latency, credit backpressure, serialization rate, and
 * cut-through behavior.
 */
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "noc/channel_adapter.hpp"
#include "noc/endpoint.hpp"
#include "noc/packet_slab.hpp"
#include "noc/router.hpp"
#include "sim/engine.hpp"

namespace anton2 {
namespace {

PacketPtr
makeTestPacket(PacketSlab &slab, int flits)
{
    PacketPtr pkt = slab.alloc();
    pkt->size_flits = static_cast<std::uint16_t>(flits);
    pkt->chip_exit = AttachPoint::forEndpoint(0);
    return pkt;
}

/**
 * A 2-port router test bench: injector channel -> router -> sink channel.
 * Its one-router route table sends every packet (all leave at endpoint
 * slot 0) out of port 1 on the packet's M-group VC, which is 0.
 */
struct RouterBench
{
    explicit RouterBench(int num_vcs = 2, int buf = 4,
                         int downstream_buf = 4)
        : in(1, 1), out(1, 1)
    {
        RouterConfig cfg;
        cfg.num_ports = 2;
        cfg.num_vcs = num_vcs;
        cfg.buf_flits_per_vc = buf;
        routes.set(0, 0, { 1, VcGroup::Mesh });
        router = std::make_unique<Router>(cfg, routes, 0);
        router->connectIn(0, in);
        router->connectOut(1, out, downstream_buf);
        engine.add(*router);
    }

    void
    sendPacket(const PacketPtr &pkt, int vc)
    {
        // Drive the wire directly, one flit per cycle.
        for (int f = 0; f < pkt->size_flits; ++f) {
            Phit phit;
            phit.pkt = pkt;
            phit.vc = static_cast<std::uint8_t>(vc);
            phit.index = static_cast<std::uint16_t>(f);
            phit.head = (f == 0);
            phit.tail = (f + 1 == pkt->size_flits);
            in.data.send(engine.now() + static_cast<Cycle>(f), phit);
        }
    }

    /** Drain the output for @p cycles, returning (flits, first_cycle). */
    std::pair<int, Cycle>
    drain(Cycle cycles, bool return_credits = true)
    {
        int flits = 0;
        Cycle first = 0;
        for (Cycle i = 0; i < cycles; ++i) {
            engine.step();
            // Behave like an upstream component: consume returned credits
            // every cycle (unpolled wire slots count as channel activity).
            (void)in.credit.take(engine.now());
            if (auto phit = out.data.take(engine.now())) {
                if (flits == 0)
                    first = engine.now();
                ++flits;
                if (return_credits)
                    out.credit.send(engine.now(), Credit{ phit->vc });
            }
        }
        return { flits, first };
    }

    PacketSlab slab;
    Engine engine;
    Channel in;
    Channel out;
    RouteTable routes{ 1, 1, 0 };
    std::unique_ptr<Router> router;
};

TEST(RouterUnit, SingleFlitTraversesInPipelineLatency)
{
    RouterBench b;
    b.sendPacket(makeTestPacket(b.slab, 1), 0);
    const auto [flits, first] = b.drain(20);
    EXPECT_EQ(flits, 1);
    // Head arrives at the router at cycle 1 (wire latency); the
    // RC/VA/SA1/SA2 pipeline plus switch traversal put the flit on the
    // output wire at cycle 5, deliverable downstream at cycle 6.
    EXPECT_EQ(first, 6u);
}

TEST(RouterUnit, TwoFlitPacketStaysContiguous)
{
    RouterBench b;
    b.sendPacket(makeTestPacket(b.slab, 2), 1);
    Cycle times[2] = { 0, 0 };
    int n = 0;
    for (Cycle i = 0; i < 30; ++i) {
        b.engine.step();
        if (auto phit = b.out.data.take(b.engine.now())) {
            ASSERT_LT(n, 2);
            times[n++] = b.engine.now();
            b.out.credit.send(b.engine.now(), Credit{ phit->vc });
            EXPECT_EQ(phit->vc, 0); // out_vc from the route table
        }
    }
    ASSERT_EQ(n, 2);
    EXPECT_EQ(times[1], times[0] + 1);
}

TEST(RouterUnit, BackToBackPacketsSustainFullRate)
{
    // A wire holds at most `latency` in-flight values, so interleave one
    // send per cycle with the drain.
    RouterBench b(2, 8, 8);
    int flits = 0;
    for (Cycle t = 0; t < 60; ++t) {
        if (t < 20) {
            auto pkt = makeTestPacket(b.slab, 1);
            Phit phit;
            phit.pkt = pkt;
            phit.vc = 0;
            phit.head = phit.tail = true;
            b.in.data.send(b.engine.now(), phit);
        }
        b.engine.step();
        (void)b.in.credit.take(b.engine.now());
        if (auto phit = b.out.data.take(b.engine.now())) {
            ++flits;
            b.out.credit.send(b.engine.now(), Credit{ phit->vc });
        }
    }
    EXPECT_EQ(flits, 20);
}

TEST(RouterUnit, CreditExhaustionBlocksTransmission)
{
    // Downstream buffer of 2 flits and no credits returned: only two
    // single-flit packets may cross.
    RouterBench b(2, 8, /*downstream_buf=*/2);
    int flits = 0;
    for (int i = 0; i < 6; ++i) {
        auto pkt = makeTestPacket(b.slab, 1);
        Phit phit;
        phit.pkt = pkt;
        phit.vc = 0;
        phit.head = phit.tail = true;
        b.in.data.send(b.engine.now(), phit);
        b.engine.step();
        (void)b.in.credit.take(b.engine.now());
        flits += b.out.data.take(b.engine.now()).has_value();
    }
    const auto [more, first] = b.drain(50, /*return_credits=*/false);
    (void)first;
    flits += more;
    EXPECT_EQ(flits, 2);
    EXPECT_TRUE(b.router->busy());
}

TEST(RouterUnit, CreditsResumeBlockedTraffic)
{
    RouterBench b(2, 8, 2);
    for (int i = 0; i < 4; ++i) {
        auto pkt = makeTestPacket(b.slab, 1);
        Phit phit;
        phit.pkt = pkt;
        phit.vc = 0;
        phit.head = phit.tail = true;
        b.in.data.send(b.engine.now(), phit);
        b.engine.step();
    }
    auto [flits, first] = b.drain(30, false);
    (void)first;
    EXPECT_EQ(flits, 2);
    // Return credits: the remaining packets flow.
    b.out.credit.send(b.engine.now(), Credit{ 0 });
    b.out.credit.send(b.engine.now() + 1, Credit{ 0 });
    auto [more, f2] = b.drain(30, true);
    (void)f2;
    EXPECT_EQ(more, 2);
    EXPECT_FALSE(b.router->busy());
}

TEST(RouterUnit, VcsArbitrateFairlyAtSa1)
{
    // Two VCs continuously loaded: both should progress.
    RouterBench b(2, 8, 16);
    int got[2] = { 0, 0 };
    // Drive alternating VCs, one flit per cycle, and count deliveries.
    for (Cycle t = 0; t < 60; ++t) {
        const int vc = static_cast<int>(t % 2);
        auto pkt = makeTestPacket(b.slab, 1);
        Phit phit;
        phit.pkt = pkt;
        phit.vc = static_cast<std::uint8_t>(vc);
        phit.head = phit.tail = true;
        b.in.data.send(b.engine.now(), phit);
        b.engine.step();
        // Drain the upstream credit wire like a real neighbor would;
        // leaving it full would block the router's credit returns.
        (void)b.in.credit.take(b.engine.now());
        if (auto out = b.out.data.take(b.engine.now())) {
            ++got[out->vc % 2];
            b.out.credit.send(b.engine.now(), Credit{ out->vc });
        }
    }
    // Both VCs served. (The route table maps out_vc = 0 for all in the
    // default bench; use input vc labels via modulo instead.)
    EXPECT_GT(got[0] + got[1], 40);
}

TEST(RouterUnit, StallAttributionSumsExactlyToSampledCycles)
{
    // Two 2-flit packets against a 2-flit downstream buffer: the first
    // consumes every credit at grant time, so the second sits in
    // CreditStall until credits come back - exercising the busy, credit
    // and no-input classes in one run.
    RouterBench b(2, 8, /*downstream_buf=*/2);
    b.router->enableStallSampling();
    auto first_pkt = makeTestPacket(b.slab, 2);
    auto second_pkt = makeTestPacket(b.slab, 2);
    for (int f = 0; f < 4; ++f) {
        Phit phit;
        phit.pkt = f < 2 ? first_pkt : second_pkt;
        phit.vc = 0;
        phit.index = static_cast<std::uint16_t>(f % 2);
        phit.head = (f % 2 == 0);
        phit.tail = (f % 2 == 1);
        b.in.data.send(b.engine.now(), phit);
        b.engine.step();
        (void)b.in.credit.take(b.engine.now());
    }
    // No credits returned: the first packet crosses, the second stalls.
    const auto [flits, t0] = b.drain(16, /*return_credits=*/false);
    (void)t0;
    EXPECT_EQ(flits, 2);
    b.out.credit.send(b.engine.now(), Credit{ 0 });
    b.out.credit.send(b.engine.now() + 1, Credit{ 0 });
    const auto [more, t1] = b.drain(20, /*return_credits=*/true);
    (void)t1;
    EXPECT_EQ(more, 2);

    const RouterStallSampler *s = b.router->stallSampler();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->sampled_cycles, 40u); // one classification per step
    ASSERT_EQ(s->ports.size(), 2u);
    // Port 0 has no output channel: never classified.
    EXPECT_EQ(s->ports[0].total(), 0u);
    // Port 1 is connected: exactly one class per sampled cycle, so the
    // class totals sum to the sampled cycle count - no cycle is double
    // counted or unaccounted.
    EXPECT_EQ(s->ports[1].total(), s->sampled_cycles);
    const auto &cy = s->ports[1].cycles;
    EXPECT_EQ(cy[static_cast<std::size_t>(StallClass::Busy)], 4u);
    EXPECT_GT(cy[static_cast<std::size_t>(StallClass::CreditStall)], 0u);
    EXPECT_GT(cy[static_cast<std::size_t>(StallClass::NoInput)], 0u);
    // aggregate() mirrors the per-port sums.
    EXPECT_EQ(s->aggregate().total(), s->sampled_cycles);
}

TEST(RouterUnit, LookaheadWindowRoutesAndAllocatesAtPinnedCycles)
{
    // Six one-flit packets on one VC against a one-flit downstream
    // buffer pile up deeper than the 4-entry RC/VA lookahead window:
    // packets 5 and 6 reach RC only as departures slide the window.
    // The pinned cycles are those of a router that rescans every
    // buffered entry each cycle: visiting only pending VCs must not
    // move them.
    RouterBench b(2, 8, /*downstream_buf=*/1);
    RingTraceSink sink(256);
    PacketEventStream events;
    events.setTrace(&sink);
    b.router->bindEvents(events, 0, 0);
    std::vector<Cycle> out_at;
    for (Cycle t = 0; t < 60; ++t) {
        if (t < 6) {
            auto pkt = makeTestPacket(b.slab, 1);
            pkt->id = t + 1;
            Phit phit;
            phit.pkt = pkt;
            phit.vc = 0;
            phit.head = phit.tail = true;
            b.in.data.send(b.engine.now(), phit);
        }
        b.engine.step();
        (void)b.in.credit.take(b.engine.now());
        if (auto phit = b.out.data.take(b.engine.now())) {
            out_at.push_back(b.engine.now());
            b.out.credit.send(b.engine.now(), Credit{ phit->vc });
        }
    }
    // packet id -> {RC, VA, SA2 grant} cycle
    std::map<std::uint64_t, std::array<Cycle, 3>> at;
    for (const TraceEvent &ev : sink.drain()) {
        if (ev.type == TraceEventType::RouteComputed)
            at[ev.packet][0] = ev.cycle;
        else if (ev.type == TraceEventType::VcAllocated)
            at[ev.packet][1] = ev.cycle;
        else if (ev.type == TraceEventType::SwitchGrant)
            at[ev.packet][2] = ev.cycle;
    }
    const std::map<std::uint64_t, std::array<Cycle, 3>> pinned = {
        { 1, { 2, 3, 5 } },  { 2, { 3, 4, 7 } },   { 3, { 4, 5, 9 } },
        { 4, { 5, 7, 11 } }, { 5, { 6, 7, 13 } },  { 6, { 8, 9, 15 } },
    };
    EXPECT_EQ(at, pinned);
    EXPECT_EQ(out_at, (std::vector<Cycle>{ 6, 8, 10, 12, 14, 16 }));
    EXPECT_FALSE(b.router->busy());
}

TEST(RouterUnit, VaCreditStallsCountEveryWithheldCycle)
{
    // A one-flit downstream buffer whose credit is withheld: the first
    // packet takes the credit, the second becomes head and is examined
    // (and counted as a VA credit stall) on every cycle until it comes
    // back. Counts and cycles are pinned from a router that rescans
    // every buffered entry each cycle.
    RouterBench b(2, 8, /*downstream_buf=*/1);
    const Router &r = *b.router;
    int got = 0;
    Cycle second_out = 0;
    auto step = [&](bool return_credits) {
        b.engine.step();
        (void)b.in.credit.take(b.engine.now());
        if (auto phit = b.out.data.take(b.engine.now())) {
            if (++got == 2)
                second_out = b.engine.now();
            if (return_credits)
                b.out.credit.send(b.engine.now(), Credit{ phit->vc });
        }
    };
    for (std::uint64_t id = 1; id <= 2; ++id) {
        auto pkt = makeTestPacket(b.slab, 1);
        pkt->id = id;
        Phit phit;
        phit.pkt = pkt;
        phit.vc = 0;
        phit.head = phit.tail = true;
        b.in.data.send(b.engine.now(), phit);
        for (int i = 0; i < 8; ++i)
            step(false);
    }
    for (int i = 0; i < 10; ++i)
        step(false);
    EXPECT_EQ(got, 1);
    EXPECT_EQ(b.engine.now(), 26u);
    EXPECT_EQ(r.vaCreditStalls(), 15u);

    const std::uint64_t before = r.vaCreditStalls();
    constexpr int kWithheld = 7;
    for (int i = 0; i < kWithheld; ++i)
        step(false);
    EXPECT_EQ(r.vaCreditStalls(), before + kWithheld);
    EXPECT_EQ(got, 1);

    // The credit returns: one last stall while it is on the wire, then
    // the head allocates and the packet leaves.
    b.out.credit.send(b.engine.now(), Credit{ 0 });
    for (int i = 0; i < 20; ++i)
        step(true);
    EXPECT_EQ(got, 2);
    EXPECT_EQ(second_out, 37u);
    EXPECT_EQ(r.vaCreditStalls(), before + kWithheld + 1);
    EXPECT_FALSE(b.router->busy());
}

TEST(RouterUnit, StallSamplerIdleRouterChargesNoInput)
{
    RouterBench b;
    b.router->enableStallSampling();
    b.drain(15);
    const RouterStallSampler *s = b.router->stallSampler();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->sampled_cycles, 15u);
    EXPECT_EQ(s->ports[1].cycles[static_cast<std::size_t>(
                  StallClass::NoInput)],
              15u);
    EXPECT_EQ(s->ports[1].total(), 15u);
}

TEST(NocState, PacketFifoKeepsOrderAcrossWrapAndGrowth)
{
    // Pops between pushes make the ring wrap before each doubling, so
    // growth must unroll the wrapped order.
    std::vector<Packet> pkts(40);
    PacketFifo q;
    std::deque<PacketPtr> ref;
    EXPECT_TRUE(q.empty());
    for (std::size_t i = 0; i < pkts.size(); ++i) {
        q.push_back(&pkts[i]);
        ref.push_back(&pkts[i]);
        if (i % 3 == 2) {
            ASSERT_EQ(q.front(), ref.front());
            q.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(q.size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j)
            ASSERT_EQ(q[j], ref[j]) << "push " << i << ", element " << j;
    }
    while (!ref.empty()) {
        ASSERT_EQ(q.front(), ref.front());
        q.pop_front();
        ref.pop_front();
    }
    EXPECT_TRUE(q.empty());
    // A restore resizes, then assigns each element.
    q.resize(3);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q[2], nullptr);
}

TEST(NocState, VcBufferGrowsAndPopsKeepingEntryState)
{
    std::vector<Packet> pkts(6);
    VcBuffer buf;
    buf.init(16);
    for (std::size_t i = 0; i < pkts.size(); ++i) {
        pkts[i].size_flits = 2;
        pkts[i].pattern = static_cast<std::uint8_t>(i % 2);
        Phit phit;
        phit.pkt = &pkts[i];
        phit.head = true;
        buf.acceptFlit(phit, 10 + i);
        phit.index = 1;
        phit.head = false;
        phit.tail = true;
        buf.acceptFlit(phit, 11 + i);
    }
    ASSERT_EQ(buf.packetCount(), 6u);
    EXPECT_EQ(buf.occupancy(), 12);
    for (std::size_t i = 0; i < pkts.size(); ++i) {
        const VcBuffer::Entry &e = buf.entry(i);
        EXPECT_EQ(e.pkt, &pkts[i]);
        EXPECT_EQ(e.head_at, 10 + i);
        EXPECT_EQ(e.arrived, 2);
        EXPECT_EQ(e.size_flits, 2);
        EXPECT_EQ(static_cast<std::size_t>(e.pattern), i % 2);
    }
    // Pipeline progress made behind the head slides up with its entry.
    buf.entry(1).routed = true;
    buf.entry(1).out_port = 3;
    buf.entry(1).routed_at = 77;
    buf.sendFlit();
    buf.sendFlit();
    buf.popHead();
    ASSERT_EQ(buf.packetCount(), 5u);
    EXPECT_EQ(buf.occupancy(), 10);
    EXPECT_EQ(buf.head().pkt, &pkts[1]);
    EXPECT_TRUE(buf.head().routed);
    EXPECT_EQ(buf.head().out_port, 3);
    EXPECT_EQ(buf.head().routed_at, 77u);
    EXPECT_EQ(buf.entry(4).pkt, &pkts[5]);
}

TEST(NocState, CreditCounterRejectsWhatItCannotHold)
{
    constexpr int last = CreditCounter::kMaxVcs - 1;
    CreditCounter c;
    c.init(CreditCounter::kMaxVcs, 0xffff);
    EXPECT_EQ(c.numVcs(), CreditCounter::kMaxVcs);
    EXPECT_EQ(c.available(last), 0xffff);
    c.consume(last, 0xffff);
    c.release(last);
    EXPECT_EQ(c.available(last), 1);
    EXPECT_THROW(c.init(CreditCounter::kMaxVcs + 1, 8),
                 std::invalid_argument);
    EXPECT_THROW(c.init(8, 0x10000), std::invalid_argument);
    VcBuffer buf;
    EXPECT_THROW(buf.init(VcBuffer::kMaxCapacity + 1),
                 std::invalid_argument);
}

/** The message of the std::invalid_argument @p build throws, or "". */
template <typename F>
std::string
rejection(F &&build)
{
    try {
        build();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(NocState, ComponentsRejectShapesTheirStateCannotHold)
{
    // A router's per-port state is sized for its six ports and every
    // credit counter for CreditCounter::kMaxVcs VCs, so each component
    // refuses more at construction, in every build, naming itself (the
    // adapter before its arbiters would fail on the VC count).
    const RouteTable routes(1, 1, 0);
    RouterConfig rcfg;
    rcfg.num_ports = Router::kMaxPorts;
    rcfg.num_vcs = CreditCounter::kMaxVcs;
    rcfg.out_arb = ArbPolicy::InverseWeighted;
    EXPECT_EQ(rejection([&] { Router(rcfg, routes, 0); }), "");
    rcfg.num_ports = Router::kMaxPorts + 1;
    EXPECT_NE(rejection([&] { Router(rcfg, routes, 0); }).find("router"),
              std::string::npos);
    rcfg.num_ports = Router::kMaxPorts;
    rcfg.num_vcs = CreditCounter::kMaxVcs + 1;
    EXPECT_NE(rejection([&] { Router(rcfg, routes, 0); }).find("router"),
              std::string::npos);

    const auto ingress = [](PacketPtr, std::vector<IngressCopy> &) {};
    for (ArbPolicy arb :
         { ArbPolicy::RoundRobin, ArbPolicy::InverseWeighted }) {
        ChannelAdapterConfig ccfg;
        ccfg.arb = arb;
        ccfg.num_vcs = CreditCounter::kMaxVcs;
        EXPECT_EQ(rejection([&] { ChannelAdapter(ccfg, false, ingress); }),
                  "");
        ccfg.num_vcs = CreditCounter::kMaxVcs + 1;
        EXPECT_NE(rejection([&] {
                      ChannelAdapter(ccfg, false, ingress);
                  }).find("channel adapter"),
                  std::string::npos)
            << arbPolicyName(arb);
    }

    EndpointConfig ecfg;
    ecfg.num_vcs = CreditCounter::kMaxVcs;
    EXPECT_EQ(rejection([&] { EndpointAdapter(ecfg, { 0, 0 }); }), "");
    ecfg.num_vcs = CreditCounter::kMaxVcs + 1;
    EXPECT_NE(rejection([&] {
                  EndpointAdapter(ecfg, { 0, 0 });
              }).find("endpoint adapter"),
              std::string::npos);
}

} // namespace
} // namespace anton2
