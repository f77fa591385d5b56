/**
 * @file
 * Integration tests: whole-machine packet delivery across the unified
 * network (endpoints -> mesh -> torus channels -> mesh -> endpoints),
 * covering unicast, through-routes, multicast, remote reads, counted
 * writes, and both VC policies.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "analysis/loads.hpp"
#include "core/machine.hpp"
#include "sim/rng.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 4;
    cfg.chip.arb = ArbPolicy::RoundRobin;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 10;
    cfg.seed = 7;
    return cfg;
}

/** Keep a copy of each delivered packet's record in @p got (the
 * machine releases a packet once it is delivered). */
void
keepDelivered(Machine &m, std::optional<Packet> &got)
{
    m.setDeliverHook([&got](const PacketPtr &p, Cycle) { got = *p; });
}

TEST(Machine, SingleWriteSameNodeDelivers)
{
    Machine m(smallConfig());
    std::optional<Packet> pkt;
    keepDelivered(m, pkt);
    m.send(m.makeWrite({ 0, 0 }, { 0, 3 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 2000)).reason == StopReason::Delivered);
    EXPECT_EQ(m.totalDelivered(), 1u);
    EXPECT_EQ(pkt->hops, 0);
    EXPECT_GT(pkt->eject_time, pkt->inject_time);
}

TEST(Machine, SingleWriteNeighborNodeDelivers)
{
    Machine m(smallConfig());
    const NodeId dst = m.geom().neighbor(0, 0, Dir::Pos);
    std::optional<Packet> pkt;
    keepDelivered(m, pkt);
    m.send(m.makeWrite({ 0, 0 }, { dst, 1 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 5000)).reason == StopReason::Delivered);
    EXPECT_EQ(pkt->hops, 1);
}

TEST(Machine, WriteAcrossAllDimensionsDelivers)
{
    Machine m(smallConfig());
    const NodeId dst = m.geom().id({ 2, 1, 3 });
    std::optional<Packet> pkt;
    keepDelivered(m, pkt);
    m.send(m.makeWrite({ 0, 0 }, { dst, 2 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 10000)).reason == StopReason::Delivered);
    EXPECT_EQ(pkt->hops, m.geom().hopDistance(0, dst));
}

TEST(Machine, TwoFlitPacketDelivers)
{
    Machine m(smallConfig());
    auto pkt = m.makeWrite({ 0, 0 }, { m.geom().id({ 1, 1, 1 }), 0 },
                           /*pattern=*/0, /*size_flits=*/2);
    pkt->payload[0] = { 0x1111, 0x2222, 0x3333 };
    pkt->payload[1] = { 0x4444, 0x5555, 0x6666 };
    std::optional<Packet> got;
    keepDelivered(m, got);
    m.send(pkt);
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 10000)).reason == StopReason::Delivered);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload[1][2], 0x6666u);
}

TEST(Machine, AllPairsSampleDelivers)
{
    Machine m(smallConfig());
    std::uint64_t sent = 0;
    for (NodeId s = 0; s < m.geom().numNodes(); s += 7) {
        for (NodeId d = 0; d < m.geom().numNodes(); d += 5) {
            m.send(m.makeWrite({ s, 0 }, { d, 1 }));
            ++sent;
        }
    }
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 200000)).reason == StopReason::Delivered);
    EXPECT_EQ(m.totalDelivered(), sent);
}

TEST(Machine, EveryDimOrderAndSliceDelivers)
{
    Machine m(smallConfig());
    const NodeId dst = m.geom().id({ 1, 2, 3 });
    std::uint64_t sent = 0;
    Rng tie(3);
    for (const auto &order : allDimOrders(3)) {
        for (int slice = 0; slice < kNumSlices; ++slice) {
            auto pkt = m.makeWrite({ 0, 0 }, { dst, 0 });
            const PacketRoute route =
                makeRoute(m.geom(), 0, dst, order,
                          static_cast<std::uint8_t>(slice), tie);
            m.setRoute(*pkt, route);
            m.send(pkt);
            ++sent;
        }
    }
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 50000)).reason == StopReason::Delivered);
}

TEST(Machine, SetRouteTakesOnlyAWholeRoute)
{
    // A record is the whole route from the packet's source node to its
    // destination node or it is rejected: a malformed shape, hops left
    // part-way along the route or past it, another destination's
    // record. The packet keeps its drawn route.
    Machine m(smallConfig());
    const TorusGeom &g = m.geom();
    const NodeId dst = g.id({ 1, 2, 3 });
    Rng tie(3);
    const PacketRoute good = makeRoute(g, 0, dst, DimOrder{ 2, 0, 1 }, 1,
                                       tie);
    std::vector<PacketRoute> bad(5, good);
    bad[0].order = { 0, 1, 1 };
    bad[1].dirs[2] = static_cast<Dir>(0);
    bad[2].slice = kNumSlices;
    --bad[3].left[0];
    ++bad[4].left[1];
    bad.push_back(makeRoute(g, 0, g.id({ 1, 2, 2 }), DimOrder{ 2, 0, 1 }, 1,
                            tie));
    auto pkt = m.makeWrite({ 0, 0 }, { dst, 0 });
    const PacketRoute drawn = pkt->route;
    for (const PacketRoute &route : bad) {
        EXPECT_THROW(m.setRoute(*pkt, route), std::invalid_argument);
        EXPECT_EQ(pkt->route.order, drawn.order);
        EXPECT_EQ(pkt->route.left, drawn.left);
    }
    m.setRoute(*pkt, good);
    EXPECT_EQ(pkt->route.order, good.order);
    EXPECT_EQ(pkt->route.left, good.left);
    m.send(pkt);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(1, 20000)).reason,
              StopReason::Delivered);
}

TEST(Machine, XThroughRoutesWork)
{
    // 4 hops along X exercise the skip channels at intermediate chips.
    Machine m(smallConfig());
    const NodeId dst = m.geom().id({ 2, 0, 0 });
    std::optional<Packet> pkt;
    keepDelivered(m, pkt);
    m.send(m.makeWrite({ 0, 0 }, { dst, 0 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 10000)).reason == StopReason::Delivered);
    EXPECT_EQ(pkt->hops, 2);
}

TEST(Machine, DatelineCrossingRoutesDeliver)
{
    // Force wrap-around routes (src near the dateline in every dimension).
    Machine m(smallConfig());
    const NodeId src = m.geom().id({ 3, 3, 3 });
    const NodeId dst = m.geom().id({ 1, 1, 1 });
    std::uint64_t sent = 0;
    for (int i = 0; i < 20; ++i) {
        m.send(m.makeWrite({ src, 0 }, { dst, 0 }));
        ++sent;
    }
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 50000)).reason == StopReason::Delivered);
}

TEST(Machine, LatencyScalesWithHops)
{
    Machine m(smallConfig());
    std::optional<Packet> near;
    keepDelivered(m, near);
    m.send(m.makeWrite({ 0, 0 }, { m.geom().id({ 1, 0, 0 }), 0 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 10000)).reason == StopReason::Delivered);
    const Cycle lat1 = near->eject_time - near->inject_time;

    std::optional<Packet> far;
    keepDelivered(m, far);
    m.send(m.makeWrite({ 0, 0 }, { m.geom().id({ 2, 2, 2 }), 0 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(2, 20000)).reason == StopReason::Delivered);
    const Cycle lat6 = far->eject_time - far->inject_time;
    EXPECT_GT(lat6, lat1 + 4 * m.config().fixed_torus_latency);
}

TEST(Machine, QuiescentAfterDrain)
{
    Machine m(smallConfig());
    for (int i = 0; i < 10; ++i)
        m.send(m.makeWrite({ 0, 0 }, { m.geom().id({ 3, 2, 1 }), 0 }));
    ASSERT_EQ(m.run(RunSpec::untilQuiescent(100000)).reason,
              StopReason::Quiescent);
    EXPECT_EQ(m.totalDelivered(), 10u);
}

TEST(Machine, CountedWriteFiresHandlerAtZero)
{
    Machine m(smallConfig());
    auto &dst_ep = m.chip(5).endpoint(2);
    dst_ep.armCounter(/*counter=*/42, /*count=*/3);
    int fired = 0;
    Cycle fire_time = 0;
    dst_ep.setHandlerFn([&](std::int32_t c, Cycle t) {
        EXPECT_EQ(c, 42);
        ++fired;
        fire_time = t;
    });
    for (int i = 0; i < 3; ++i)
        m.send(m.makeWrite({ 0, 0 }, { 5, 2 }, 0, 1, /*counter=*/42));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(3, 50000)).reason == StopReason::Delivered);
    m.run(RunSpec::forCycles(10));
    EXPECT_EQ(fired, 1);
    EXPECT_GT(fire_time, 0u);
}

TEST(Machine, RemoteReadGeneratesReply)
{
    Machine m(smallConfig());
    const EndpointAddr requester{ 0, 0 };
    const EndpointAddr target{ m.geom().id({ 2, 1, 0 }), 3 };
    std::optional<Packet> reply_seen;
    m.setDeliverHook([&](const PacketPtr &p, Cycle) {
        if (p->op == OpKind::ReadReply)
            reply_seen = *p;
    });
    m.send(m.makeRead(requester, target));
    // Two deliveries: the request at the target, the reply at the source.
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(2, 50000)).reason == StopReason::Delivered);
    ASSERT_TRUE(reply_seen.has_value());
    EXPECT_EQ(reply_seen->tc, TrafficClass::Reply);
    EXPECT_TRUE(reply_seen->dst == requester);
}

TEST(Machine, MulticastDeliversToAllDestinations)
{
    Machine m(smallConfig());
    const NodeId src = m.geom().id({ 1, 1, 1 });
    std::vector<McastDest> dests;
    // The Figure 3 pattern: a plane of neighboring nodes.
    for (int dy : { -1, 0, 1 }) {
        for (int dz : { -1, 0, 1 }) {
            Coords c = m.geom().coords(src);
            c[1] = (c[1] + dy + 4) % 4;
            c[2] = (c[2] + dz + 4) % 4;
            const NodeId n = m.geom().id(c);
            if (n != src)
                dests.push_back({ n, 2 });
        }
    }
    Rng tie(9);
    const auto tree = buildMcastTree(m.geom(), src, dests,
                                     DimOrder{ 1, 2, 0 }, 0, tie);
    const auto group = m.installTree(tree);

    std::set<NodeId> delivered_nodes;
    m.setDeliverHook([&](const PacketPtr &p, Cycle) {
        delivered_nodes.insert(p->dst.node);
        EXPECT_EQ(p->dst.ep, 2);
    });
    m.sendMulticast({ src, 0 }, group);
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(dests.size(), 50000)).reason == StopReason::Delivered);
    EXPECT_EQ(delivered_nodes.size(), dests.size());
}

TEST(Machine, MulticastWithoutAnEntryAtTheSourceIsRejected)
{
    Machine m(smallConfig());
    const NodeId root = m.geom().id({ 1, 1, 1 });
    const std::vector<McastDest> dests = {
        { m.geom().id({ 2, 1, 1 }), 1 }, { m.geom().id({ 1, 2, 1 }), 2 }
    };
    Rng tie(3);
    const McastTree tree =
        buildMcastTree(m.geom(), root, dests, DimOrder{ 0, 1, 2 }, 0, tie);
    const std::int32_t group = m.installTree(tree);
    NodeId outside = 0;
    while (tree.nodes.count(outside) != 0)
        ++outside;

    EXPECT_THROW(m.sendMulticast({ root, 0 }, group + 1),
                 std::invalid_argument); // never installed
    EXPECT_THROW(m.sendMulticast({ root, 0 }, -1), std::invalid_argument);
    EXPECT_THROW(m.sendMulticast({ outside, 0 }, group),
                 std::invalid_argument); // installed, but not at the source

    // The rejected sends injected nothing; the group still works.
    m.sendMulticast({ root, 0 }, group);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(dests.size(), 50000)).reason,
              StopReason::Delivered);
    EXPECT_EQ(m.totalDelivered(), dests.size());
}

TEST(Machine, MalformedPacketsAreRejectedInEveryBuild)
{
    // Inverse-weighted arbiters hold weights for kNumPatterns patterns
    // only: a packet of any other pattern, such as 200, would read past
    // them at its first grant.
    MachineConfig cfg = smallConfig();
    cfg.radix = { 2, 2, 2 };
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    Machine m(cfg);
    const EndpointAddr a{ 0, 0 };
    const EndpointAddr b{ 7, 1 };
    for (int i = 0; i < 64; ++i)
        EXPECT_THROW(m.makeWrite(a, b, 200), std::invalid_argument);
    const auto bad_pattern = static_cast<std::uint8_t>(kNumPatterns);
    EXPECT_THROW(m.makeWrite(a, b, bad_pattern), std::invalid_argument);
    EXPECT_THROW(m.makeRead(a, b, bad_pattern), std::invalid_argument);

    // Sizes outside [1, kMaxPacketFlits] would overrun the inline
    // payload.
    for (int size : { 0, -1, kMaxPacketFlits + 1 })
        EXPECT_THROW(m.makeWrite(a, b, 0, size), std::invalid_argument);

    // Endpoints outside the machine.
    const EndpointAddr outside[] = { { 8, 0 }, { 0, 4 }, { 0, -1 } };
    for (const EndpointAddr &x : outside) {
        EXPECT_THROW(m.makeWrite(x, b), std::invalid_argument);
        EXPECT_THROW(m.makeWrite(a, x), std::invalid_argument);
        EXPECT_THROW(m.makeRead(x, b), std::invalid_argument);
        EXPECT_THROW(m.makeRead(a, x), std::invalid_argument);
    }

    // sendMulticast checks the same before it reads the group.
    Rng tie(5);
    const McastTree tree = buildMcastTree(
        m.geom(), 0, { { 1, 1 }, { 2, 2 } }, DimOrder{ 0, 1, 2 }, 0, tie);
    const std::int32_t group = m.installTree(tree);
    EXPECT_THROW(m.sendMulticast(a, group, bad_pattern),
                 std::invalid_argument);
    EXPECT_THROW(m.sendMulticast(a, group, 0, kMaxPacketFlits + 1),
                 std::invalid_argument);
    EXPECT_THROW(m.sendMulticast({ 8, 0 }, group), std::invalid_argument);
    EXPECT_THROW(m.sendMulticast({ 0, 4 }, group), std::invalid_argument);

    // Nothing was allocated or sent; well-formed traffic still runs.
    for (int i = 0; i < 64; ++i)
        m.send(m.makeWrite(a, b, static_cast<std::uint8_t>(i % kNumPatterns),
                           kMaxPacketFlits));
    m.sendMulticast(a, group);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(66, 50000)).reason,
              StopReason::Delivered);
    EXPECT_EQ(m.totalDelivered(), 66u);
}

TEST(Machine, MalformedTreeIsRejected)
{
    Machine m(smallConfig());
    const TorusGeom &g = m.geom();
    const NodeId root = g.id({ 1, 1, 1 });
    const NodeId east = g.neighbor(root, 0, Dir::Pos);
    auto tree = [&](std::unordered_map<NodeId, McastNodeEntry> nodes) {
        McastTree t;
        t.root = root;
        t.nodes = std::move(nodes);
        return t;
    };
    const McastNodeEntry leaf{ {}, { 1 } };
    const McastNodeEntry to_east{ { { 0, Dir::Pos } }, {} };

    const McastTree cases[] = {
        // The root forwards +X to a node with no entry.
        tree({ { root, to_east } }),
        // A node id outside the machine.
        tree({ { root, to_east }, { east, leaf }, { g.numNodes(), leaf } }),
        // A hop dimension and a hop direction out of range.
        tree({ { root, { { { 3, Dir::Pos } }, {} } } }),
        tree({ { root, { { { 0, static_cast<Dir>(0) } }, {} } } }),
        // Local endpoints outside [0, endpoints per node).
        tree({ { root, { {}, { -1 } } } }),
        tree({ { root, { {}, { 4 } } } }),
        // Two hops reach the same node: duplicate deliveries.
        tree({ { root, { { { 0, Dir::Pos }, { 0, Dir::Pos } }, {} } },
               { east, leaf } }),
        // A loop back to the root: copies circle forever.
        tree({ { root, to_east },
               { east, { { { 0, Dir::Neg } }, { 1 } } } }),
        // An entry the root never reaches.
        tree({ { root, leaf }, { east, leaf } }),
        // The root itself has no entry.
        tree({ { east, leaf } }),
    };
    for (const McastTree &t : cases)
        EXPECT_THROW(m.installTree(t), std::invalid_argument);
    McastTree bad_slice = tree({ { root, leaf } });
    bad_slice.slice = kNumSlices;
    EXPECT_THROW(m.installTree(bad_slice), std::invalid_argument);

    // Nothing was installed and no group id was consumed: the first
    // well-formed tree still gets group 0 and delivers.
    const McastTree good = tree({ { root, to_east }, { east, leaf } });
    EXPECT_EQ(m.installTree(good), 0);
    m.sendMulticast({ root, 0 }, 0);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(1, 50000)).reason,
              StopReason::Delivered);
    EXPECT_EQ(m.totalDelivered(), 1u);
}

TEST(Machine, DeliveredPacketRecordsAreReused)
{
    // A delivered packet's record goes back to its source node's slab,
    // and the next packet injected at that node is that record, with
    // fresh fields and a freshly drawn route.
    Machine m(smallConfig());
    const TorusGeom &g = m.geom();
    const NodeId far = g.id({ 2, 3, 1 });
    PacketPtr first = m.makeWrite({ 0, 0 }, { far, 1 });
    const Packet *raw = first;
    m.send(first);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(1, 20000)).reason,
              StopReason::Delivered);
    EXPECT_EQ(m.chip(0).slab().live(), 0u);

    const NodeId dst = g.id({ 3, 0, 2 });
    PacketPtr second = m.makeWrite({ 0, 2 }, { dst, 3 });
    ASSERT_EQ(second, raw) << "the slab hands the same record back";
    EXPECT_EQ(second->hops, 0);
    EXPECT_EQ(second->dst.node, dst);
    const auto &left = second->route.left;
    EXPECT_EQ(left[0] + left[1] + left[2], g.hopDistance(0, dst));
    EXPECT_EQ(malformedRoute(g, 0, dst, second->route), nullptr);
}

TEST(Machine, MulticastSavesTorusHops)
{
    const TorusGeom g(8, 8, 8);
    const NodeId src = g.id({ 4, 4, 4 });
    std::vector<McastDest> dests;
    for (int dy : { -1, 0, 1 }) {
        for (int dz : { -1, 0, 1 }) {
            Coords c = g.coords(src);
            c[1] += dy;
            c[2] += dz;
            const NodeId n = g.id(c);
            if (n != src)
                dests.push_back({ n, 0 });
        }
    }
    Rng tie(2);
    const auto tree = buildMcastTree(g, src, dests, DimOrder{ 1, 2, 0 }, 0,
                                     tie);
    // Unicasts: 4 at distance 1 + 4 at distance 2 = 12 hops; the tree
    // reaches the 8 plane neighbors in 8 hops. (Figure 3's example counts
    // multiple endpoints per node; the per-node structure is the same.)
    EXPECT_EQ(unicastTorusHops(g, src, dests), 12);
    EXPECT_EQ(tree.torusHops(), 8);
}

TEST(Machine, Baseline2nPolicyAlsoDelivers)
{
    MachineConfig cfg = smallConfig();
    cfg.chip.vc_policy = VcPolicy::Baseline2n;
    Machine m(cfg);
    std::uint64_t sent = 0;
    for (NodeId d = 0; d < m.geom().numNodes(); d += 9) {
        m.send(m.makeWrite({ 0, 0 }, { d, 0 }));
        ++sent;
    }
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 100000)).reason == StopReason::Delivered);
}

TEST(Machine, Baseline2nInverseWeightedRoundTrips)
{
    // The widest chip state any machine builds: Baseline2n's 12 VCs give
    // every adapter side a 12-input inverse-weighted arbiter and 12-VC
    // credit counters. Weighted, saved mid-run and restored into a fresh
    // machine (weights unprogrammed: the image carries them), the run
    // ends as the uninterrupted one does.
    MachineConfig cfg = smallConfig();
    cfg.chip.vc_policy = VcPolicy::Baseline2n;
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    Machine base(cfg);
    ChannelAdapter &ca = base.chip(0).channelAdapter(0);
    ASSERT_NE(ca.egressArbiter(), nullptr);
    EXPECT_EQ(ca.egressArbiter()->numInputs(), 12);
    EXPECT_EQ(ca.torusCredits().numVcs(), 12);
    EXPECT_EQ(base.chip(0).router(0).outCredits(0).numVcs(), 12);

    const UniformPattern uniform(base.geom());
    BatchDriver::Config dcfg;
    dcfg.cores = { 0, 1, 2, 3 };
    dcfg.batch_size = 8;
    dcfg.pattern = &uniform;
    LoadModel lm(base.geom(), base.layout(), cfg.chip, 1);
    Rng rng(3);
    lm.addPattern(0, uniform, dcfg.cores, 50, rng);
    lm.applyWeights(base);

    auto finish = [](Machine &m, BatchDriver &driver) {
        Instrumentation inst;
        inst.metrics = true;
        m.attachInstrumentation(inst);
        const RunResult res = m.run(
            RunSpec::untilDelivered(driver.deliveredTarget(), 200000));
        EXPECT_EQ(res.reason, StopReason::Delivered);
        return std::make_pair(m.totalDelivered(), m.metricsJson());
    };
    const std::string path =
        std::string(::testing::TempDir()) + "baseline2n_iw.ckpt";
    BatchDriver bdriver(base, dcfg);
    base.engine().add(bdriver);
    base.run(RunSpec::forCycles(150));
    ASSERT_GT(base.totalDelivered(), 0u);
    ASSERT_LT(base.totalDelivered(), bdriver.deliveredTarget());
    base.saveCheckpoint(path);
    const auto expected = finish(base, bdriver);

    Machine restored(cfg);
    BatchDriver rdriver(restored, dcfg);
    restored.engine().add(rdriver);
    restored.restoreCheckpoint(path);
    std::remove(path.c_str());
    const auto got = finish(restored, rdriver);
    EXPECT_EQ(got.first, expected.first);
    EXPECT_EQ(got.first, rdriver.deliveredTarget());
    EXPECT_EQ(got.second, expected.second);
}

TEST(Machine, PacketsCarryDistinctIds)
{
    Machine m(smallConfig());
    std::set<std::uint64_t> ids;
    for (int i = 0; i < 50; ++i)
        ids.insert(m.makeWrite({ 0, 0 }, { 1, 0 })->id);
    EXPECT_EQ(ids.size(), 50u);
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto run = [] {
        Machine m(smallConfig());
        for (NodeId d = 0; d < m.geom().numNodes(); d += 3)
            m.send(m.makeWrite({ 0, 0 }, { d, 1 }));
        m.run(RunSpec::forCycles(5000));
        return std::make_pair(m.totalDelivered(), m.lastDeliveryTime());
    };
    EXPECT_EQ(run(), run());
}

TEST(Machine, PackagingLatenciesVaryByDistance)
{
    MachineConfig cfg = smallConfig();
    cfg.use_packaging = true;
    cfg.radix = { 8, 8, 8 };
    PackagingModel pkg;
    const TorusGeom g(8, 8, 8);
    // Same backplane (within a 4x4x1 block) is faster than inter-rack.
    const Cycle near = pkg.linkLatency(g, g.id({ 0, 0, 0 }), 0, Dir::Pos);
    const Cycle wrap = pkg.linkLatency(g, g.id({ 7, 0, 0 }), 0, Dir::Pos);
    EXPECT_LT(near, wrap);
}

// Wire latencies the engine cannot honour are refused when the machine
// is built, in every build type (not by assertions that Release drops).

TEST(MachineLatency, ZeroTorusLatencyIsRejected)
{
    MachineConfig cfg = smallConfig();
    cfg.radix = { 2, 2, 2 };
    cfg.fixed_torus_latency = 0;
    EXPECT_THROW(Machine m(cfg), std::invalid_argument);
    cfg.fixed_torus_latency = 1;
    EXPECT_NO_THROW(Machine m(cfg));
}

TEST(MachineShape, RadixBelowOneIsRejected)
{
    MachineConfig cfg = smallConfig();
    cfg.radix = { 4, 0, 4 };
    EXPECT_THROW(Machine m(cfg), std::invalid_argument);
    cfg.radix = { 4, -1, 4 };
    EXPECT_THROW(Machine m(cfg), std::invalid_argument);
}

TEST(MachineShape, TorusOtherThanThreeDIsRejected)
{
    MachineConfig cfg = smallConfig();
    for (const std::vector<int> &radix :
         { std::vector<int>{ 4, 4 }, std::vector<int>{ 2, 2, 2, 2 } }) {
        cfg.radix = radix;
        EXPECT_THROW(Machine m(cfg), std::invalid_argument);
    }
}

} // namespace
} // namespace anton2
