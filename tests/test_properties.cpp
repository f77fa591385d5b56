/**
 * @file
 * Cross-cutting property tests: VC monotonicity along whole routes, the
 * packaging model, gate-level round-robin rotation, and simulator/tracer
 * agreement properties.
 */
#include <gtest/gtest.h>

#include "analysis/loads.hpp"
#include "arb/priority_arb.hpp"
#include "core/machine.hpp"
#include "core/packaging.hpp"

namespace anton2 {
namespace {

TEST(Property, VcNeverDecreasesAlongARoute)
{
    // The promotion VC is monotonically non-decreasing over a packet's
    // lifetime - the essence of the acyclic ordering of Section 2.5.
    // The route advances as Chip::ingressAt advances a packet's: it
    // leaves by nextDim() and takes the hop off that dimension's count.
    const TorusGeom geom(5, 4, 6);
    Rng rng(13);
    PacketRoute route;
    for (VcPolicy policy : { VcPolicy::Anton2, VcPolicy::Baseline2n }) {
        for (int trial = 0; trial < 500; ++trial) {
            const auto src = static_cast<NodeId>(
                rng.below(geom.numNodes()));
            const auto dst = static_cast<NodeId>(
                rng.below(geom.numNodes()));
            randomRoute(geom, src, dst, rng, route);

            VcState vc(policy);
            int last = 0;
            Coords c = geom.coords(src);
            for (int d = route.nextDim(); d >= 0;) {
                const auto dd = static_cast<std::size_t>(d);
                const int to = geom.neighborCoord(c[dd], d, route.dirs[dd]);
                const int t =
                    vc.onTorusHop(geom.crossesDateline(c[dd], to, d));
                EXPECT_GE(t, last);
                last = t;
                c[dd] = to;
                --route.left[dd];
                const int next = route.nextDim();
                if (next != d)
                    vc.onDimComplete();
                d = next;
            }
            EXPECT_EQ(geom.id(c), dst);
        }
    }
}

TEST(Property, SimulatedHopsMatchGeometryDistance)
{
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.seed = 99;
    Machine m(cfg);
    Rng rng(21);
    // Copies of the delivered records (a packet is released once it is
    // delivered).
    std::vector<Packet> pkts;
    m.setDeliverHook([&](const PacketPtr &p, Cycle) { pkts.push_back(*p); });
    std::uint64_t sent = 0;
    for (int i = 0; i < 40; ++i) {
        const auto dst = static_cast<NodeId>(
            rng.below(m.geom().numNodes()));
        m.send(m.makeWrite({ 0, 0 }, { dst, 1 }));
        ++sent;
    }
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);
    ASSERT_EQ(pkts.size(), sent);
    for (const auto &pkt : pkts)
        EXPECT_EQ(pkt.hops, m.geom().hopDistance(0, pkt.dst.node));
}

TEST(Packaging, BackplaneGrouping)
{
    const TorusGeom geom(8, 8, 8);
    // Nodes (0..3, 0..3, z) share a backplane; x=4 starts another.
    EXPECT_EQ(PackagingModel::backplaneOf(geom, geom.id({ 0, 0, 0 })),
              PackagingModel::backplaneOf(geom, geom.id({ 3, 3, 0 })));
    EXPECT_NE(PackagingModel::backplaneOf(geom, geom.id({ 0, 0, 0 })),
              PackagingModel::backplaneOf(geom, geom.id({ 4, 0, 0 })));
    EXPECT_NE(PackagingModel::backplaneOf(geom, geom.id({ 0, 0, 0 })),
              PackagingModel::backplaneOf(geom, geom.id({ 0, 0, 1 })));
}

TEST(Packaging, IntraBackplaneLinksAreShortest)
{
    const TorusGeom geom(8, 8, 8);
    const PackagingModel pkg;
    const double trace =
        pkg.linkLengthCm(geom, geom.id({ 1, 1, 0 }), 0, Dir::Pos);
    const double cable =
        pkg.linkLengthCm(geom, geom.id({ 3, 0, 0 }), 0, Dir::Pos);
    EXPECT_LT(trace, cable);
    // Every link latency is at least one cycle.
    for (NodeId n = 0; n < geom.numNodes(); n += 37) {
        for (int d = 0; d < 3; ++d) {
            for (Dir dir : kDirs)
                EXPECT_GE(pkg.linkLatency(geom, n, d, dir), 1u);
        }
    }
}

TEST(Property, GateLevelRoundRobinRotates)
{
    // With all inputs requesting at equal priority, repeatedly applying
    // the grant + thermometer update visits every input exactly once per
    // k grants.
    for (int k : { 2, 3, 4, 6, 8 }) {
        const GateLevelPriorityArb arb(k, 2);
        std::vector<std::uint8_t> pri(static_cast<std::size_t>(k), 0);
        std::uint32_t therm = 0;
        const std::uint32_t req = (k == 32) ? ~0u : ((1u << k) - 1);
        std::vector<int> counts(static_cast<std::size_t>(k), 0);
        for (int round = 0; round < 3 * k; ++round) {
            const std::uint32_t g = arb.grant(req, pri.data(), therm);
            ASSERT_NE(g, 0u);
            int idx = 0;
            while (!(g & (1u << idx)))
                ++idx;
            ++counts[static_cast<std::size_t>(idx)];
            therm = rrThermAfterGrant(k, idx);
        }
        for (int c : counts)
            EXPECT_EQ(c, 3) << "k=" << k;
    }
}

TEST(Property, LoadTracerConservesPackets)
{
    // Every traced packet contributes exactly hopDistance to the torus
    // loads and exactly one ejection event.
    const TorusGeom geom(4, 4, 4);
    const ChipLayout layout(23, 3);
    ChipConfig chip;
    Rng rng(31);
    LoadModel lm(geom, layout, chip, 1);
    double expected_hops = 0;
    const int packets = 200;
    for (int i = 0; i < packets; ++i) {
        const auto src = static_cast<NodeId>(rng.below(geom.numNodes()));
        const auto dst = static_cast<NodeId>(rng.below(geom.numNodes()));
        PacketRoute route;
        randomRoute(geom, src, dst, rng, route);
        lm.tracePacket({ src, 0 }, { dst, 1 }, route, 1.0, 0);
        expected_hops += geom.hopDistance(src, dst);
    }
    double total = 0;
    for (NodeId n = 0; n < geom.numNodes(); ++n) {
        for (int d = 0; d < 3; ++d) {
            for (Dir dir : kDirs) {
                for (int s = 0; s < kNumSlices; ++s)
                    total += lm.torusLoad(n, d, dir, s, 0);
            }
        }
    }
    EXPECT_DOUBLE_EQ(total, expected_hops);
}

TEST(Property, RequestAndReplyClassesDoNotBlockEachOther)
{
    // Saturate the Request class while issuing reads; replies (Reply
    // class) must still be delivered (protocol-deadlock avoidance, §2.1).
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.seed = 55;
    Machine m(cfg);
    Rng rng(4);
    // Flood writes.
    for (int i = 0; i < 400; ++i) {
        const auto a = static_cast<NodeId>(rng.below(m.geom().numNodes()));
        const auto b = static_cast<NodeId>(rng.below(m.geom().numNodes()));
        m.send(m.makeWrite({ a, 0 }, { b, 1 }));
    }
    // Interleave reads.
    int replies = 0;
    m.setDeliverHook([&](const PacketPtr &p, Cycle) {
        replies += (p->op == OpKind::ReadReply);
    });
    for (int i = 0; i < 20; ++i)
        m.send(m.makeRead({ 0, 2 }, { m.geom().id({ 2, 2, 2 }), 3 }));
    ASSERT_EQ(m.run(RunSpec::untilQuiescent(2000000)).reason,
              StopReason::Quiescent);
    EXPECT_EQ(replies, 20);
}

TEST(Property, MachineSurvivesHeavyMulticastContention)
{
    // Many overlapping multicast trees fanning out simultaneously: checks
    // the replication path cannot deadlock or lose copies.
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.seed = 77;
    Machine m(cfg);
    Rng rng(8);
    std::uint64_t expected = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); n += 3) {
        std::vector<McastDest> dests;
        for (int i = 0; i < 6; ++i) {
            dests.push_back(
                { static_cast<NodeId>(rng.below(m.geom().numNodes())),
                  static_cast<int>(rng.below(4)) });
        }
        const auto tree = buildMcastTree(m.geom(), n, dests,
                                         DimOrder{ 0, 1, 2 },
                                         static_cast<std::uint8_t>(
                                             rng.below(2)),
                                         rng);
        const auto group = m.installTree(tree);
        // Count distinct (node, ep) deliveries this tree will make.
        std::size_t uniq = 0;
        for (const auto &[node, entry] : tree.nodes)
            uniq += entry.local.size();
        expected += uniq;
        m.sendMulticast({ n, 0 }, group);
    }
    ASSERT_EQ(m.run(RunSpec::untilQuiescent(2000000)).reason,
              StopReason::Quiescent);
    EXPECT_EQ(m.totalDelivered(), expected);
}

} // namespace
} // namespace anton2
