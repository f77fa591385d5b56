/**
 * @file
 * Tests for the traffic patterns and drivers (Sections 4.1-4.2).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

class PatternTest : public ::testing::Test
{
  protected:
    TorusGeom geom_{ 8, 8, 8 };
    Rng rng_{ 3 };
};

TEST_F(PatternTest, UniformNeverSelfAndCoversAll)
{
    const UniformPattern p(geom_);
    std::set<NodeId> seen;
    for (int i = 0; i < 20000; ++i) {
        const NodeId d = p.dest(5, rng_);
        EXPECT_NE(d, 5u);
        seen.insert(d);
    }
    EXPECT_EQ(seen.size(), geom_.numNodes() - 1);
}

TEST_F(PatternTest, UniformIsRoughlyUniform)
{
    const UniformPattern p(geom_);
    std::map<NodeId, int> counts;
    const int draws = 51100; // ~100 per destination
    for (int i = 0; i < draws; ++i)
        ++counts[p.dest(0, rng_)];
    for (const auto &[node, c] : counts) {
        EXPECT_GT(c, 50);
        EXPECT_LT(c, 170);
    }
}

TEST_F(PatternTest, NHopNeighborRespectsRadius)
{
    for (int n : { 1, 2, 3 }) {
        const NHopNeighborPattern p(geom_, n);
        for (int i = 0; i < 2000; ++i) {
            const NodeId src = static_cast<NodeId>(
                rng_.below(geom_.numNodes()));
            const NodeId d = p.dest(src, rng_);
            EXPECT_NE(d, src);
            const Coords cs = geom_.coords(src);
            const Coords cd = geom_.coords(d);
            for (int dim = 0; dim < 3; ++dim) {
                EXPECT_LE(geom_.distance(cs[static_cast<std::size_t>(dim)],
                                         cd[static_cast<std::size_t>(dim)],
                                         dim),
                          n);
            }
        }
    }
}

TEST_F(PatternTest, TornadoIsDeterministicShift)
{
    const TornadoPattern p(geom_);
    const NodeId src = geom_.id({ 1, 2, 3 });
    // k/2 - 1 = 3 for k = 8.
    EXPECT_EQ(geom_.coords(p.dest(src, rng_)), (Coords{ 4, 5, 6 }));
    // Wraps around.
    EXPECT_EQ(geom_.coords(p.dest(geom_.id({ 7, 7, 7 }), rng_)),
              (Coords{ 2, 2, 2 }));
}

TEST_F(PatternTest, ReverseTornadoInvertsTornado)
{
    const TornadoPattern fwd(geom_, false);
    const TornadoPattern rev(geom_, true);
    for (NodeId n = 0; n < geom_.numNodes(); n += 17)
        EXPECT_EQ(rev.dest(fwd.dest(n, rng_), rng_), n);
}

TEST_F(PatternTest, TornadoIsPermutation)
{
    const TornadoPattern p(geom_);
    std::set<NodeId> dests;
    for (NodeId n = 0; n < geom_.numNodes(); ++n)
        dests.insert(p.dest(n, rng_));
    EXPECT_EQ(dests.size(), geom_.numNodes());
}

TEST_F(PatternTest, BitComplementIsInvolution)
{
    const BitComplementPattern p(geom_);
    for (NodeId n = 0; n < geom_.numNodes(); n += 13)
        EXPECT_EQ(p.dest(p.dest(n, rng_), rng_), n);
}

TEST_F(PatternTest, PermutationPatternFollowsTable)
{
    std::vector<NodeId> map(geom_.numNodes());
    for (NodeId n = 0; n < geom_.numNodes(); ++n)
        map[n] = (n + 7) % geom_.numNodes();
    const PermutationPattern p(geom_, map);
    EXPECT_EQ(p.dest(0, rng_), 7u);
    EXPECT_EQ(p.dest(geom_.numNodes() - 1, rng_), 6u);
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

MachineConfig
driverConfig()
{
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 10;
    cfg.seed = 5;
    return cfg;
}

TEST(BatchDriver, SendsExactBatchAndCompletes)
{
    Machine m(driverConfig());
    UniformPattern pat(m.geom());
    BatchDriver::Config dcfg;
    dcfg.cores = { 0, 1 };
    dcfg.batch_size = 16;
    dcfg.pattern = &pat;
    BatchDriver driver(m, dcfg);
    m.engine().add(driver);

    EXPECT_EQ(driver.expected(), 16u * 64 * 2);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(driver.deliveredTarget(),
                                            2000000))
                  .reason,
              StopReason::Delivered);
    EXPECT_EQ(driver.sentTotal(), driver.expected());
    EXPECT_EQ(m.totalDelivered(), driver.expected());
    EXPECT_GT(driver.throughputPerCore(), 0.0);
}

TEST(BatchDriver, BlendLabelsPackets)
{
    Machine m(driverConfig());
    TornadoPattern fwd(m.geom(), false);
    TornadoPattern rev(m.geom(), true);
    std::uint64_t label0 = 0, label1 = 0;
    m.setDeliverHook([&](const PacketPtr &p, Cycle) {
        if (p->pattern == 0)
            ++label0;
        else
            ++label1;
    });
    BatchDriver::Config dcfg;
    dcfg.cores = { 0 };
    dcfg.batch_size = 64;
    dcfg.pattern = &fwd;
    dcfg.pattern_id = 0;
    dcfg.pattern2 = &rev;
    dcfg.pattern2_id = 1;
    dcfg.blend_fraction2 = 0.5;
    BatchDriver driver(m, dcfg);
    m.engine().add(driver);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(driver.deliveredTarget(),
                                            2000000))
                  .reason,
              StopReason::Delivered);
    const double frac = static_cast<double>(label1)
                        / static_cast<double>(label0 + label1);
    EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(OpenLoopDriver, OffersApproximatelyAtRate)
{
    Machine m(driverConfig());
    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = { 0 };
    dcfg.rate = 0.02;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);
    m.run(RunSpec::forCycles(5000));
    const double expected = 0.02 * 64 * 5000;
    EXPECT_NEAR(static_cast<double>(driver.offered()), expected,
                expected * 0.15);
}

TEST(OpenLoopDriver, DisabledDriverOffersNothing)
{
    Machine m(driverConfig());
    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = { 0 };
    dcfg.rate = 0.5;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    driver.setEnabled(false);
    m.engine().add(driver);
    m.run(RunSpec::forCycles(1000));
    EXPECT_EQ(driver.offered(), 0u);
}

TEST(CoreList, EnumeratesNodeEndpointPairs)
{
    Machine m(driverConfig());
    const auto cores = makeCoreList(m, { 0, 2 });
    EXPECT_EQ(cores.size(), 128u);
    EXPECT_EQ(cores[0].node, 0u);
    EXPECT_EQ(cores[0].ep, 0);
    EXPECT_EQ(cores[1].ep, 2);
    EXPECT_EQ(firstEndpoints(3), (std::vector<EndpointId>{ 0, 1, 2 }));
    EXPECT_TRUE(firstEndpoints(0).empty());
    // A negative count is a caller error, not a vector length_error.
    EXPECT_THROW(firstEndpoints(-1), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Multicast tree properties
// ---------------------------------------------------------------------

TEST(McastTree, PathsAreValidDimensionOrderRoutes)
{
    const TorusGeom geom(6, 6, 6);
    Rng rng(7);
    const NodeId src = geom.id({ 2, 3, 1 });
    std::vector<McastDest> dests;
    for (int i = 0; i < 12; ++i)
        dests.push_back({ static_cast<NodeId>(rng.below(geom.numNodes())),
                          static_cast<int>(rng.below(4)) });
    const DimOrder order{ 2, 0, 1 };
    const auto tree = buildMcastTree(geom, src, dests, order, 0, rng);

    // Walk the tree from the root; every node's forward dims must be
    // non-decreasing in order position relative to the arrival dim, and
    // every destination must be reachable.
    std::set<std::pair<NodeId, int>> reached;
    std::function<void(NodeId, int)> walk = [&](NodeId n, int min_pos) {
        const auto it = tree.nodes.find(n);
        if (it == tree.nodes.end())
            return;
        for (int ep : it->second.local)
            reached.insert({ n, ep });
        for (const auto &hop : it->second.forward) {
            int pos = -1;
            for (std::size_t i = 0; i < order.size(); ++i) {
                if (order[i] == hop.dim)
                    pos = static_cast<int>(i);
            }
            ASSERT_GE(pos, min_pos) << "tree violates dimension order";
            walk(geom.neighbor(n, hop.dim, hop.dir), pos);
        }
    };
    walk(src, 0);
    for (const auto &d : dests)
        EXPECT_TRUE(reached.count(d)) << "unreached destination";
}

TEST(McastTree, HopCountNeverExceedsUnicasts)
{
    const TorusGeom geom(8, 8, 8);
    Rng rng(9);
    for (int trial = 0; trial < 20; ++trial) {
        const NodeId src = static_cast<NodeId>(rng.below(geom.numNodes()));
        std::vector<McastDest> dests;
        const int n = 2 + static_cast<int>(rng.below(10));
        for (int i = 0; i < n; ++i) {
            dests.push_back(
                { static_cast<NodeId>(rng.below(geom.numNodes())), 0 });
        }
        const auto tree = buildMcastTree(geom, src, dests,
                                         DimOrder{ 0, 1, 2 }, 0, rng);
        EXPECT_LE(tree.torusHops(), unicastTorusHops(geom, src, dests));
    }
}

/**
 * FNV-1a (ckptHash) of a tree: its root and slice, then each node's
 * entry in node order - the node, its forward hops (dimension and
 * direction) and local endpoints, each list in the order the entry
 * holds it.
 */
std::uint64_t
treeHash(const McastTree &tree)
{
    std::vector<std::int64_t> words{ tree.root, tree.slice };
    std::vector<NodeId> nodes;
    for (const auto &[node, entry] : tree.nodes)
        nodes.push_back(node);
    std::sort(nodes.begin(), nodes.end());
    for (NodeId n : nodes) {
        const McastNodeEntry &entry = tree.nodes.at(n);
        words.push_back(n);
        words.push_back(static_cast<std::int64_t>(entry.forward.size()));
        for (const McastHop &hop : entry.forward) {
            words.push_back(hop.dim);
            words.push_back(dirIndex(hop.dir));
        }
        words.push_back(static_cast<std::int64_t>(entry.local.size()));
        for (int ep : entry.local)
            words.push_back(ep);
    }
    return ckptHash(words.data(), words.size() * sizeof(std::int64_t));
}

TEST(McastTree, TreesArePinned)
{
    // Figure 3's trees on 4x4x4: the 3x3 Y/Z plane around (2, 2, 2),
    // one endpoint per node, in the two orders the bench alternates.
    const TorusGeom small(4, 4, 4);
    const NodeId centre = small.id({ 2, 2, 2 });
    std::vector<McastDest> plane;
    for (int dy : { -1, 0, 1 }) {
        for (int dz : { -1, 0, 1 }) {
            if (dy != 0 || dz != 0)
                plane.push_back({ small.id({ 2, 2 + dy, 2 + dz }), 0 });
        }
    }
    Rng rng(3);
    std::vector<std::uint64_t> got;
    for (const DimOrder &order : { DimOrder{ 1, 2, 0 }, DimOrder{ 2, 1, 0 } })
        got.push_back(treeHash(
            buildMcastTree(small, centre, plane, order, 0, rng)));
    // On 8x8x8 from (4, 4, 4), every node with even coordinates: a zero
    // coordinate is a k/2 offset, so each tree draws its tie directions;
    // three endpoints spread over the nodes. Every order, both slices.
    const TorusGeom big(8, 8, 8);
    std::vector<McastDest> even;
    for (NodeId n = 0; n < big.numNodes(); ++n) {
        const Coords c = big.coords(n);
        if (c[0] % 2 == 0 && c[1] % 2 == 0 && c[2] % 2 == 0)
            even.push_back({ n, (c[0] + c[1] + c[2]) / 2 % 3 });
    }
    const NodeId mid = big.id({ 4, 4, 4 });
    int i = 0;
    for (const DimOrder &order : allDimOrders(3)) {
        const auto slice = static_cast<std::uint8_t>(i++ % kNumSlices);
        got.push_back(treeHash(buildMcastTree(big, mid, even, order, slice,
                                              rng)));
    }
    Rng drawn(3);
    for (std::size_t d = 0; d < 3 * got.size(); ++d)
        drawn.bit();
    EXPECT_EQ(rng.state(), drawn.state())
        << "one tie draw per dimension per tree";
    const std::vector<std::uint64_t> want{
        0x3510cb90042b84c9ULL, 0xcac0cf976dfc6209ULL,
        0x8b0ed285f1eeb113ULL, 0x8a75372703ddbf76ULL,
        0x2899717d86d6da24ULL, 0x7f767b7981bd8849ULL,
        0x1cda2282e321691cULL, 0x0e64dacd16ccc679ULL,
    };
    EXPECT_EQ(got, want);
}

TEST(McastTree, MalformedOrderIsRejected)
{
    // Node 0 to node 57 = (1, 2, 3) on 4x4x4 is 4 hops. An order that
    // leaves a dimension out or repeats one would end the branch early
    // (at node 9, after 3 hops), and one past the dimensions would
    // index past the directions: each is rejected before the tie draws.
    const TorusGeom geom(4, 4, 4);
    const NodeId dst = geom.id({ 1, 2, 3 });
    const std::vector<McastDest> dests{ { dst, 0 } };
    Rng rng(13);
    const auto drawn = rng.state();
    for (const DimOrder &order :
         { DimOrder{ 0, 1 }, DimOrder{ 0, 0, 1 }, DimOrder{ 0, 1, 3 },
           DimOrder{ 0, 1, 2, 0 }, DimOrder{} }) {
        EXPECT_THROW(buildMcastTree(geom, 0, dests, order, 0, rng),
                     std::invalid_argument);
    }
    EXPECT_THROW(buildMcastTree(geom, 0, dests, DimOrder{ 0, 1, 2 },
                                kNumSlices, rng),
                 std::invalid_argument);
    EXPECT_EQ(rng.state(), drawn) << "rejected before any draw";
    const auto tree = buildMcastTree(geom, 0, dests, DimOrder{ 0, 1, 2 }, 0,
                                     rng);
    EXPECT_EQ(tree.torusHops(), 4);
    ASSERT_EQ(tree.nodes.count(dst), 1u);
    EXPECT_EQ(tree.nodes.at(dst).local, std::vector<int>{ 0 });
}

TEST(McastTree, SingleDestinationEqualsUnicast)
{
    const TorusGeom geom(8, 8, 8);
    Rng rng(11);
    const NodeId src = 0;
    const std::vector<McastDest> dests{ { geom.id({ 3, 2, 1 }), 4 } };
    const auto tree = buildMcastTree(geom, src, dests, DimOrder{ 0, 1, 2 },
                                     0, rng);
    EXPECT_EQ(tree.torusHops(), geom.hopDistance(src, dests[0].first));
}

} // namespace
} // namespace anton2
