/**
 * @file
 * Tests for the analysis tools: the load model, the worst-case routing
 * search (Section 2.4 / Equation (1) / Figure 4), and the deadlock
 * checkers (Section 2.5).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>

#include "analysis/deadlock.hpp"
#include "analysis/loads.hpp"
#include "analysis/worst_case.hpp"
#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

// ---------------------------------------------------------------------
// Worst-case permutation search (Section 2.4)
// ---------------------------------------------------------------------

TEST(WorstCase, Equation1PermutationIsValid)
{
    const auto perm = equation1Permutation();
    ASSERT_EQ(perm.size(), 6u);
    // A permutation with no U-turns (perm[i] == i would reverse).
    std::vector<bool> seen(6, false);
    for (int i = 0; i < 6; ++i) {
        EXPECT_NE(perm[static_cast<std::size_t>(i)], i);
        seen[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
            true;
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(WorstCase, Anton2OrderAchievesLoadTwoOnEquation1)
{
    const ChipLayout layout(23);
    const int load = maxMeshLoadForPermutation(
        layout, equation1Permutation(), anton2DirOrder(), 0);
    // Figure 4: the most heavily loaded mesh channels carry two torus
    // channels' worth of traffic.
    EXPECT_EQ(load, 2);
}

TEST(WorstCase, SearchFindsAnton2OrderOptimal)
{
    const ChipLayout layout(23);
    const auto results = searchDirectionOrders(layout, 0);
    ASSERT_EQ(results.size(), 24u);

    // The best worst-case load must be 2 (one torus channel cannot be
    // beaten: two flows must share some mesh channel in the worst case),
    // and the Anton 2 order must attain it.
    const int best = results.front().worst_load;
    EXPECT_EQ(best, 2);

    int anton2_worst = -1;
    for (const auto &r : results) {
        if (r.order == anton2DirOrder())
            anton2_worst = r.worst_load;
    }
    EXPECT_EQ(anton2_worst, best);
}

TEST(WorstCase, BothSlicesAreEquivalent)
{
    const ChipLayout layout(23);
    for (const auto &order :
         { anton2DirOrder(),
           MeshDirOrder{ MeshDir::UPos, MeshDir::UNeg, MeshDir::VPos,
                         MeshDir::VNeg } }) {
        int worst0 = 0, worst1 = 0;
        const auto results0 = searchDirectionOrders(layout, 0);
        const auto results1 = searchDirectionOrders(layout, 1);
        for (std::size_t i = 0; i < results0.size(); ++i) {
            if (results0[i].order == order)
                worst0 = results0[i].worst_load;
            if (results1[i].order == order)
                worst1 = results1[i].worst_load;
        }
        EXPECT_EQ(worst0, worst1) << orderToString(order);
    }
}

// ---------------------------------------------------------------------
// Deadlock checkers (Section 2.5)
// ---------------------------------------------------------------------

/** Parameter: (ndims, radix, policy). */
class TorusDeadlockSweep
    : public ::testing::TestWithParam<std::tuple<int, int, VcPolicy>>
{
};

TEST_P(TorusDeadlockSweep, DependencyGraphIsAcyclic)
{
    const auto [ndims, k, policy] = GetParam();
    std::vector<int> radix(static_cast<std::size_t>(ndims), k);
    const TorusGeom geom(radix);
    const auto report = checkTorusLevel(geom, policy);
    EXPECT_TRUE(report.acyclic)
        << "cycle of length " << report.cycle.size() << ", first: "
        << (report.cycle.empty() ? "" : report.cycle.front());
    // 1-D tori of radix <= 3 have only single-hop minimal routes and thus
    // a legitimately empty dependency graph.
    if (ndims > 1 || k > 3) {
        EXPECT_GT(report.edges, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TorusDeadlockSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(2, 3, 4, 5, 6),
                       ::testing::Values(VcPolicy::Anton2,
                                         VcPolicy::Baseline2n)),
    [](const auto &info) {
        return std::string("n") + std::to_string(std::get<0>(info.param))
               + "k" + std::to_string(std::get<1>(info.param)) + "_"
               + (std::get<2>(info.param) == VcPolicy::Anton2
                      ? "anton2"
                      : "baseline2n");
    });

TEST(Deadlock, FourDimensionalTorusIsAcyclic)
{
    // The promotion scheme generalizes to any n-dimensional torus.
    const TorusGeom geom(std::vector<int>{ 4, 4, 3, 3 });
    EXPECT_TRUE(checkTorusLevel(geom, VcPolicy::Anton2).acyclic);
}

TEST(Deadlock, NoDatelineControlHasCycle)
{
    // Without datelines a single-VC ring of radix >= 5 deadlocks.
    const TorusGeom geom(std::vector<int>{ 5 });
    const auto report = checkTorusLevel(geom, VcPolicy::NoDateline);
    EXPECT_FALSE(report.acyclic);
    EXPECT_GE(report.cycle.size(), 2u);
}

TEST(Deadlock, NoDatelineControlCycleIn3D)
{
    const TorusGeom geom(5, 3, 3);
    EXPECT_FALSE(checkTorusLevel(geom, VcPolicy::NoDateline).acyclic);
}

TEST(Deadlock, SmallRingsHaveNoCycleEvenWithoutDateline)
{
    // Minimal routes on a radix-3 ring are single hops; no dependencies
    // can chain, so even the broken policy is (vacuously) safe.
    const TorusGeom geom(std::vector<int>{ 3 });
    EXPECT_TRUE(checkTorusLevel(geom, VcPolicy::NoDateline).acyclic);
}

TEST(Deadlock, ChipLevelAnton2IsAcyclic)
{
    const TorusGeom geom(3, 3, 3);
    const ChipLayout layout(23);
    const auto report = checkChipLevel(geom, layout, VcPolicy::Anton2,
                                       anton2DirOrder(), { 0, 11, 22 });
    EXPECT_TRUE(report.acyclic)
        << (report.cycle.empty() ? "" : report.cycle.front());
    EXPECT_GT(report.edges, 1000u);
}

TEST(Deadlock, ChipLevelWithTiesIsAcyclic)
{
    // Even radix exercises direction ties and the k/2 minimal boundary.
    const TorusGeom geom(4, 4, 4);
    const ChipLayout layout(23);
    const auto report = checkChipLevel(geom, layout, VcPolicy::Anton2,
                                       anton2DirOrder(), { 0, 22 });
    EXPECT_TRUE(report.acyclic)
        << (report.cycle.empty() ? "" : report.cycle.front());
}

TEST(Deadlock, ChipLevelBaselineIsAcyclic)
{
    const TorusGeom geom(3, 3, 3);
    const ChipLayout layout(23);
    EXPECT_TRUE(checkChipLevel(geom, layout, VcPolicy::Baseline2n,
                               anton2DirOrder(), { 0, 22 })
                    .acyclic);
}

TEST(Deadlock, ChipLevelNoDatelineHasCycle)
{
    const TorusGeom geom(5, 3, 3);
    const ChipLayout layout(23);
    const auto report = checkChipLevel(geom, layout, VcPolicy::NoDateline,
                                       anton2DirOrder(), { 0 });
    EXPECT_FALSE(report.acyclic);
}

TEST(Deadlock, ChipLevelGraphsArePinned)
{
    // The four chip-level graphs above, pinned by their resource and
    // edge counts and the FNV-1a hash (ckptHash) of the captured edge
    // list in the order the traced routes insert it, each edge as its
    // two names NUL-terminated: a change to how the checker walks a
    // route must leave every route's resources, and their order, as
    // they were.
    struct Case
    {
        std::vector<int> radix;
        VcPolicy policy;
        std::vector<int> endpoints;
        std::size_t resources, edges;
        std::uint64_t hash;
        std::size_t cycle; ///< resources on the cycle, 0 when acyclic
    };
    const Case cases[] = {
        { { 3, 3, 3 }, VcPolicy::Anton2, { 0, 11, 22 }, 4428, 6237,
          0x018b7e97a5c48468ULL, 0 },
        { { 3, 3, 3 }, VcPolicy::Baseline2n, { 0, 22 }, 4023, 5481,
          0xf6e5237816c79ba3ULL, 0 },
        { { 4, 4, 4 }, VcPolicy::Anton2, { 0, 22 }, 10208, 15424,
          0xfbea31eb80e40921ULL, 0 },
        { { 5, 3, 3 }, VcPolicy::NoDateline, { 0 }, 2340, 3375,
          0x51c839059c8ae476ULL, 26 },
    };
    const ChipLayout layout(23);
    for (const Case &c : cases) {
        const TorusGeom geom(c.radix);
        const auto report = checkChipLevel(geom, layout, c.policy,
                                           anton2DirOrder(), c.endpoints,
                                           /*capture_graph=*/true);
        std::string bytes;
        for (const auto &[from, to] : report.graph_edges) {
            bytes.append(from).push_back('\0');
            bytes.append(to).push_back('\0');
        }
        const std::string name = vcPolicyName(c.policy) + std::string(" on ")
                                 + std::to_string(c.radix[0]) + "x"
                                 + std::to_string(c.radix[1]) + "x"
                                 + std::to_string(c.radix[2]);
        EXPECT_EQ(report.resources, c.resources) << name;
        EXPECT_EQ(report.edges, c.edges) << name;
        EXPECT_EQ(report.graph_edges.size(), c.edges) << name;
        EXPECT_EQ(ckptHash(bytes.data(), bytes.size()), c.hash) << name;
        EXPECT_EQ(report.acyclic, c.cycle == 0) << name;
        EXPECT_EQ(report.cycle.size(), c.cycle) << name;
    }
}

// ---------------------------------------------------------------------
// Load model (Sections 3.1-3.2)
// ---------------------------------------------------------------------

class LoadModelTest : public ::testing::Test
{
  protected:
    TorusGeom geom_{ 4, 4, 4 };
    ChipLayout layout_{ 23 };
    ChipConfig chip_;
};

TEST_F(LoadModelTest, SinglePacketChargesItsTorusChannels)
{
    LoadModel lm(geom_, layout_, chip_, 1);
    const NodeId dst = geom_.id({ 2, 0, 0 });
    // Distance exactly k/2: X+ is chosen, not drawn.
    const PacketRoute route(geom_, 0, dst, DimOrder{ 0, 1, 2 },
                            { Dir::Pos, Dir::Pos, Dir::Pos }, 0);
    lm.tracePacket({ 0, 0 }, { dst, 1 }, route, 1.0, 0);

    // Two X+ hops: from node (0,0,0) and (1,0,0), on slice 0.
    EXPECT_DOUBLE_EQ(lm.torusLoad(0, 0, Dir::Pos, 0, 0), 1.0);
    EXPECT_DOUBLE_EQ(lm.torusLoad(geom_.id({ 1, 0, 0 }), 0, Dir::Pos, 0, 0),
                     1.0);
    EXPECT_DOUBLE_EQ(lm.torusLoad(geom_.id({ 2, 0, 0 }), 0, Dir::Pos, 0, 0),
                     0.0);
    EXPECT_DOUBLE_EQ(lm.maxTorusLoad(0), 1.0);
}

TEST_F(LoadModelTest, UniformLoadsAreNodeSymmetric)
{
    LoadModel lm(geom_, layout_, chip_, 1);
    Rng rng(3);
    const UniformPattern uniform(geom_);
    lm.addPattern(0, uniform, { 0, 1, 2, 3 }, 400, rng);

    // Node-symmetric traffic: every torus channel's load should be within
    // sampling noise of every other same-dimension channel's load.
    double total = 0.0;
    int count = 0;
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (int s = 0; s < kNumSlices; ++s) {
            total += lm.torusLoad(n, 0, Dir::Pos, s, 0);
            ++count;
        }
    }
    const double mean = total / count;
    EXPECT_GT(mean, 0.0);
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        EXPECT_NEAR(lm.torusLoad(n, 0, Dir::Pos, 0, 0), mean, mean * 0.35);
    }
}

TEST_F(LoadModelTest, TornadoLoadsConcentrateInOneDirection)
{
    // Tornado on k=4 moves +1 in every dimension: all X traffic flows X+.
    LoadModel lm(geom_, layout_, chip_, 1);
    Rng rng(5);
    const TornadoPattern tornado(geom_);
    lm.addPattern(0, tornado, { 0 }, 64, rng);
    double pos = 0.0, neg = 0.0;
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (int s = 0; s < kNumSlices; ++s) {
            pos += lm.torusLoad(n, 0, Dir::Pos, s, 0);
            neg += lm.torusLoad(n, 0, Dir::Neg, s, 0);
        }
    }
    EXPECT_GT(pos, 0.0);
    EXPECT_EQ(neg, 0.0);
}

TEST_F(LoadModelTest, IdealThroughputMatchesHandComputation)
{
    // Tornado with 1 core/node: every node sends 1 pkt/cycle crossing one
    // X+, one Y+, one Z+ channel (distance k/2-1 = 1 per dim). Per-dim
    // per-direction channels carry rate/2 per slice... with 2 slices and
    // random slice choice, each X+ slice channel carries 1/2 load.
    LoadModel lm(geom_, layout_, chip_, 1);
    Rng rng(7);
    const TornadoPattern tornado(geom_);
    lm.addPattern(0, tornado, { 0 }, 2000, rng);
    // The max over all channels of a binomially sampled 0.5 load sits a
    // few sigma above 0.5; allow for that tail.
    EXPECT_NEAR(lm.maxTorusLoad(0), 0.5, 0.07);
    const double cap = 14.0 / 45.0;
    EXPECT_NEAR(lm.idealCoreThroughput(0), cap / 0.5, cap * 0.25);
}

TEST_F(LoadModelTest, RouterLoadsFeedInverseWeights)
{
    LoadModel lm(geom_, layout_, chip_, 2);
    Rng rng(9);
    const UniformPattern uniform(geom_);
    const TornadoPattern tornado(geom_);
    lm.addPattern(0, uniform, { 0, 1 }, 200, rng);
    lm.addPattern(1, tornado, { 0, 1 }, 200, rng);

    MachineConfig mcfg;
    mcfg.radix = { 4, 4, 4 };
    mcfg.chip = chip_;
    mcfg.chip.arb = ArbPolicy::InverseWeighted;
    Machine m(mcfg);
    lm.applyWeights(m);

    // Spot-check: some arbiter must have a non-default weight programmed.
    bool any_nontrivial = false;
    for (RouterId r = 0; r < layout_.numRouters() && !any_nontrivial; ++r) {
        for (int port = 0; port < kRouterPorts; ++port) {
            auto *arb = m.chip(0).router(r).outputArbiter(port);
            if (arb == nullptr)
                continue;
            for (int i = 0; i < arb->numInputs(); ++i) {
                if (arb->accumulators().weight(i, 0) != 1
                    && arb->accumulators().weight(i, 0) != 31) {
                    any_nontrivial = true;
                }
            }
        }
    }
    EXPECT_TRUE(any_nontrivial);
}

TEST_F(LoadModelTest, TraceAgreesWithSimulatorDeliveryPath)
{
    // Cross-validation: a packet traced analytically must use exactly the
    // torus channels the cycle simulator moves it through.
    MachineConfig mcfg;
    mcfg.radix = { 4, 4, 4 };
    mcfg.chip = chip_;
    mcfg.use_packaging = false;
    Machine m(mcfg);

    Rng rng(11);
    int hops = -1;
    m.setDeliverHook([&](const PacketPtr &p, Cycle) { hops = p->hops; });
    for (int trial = 0; trial < 10; ++trial) {
        const NodeId dst = static_cast<NodeId>(
            rng.below(m.geom().numNodes() - 1) + 1);
        auto pkt = m.makeWrite({ 0, 0 }, { dst, 0 });

        LoadModel lm(m.geom(), m.layout(), mcfg.chip, 1);
        lm.tracePacket(pkt->src, pkt->dst, pkt->route, 1.0, 0);

        double traced_hops = 0;
        for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
            for (int dim = 0; dim < 3; ++dim) {
                for (Dir dir : kDirs) {
                    for (int s = 0; s < kNumSlices; ++s)
                        traced_hops += lm.torusLoad(n, dim, dir, s, 0);
                }
            }
        }
        m.send(pkt);
        ASSERT_TRUE(m.run(RunSpec::untilDelivered(
            static_cast<std::uint64_t>(trial) + 1, 20000)).reason == StopReason::Delivered);
        EXPECT_EQ(static_cast<int>(traced_hops), hops);
    }
}

// ---------------------------------------------------------------------
// Load model against the ChipLayout::route reference tracer
// ---------------------------------------------------------------------

/**
 * The load tracer as it was before the charge table: every chip crossing
 * re-derives its on-chip path through ChipLayout::route, finds each mesh
 * hop's direction by search, and picks the next torus dimension from
 * coordinates at every node (the first in route order whose coordinate
 * differs from the destination's), not from the route's hops left. Same
 * index layout as LoadModel's arrays, so every element can be compared
 * with ==.
 */
class ReferenceLoads
{
  public:
    ReferenceLoads(const TorusGeom &geom, const ChipLayout &layout,
                   const ChipConfig &chip, int num_patterns)
        : geom_(geom),
          layout_(layout),
          chip_(chip),
          nr_(static_cast<std::size_t>(layout.numRouters())),
          np_(static_cast<std::size_t>(kRouterPorts)),
          nca_(static_cast<std::size_t>(layout.numChannelAdapters())),
          nvc_(static_cast<std::size_t>(chip.numVcs()))
    {
        const auto nodes = static_cast<std::size_t>(geom.numNodes());
        const auto slots = static_cast<std::size_t>(num_patterns);
        router.assign(slots, std::vector<double>(nodes * nr_ * np_ * np_));
        ca_egress.assign(slots, std::vector<double>(nodes * nca_ * nvc_));
        ca_ingress.assign(slots, std::vector<double>(nodes * nca_ * nvc_));
        torus.assign(slots, std::vector<double>(nodes * 3 * 2 * kNumSlices));
        mesh.assign(slots, std::vector<double>(nodes * nr_ * kNumMeshDirs));
    }

    void
    addPattern(int slot, const TrafficPattern &pattern,
               const std::vector<EndpointId> &cores, int samples_per_core,
               Rng &rng)
    {
        const double w = 1.0 / static_cast<double>(samples_per_core);
        for (NodeId n = 0; n < geom_.numNodes(); ++n) {
            for (EndpointId e : cores) {
                for (int s = 0; s < samples_per_core; ++s) {
                    const NodeId dst_node = pattern.dest(n, rng);
                    const EndpointId dst_ep =
                        cores[rng.below(cores.size())];
                    PacketRoute route;
                    randomRoute(geom_, n, dst_node, rng, route);
                    tracePacket({ n, e }, { dst_node, dst_ep }, route, w,
                                slot);
                }
            }
        }
    }

    void
    tracePacket(EndpointAddr src, EndpointAddr dst, const PacketRoute &route,
                double weight, int slot)
    {
        auto &rt = router[static_cast<std::size_t>(slot)];
        auto &eg = ca_egress[static_cast<std::size_t>(slot)];
        auto &in = ca_ingress[static_cast<std::size_t>(slot)];
        auto &tor = torus[static_cast<std::size_t>(slot)];
        auto &msh = mesh[static_cast<std::size_t>(slot)];
        const int vpc = chip_.vcsPerClass();
        auto fullVc = [&](int promo) {
            return fullVcIndex(TrafficClass::Request, promo, vpc);
        };

        auto nextDim = [&](NodeId here) {
            for (int d : route.order) {
                if (geom_.coord(here, d) != geom_.coord(dst.node, d))
                    return d;
            }
            return -1;
        };

        VcState vc(chip_.vc_policy);
        NodeId here = src.node;
        AttachPoint entry = AttachPoint::forEndpoint(src.ep);
        for (int guard = 0; guard < 1024; ++guard) {
            const int next = nextDim(here);
            if (entry.kind == AttachPoint::Kind::Channel) {
                const int ca = ChipLayout::channelAdapterIndex(
                    entry.dim, entry.dir, entry.slice);
                in[caIdx(here, ca, fullVc(vc.torusVc()))] += weight;
                if (next != entry.dim)
                    vc.onDimComplete();
            }
            const AttachPoint exit =
                next < 0 ? AttachPoint::forEndpoint(dst.ep)
                         : AttachPoint::forChannel(
                               next,
                               route.dirs[static_cast<std::size_t>(next)],
                               route.slice);
            int in_port = -1;
            for (const auto &c :
                 layout_.route(entry, exit, chip_.dir_order)) {
                switch (c.kind) {
                  case ChipChannel::Kind::EndpointToRouter:
                    in_port = layout_.endpointPort(c.to_router, c.adapter);
                    break;
                  case ChipChannel::Kind::AdapterToRouter:
                    in_port = layout_.channelPort(c.to_router, c.adapter);
                    break;
                  case ChipChannel::Kind::Mesh: {
                      MeshDir d = MeshDir::UPos;
                      for (MeshDir cand : kMeshDirs) {
                          if (layout_.mesh().canMove(c.from_router, cand)
                              && layout_.mesh().move(c.from_router, cand)
                                     == c.to_router) {
                              d = cand;
                              break;
                          }
                      }
                      rt[routerIdx(here, c.from_router,
                                   layout_.meshPort(c.from_router, d),
                                   in_port)] += weight;
                      msh[(static_cast<std::size_t>(here) * nr_
                           + c.from_router)
                              * kNumMeshDirs
                          + static_cast<std::size_t>(meshDirIdx(d))] +=
                          weight;
                      in_port =
                          layout_.meshPort(c.to_router, meshOpposite(d));
                      break;
                  }
                  case ChipChannel::Kind::Skip:
                    rt[routerIdx(here, c.from_router,
                                 layout_.skipPort(c.from_router), in_port)] +=
                        weight;
                    in_port = layout_.skipPort(c.to_router);
                    break;
                  case ChipChannel::Kind::RouterToAdapter:
                    rt[routerIdx(here, c.from_router,
                                 layout_.channelPort(c.from_router,
                                                     c.adapter),
                                 in_port)] += weight;
                    break;
                  case ChipChannel::Kind::RouterToEndpoint:
                    rt[routerIdx(here, c.from_router,
                                 layout_.endpointPort(c.from_router,
                                                      c.adapter),
                                 in_port)] += weight;
                    break;
                }
            }
            if (next < 0)
                return;
            const Dir dir = route.dirs[static_cast<std::size_t>(next)];
            const int ca =
                ChipLayout::channelAdapterIndex(next, dir, route.slice);
            eg[caIdx(here, ca, fullVc(vc.torusVc()))] += weight;
            tor[((static_cast<std::size_t>(here) * 3
                  + static_cast<std::size_t>(next))
                     * 2
                 + static_cast<std::size_t>(dirIndex(dir)))
                    * kNumSlices
                + route.slice] += weight;
            const int from = geom_.coord(here, next);
            const int to = geom_.neighborCoord(from, next, dir);
            vc.onTorusHop(geom_.crossesDateline(from, to, next));
            here = geom_.neighbor(here, next, dir);
            entry = AttachPoint::forChannel(next, opposite(dir), route.slice);
        }
        FAIL() << "reference route failed to terminate";
    }

    /** Every array element of @p lm equals this reference's. */
    void
    expectEqual(const LoadModel &lm) const
    {
        const int slots = static_cast<int>(router.size());
        ASSERT_EQ(lm.numPatterns(), slots);
        std::size_t mismatches = 0;
        auto same = [&](double got, double want) {
            mismatches += got == want ? 0 : 1;
        };
        for (int p = 0; p < slots; ++p) {
            const auto ps = static_cast<std::size_t>(p);
            for (NodeId n = 0; n < geom_.numNodes(); ++n) {
                for (RouterId r = 0; r < layout_.numRouters(); ++r) {
                    for (int o = 0; o < kRouterPorts; ++o)
                        for (int i = 0; i < kRouterPorts; ++i)
                            same(lm.routerLoad(n, r, o, i, p),
                                 router[ps][routerIdx(n, r, o, i)]);
                    for (MeshDir d : kMeshDirs)
                        same(lm.meshLoad(n, r, d, p),
                             mesh[ps][(static_cast<std::size_t>(n) * nr_
                                       + r)
                                          * kNumMeshDirs
                                      + static_cast<std::size_t>(
                                          meshDirIdx(d))]);
                }
                for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
                    for (int v = 0; v < chip_.numVcs(); ++v) {
                        same(lm.caEgressLoad(n, ca, v, p),
                             ca_egress[ps][caIdx(n, ca, v)]);
                        same(lm.caIngressLoad(n, ca, v, p),
                             ca_ingress[ps][caIdx(n, ca, v)]);
                    }
                }
                for (int d = 0; d < 3; ++d)
                    for (Dir dir : kDirs)
                        for (int s = 0; s < kNumSlices; ++s)
                            same(lm.torusLoad(n, d, dir, s, p),
                                 torus[ps][((static_cast<std::size_t>(n) * 3
                                             + static_cast<std::size_t>(d))
                                                * 2
                                            + static_cast<std::size_t>(
                                                dirIndex(dir)))
                                               * kNumSlices
                                           + static_cast<std::size_t>(s)]);
            }
        }
        EXPECT_EQ(mismatches, 0u);
    }

    /**
     * Every inverse-weighted arbiter of @p m holds the weights the
     * pre-charge-table applyWeights programmed: inverseWeightsFromLoads
     * over the arbiter's (input, pattern) load matrix.
     */
    void
    expectWeights(Machine &m) const
    {
        const auto slots = router.size();
        std::size_t arbiters = 0, mismatches = 0;
        auto check = [&](InverseWeightedArbiter *arb,
                         const std::vector<std::vector<double>> &loads,
                         std::size_t base) {
            if (arb == nullptr)
                return;
            ++arbiters;
            const auto k = static_cast<std::size_t>(arb->numInputs());
            std::vector<std::vector<double>> mat(k,
                                                 std::vector<double>(slots));
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t p = 0; p < slots; ++p)
                    mat[i][p] = loads[p][base + i];
            const auto w = inverseWeightsFromLoads(mat, kDefaultWeightBits);
            const auto &acc = arb->accumulators();
            for (std::size_t i = 0; i < k; ++i)
                for (int p = 0; p < acc.numPatterns(); ++p) {
                    const auto src = std::min(static_cast<std::size_t>(p),
                                              slots - 1);
                    mismatches += acc.weight(static_cast<int>(i), p)
                                          == w[i][src]
                                      ? 0
                                      : 1;
                }
        };
        for (NodeId n = 0; n < geom_.numNodes(); ++n) {
            Chip &chip = m.chip(n);
            for (RouterId r = 0; r < layout_.numRouters(); ++r)
                for (int port = 0; port < kRouterPorts; ++port)
                    check(chip.router(r).outputArbiter(port), router,
                          routerIdx(n, r, port, 0));
            for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
                check(chip.channelAdapter(ca).egressArbiter(), ca_egress,
                      caIdx(n, ca, 0));
                check(chip.channelAdapter(ca).ingressArbiter(), ca_ingress,
                      caIdx(n, ca, 0));
            }
        }
        EXPECT_GT(arbiters, 0u);
        EXPECT_EQ(mismatches, 0u);
    }

    std::vector<std::vector<double>> router, ca_egress, ca_ingress, torus,
        mesh;

  private:
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

    const TorusGeom &geom_;
    const ChipLayout &layout_;
    ChipConfig chip_;
    std::size_t nr_, np_, nca_, nvc_;
};

struct LoadCase
{
    std::vector<int> radix;
    int endpoints;
    VcPolicy policy;
    MeshDirOrder order;
    int samples;
};

void
PrintTo(const LoadCase &lc, std::ostream *os)
{
    *os << lc.radix[0] << "x" << lc.radix[1] << "x" << lc.radix[2] << ", "
        << lc.endpoints << " endpoints, " << vcPolicyName(lc.policy) << ", "
        << (lc.order == anton2DirOrder() ? "Anton 2" : "other")
        << " mesh order, " << lc.samples << " samples/core";
}

class LoadModelReference : public ::testing::TestWithParam<LoadCase>
{
};

TEST_P(LoadModelReference, LoadsAndWeightsMatchTheChipLayoutTracer)
{
    const LoadCase &lc = GetParam();
    MachineConfig cfg;
    cfg.radix = lc.radix;
    cfg.chip.endpoints_per_node = lc.endpoints;
    cfg.chip.vc_policy = lc.policy;
    cfg.chip.dir_order = lc.order;
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    cfg.use_packaging = false;
    Machine m(cfg);
    const TorusGeom &geom = m.geom();

    // Slots: uniform, tornado, 2-hop neighbour and the halo workload's
    // 1-hop neighbour; cores spread over the chip so entries at many
    // routers are charged.
    const UniformPattern uniform(geom);
    const TornadoPattern tornado(geom);
    const NHopNeighborPattern two_hop(geom, 2);
    const NHopNeighborPattern one_hop(geom, 1);
    const TrafficPattern *patterns[] = { &uniform, &tornado, &two_hop,
                                         &one_hop };
    constexpr int kSlots = 4;
    std::vector<EndpointId> cores;
    for (EndpointId e = 0; e < lc.endpoints; e += 3)
        cores.push_back(e);

    LoadModel lm(geom, m.layout(), cfg.chip, kSlots);
    ReferenceLoads ref(geom, m.layout(), cfg.chip, kSlots);
    Rng a(17), b(17);
    for (int slot = 0; slot < kSlots; ++slot) {
        lm.addPattern(slot, *patterns[slot], cores, lc.samples, a);
        ref.addPattern(slot, *patterns[slot], cores, lc.samples, b);
    }
    EXPECT_EQ(a.state(), b.state()) << "same RNG draws";

    // Hand-built routes too: any order, any direction per dimension
    // (minimal or the long way round, up to k - 1 hops in one run),
    // either slice, any endpoints.
    Rng h(23);
    for (int i = 0; i < 500; ++i) {
        const auto src = static_cast<NodeId>(h.below(geom.numNodes()));
        const auto dst = static_cast<NodeId>(h.below(geom.numNodes()));
        PacketRoute drawn;
        randomRoute(geom, src, dst, h, drawn);
        std::array<Dir, 3> dirs;
        for (Dir &d : dirs)
            d = h.bit() ? Dir::Neg : Dir::Pos;
        const PacketRoute route(geom, src, dst,
                                DimOrder(drawn.order.begin(),
                                         drawn.order.end()),
                                dirs, drawn.slice);
        const EndpointAddr s{ src, static_cast<EndpointId>(
                                       h.below(static_cast<std::uint64_t>(
                                           lc.endpoints))) };
        const EndpointAddr t{ dst, static_cast<EndpointId>(
                                       h.below(static_cast<std::uint64_t>(
                                           lc.endpoints))) };
        lm.tracePacket(s, t, route, 0.125, 1);
        ref.tracePacket(s, t, route, 0.125, 1);
    }

    // Sample again on top: slot 1 holds sampled and traced loads, slot 0
    // sampled ones. Loads already charged take their additions one by
    // one from their current value, the others from zero.
    for (int slot : { 1, 0 }) {
        lm.addPattern(slot, *patterns[slot], cores, lc.samples, a);
        ref.addPattern(slot, *patterns[slot], cores, lc.samples, b);
    }
    EXPECT_EQ(a.state(), b.state()) << "same RNG draws";
    ref.expectEqual(lm);

    lm.applyWeights(m);
    ref.expectWeights(m);
}

MeshDirOrder
otherDirOrder()
{
    return { MeshDir::UPos, MeshDir::UNeg, MeshDir::VPos, MeshDir::VNeg };
}

std::string
loadCaseName(const ::testing::TestParamInfo<LoadCase> &info)
{
    const LoadCase &lc = info.param;
    std::string policy = vcPolicyName(lc.policy);
    std::replace(policy.begin(), policy.end(), '-', '_');
    return "k" + std::to_string(lc.radix[0]) + "x"
           + std::to_string(lc.radix[1]) + "x" + std::to_string(lc.radix[2])
           + "_e" + std::to_string(lc.endpoints) + "_" + policy
           + (lc.order == anton2DirOrder() ? "_anton2order" : "_otherorder");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LoadModelReference,
    ::testing::Values(
        LoadCase{ { 4, 4, 4 }, 23, VcPolicy::Anton2, anton2DirOrder(), 24 },
        LoadCase{ { 4, 4, 4 }, 8, VcPolicy::Baseline2n, otherDirOrder(),
                  24 },
        LoadCase{ { 8, 8, 8 }, 8, VcPolicy::Anton2, anton2DirOrder(), 2 },
        LoadCase{ { 8, 8, 8 }, 8, VcPolicy::Baseline2n, otherDirOrder(),
                  1 },
        LoadCase{ { 3, 5, 8 }, 23, VcPolicy::Anton2, otherDirOrder(), 8 },
        LoadCase{ { 3, 5, 8 }, 8, VcPolicy::Baseline2n, anton2DirOrder(),
                  8 },
        // Every non-zero offset is a tie, and tornado sends each node to
        // itself.
        LoadCase{ { 2, 2, 2 }, 23, VcPolicy::Anton2, anton2DirOrder(), 24 },
        // Minimal runs of up to 8 hops along X, traced ones of up to 15,
        // and a Y dimension no route travels.
        LoadCase{ { 16, 1, 3 }, 8, VcPolicy::Anton2, otherDirOrder(), 16 }),
    loadCaseName);

// ---------------------------------------------------------------------
// Load model input checks
// ---------------------------------------------------------------------

TEST_F(LoadModelTest, RejectsTorusWithoutThreeDimensions)
{
    const TorusGeom four({ 2, 2, 2, 2 });
    EXPECT_THROW(LoadModel(four, layout_, chip_, 1), std::invalid_argument);
    const TorusGeom two({ 4, 4 });
    EXPECT_THROW(LoadModel(two, layout_, chip_, 1), std::invalid_argument);
    EXPECT_THROW(LoadModel(geom_, layout_, chip_, 0), std::invalid_argument);
}

TEST_F(LoadModelTest, ApplyWeightsRejectsAMachineOfAnotherShape)
{
    LoadModel lm(geom_, layout_, chip_, 1);
    MachineConfig mcfg;
    mcfg.radix = { 2, 4, 4 };
    mcfg.chip = chip_;
    mcfg.chip.arb = ArbPolicy::InverseWeighted;
    Machine smaller(mcfg);
    EXPECT_THROW(lm.applyWeights(smaller), std::invalid_argument);
    mcfg.radix = { 4, 4, 4 };
    Machine same(mcfg);
    EXPECT_NO_THROW(lm.applyWeights(same));
}

TEST_F(LoadModelTest, QueriesRejectSlotsAndSizesOutOfRange)
{
    // A one-slot model: slot 1 would read past its arrays, and a packet
    // of no flits would make the torus bound infinite.
    LoadModel lm(geom_, layout_, chip_, 1);
    Rng rng(1);
    const NodeId dst = geom_.id({ 1, 0, 0 });
    lm.tracePacket({ 0, 0 }, { dst, 1 },
                   makeRoute(geom_, 0, dst, DimOrder{ 0, 1, 2 }, 0, rng), 1.0,
                   0);
    for (int slot : { -1, 1 }) {
        EXPECT_THROW(lm.routerLoad(0, 0, 0, 0, slot), std::invalid_argument);
        EXPECT_THROW(lm.caEgressLoad(0, 0, 0, slot), std::invalid_argument);
        EXPECT_THROW(lm.caIngressLoad(0, 0, 0, slot), std::invalid_argument);
        EXPECT_THROW(lm.torusLoad(0, 0, Dir::Pos, 0, slot),
                     std::invalid_argument);
        EXPECT_THROW(lm.meshLoad(0, 0, MeshDir::UPos, slot),
                     std::invalid_argument);
        EXPECT_THROW(lm.maxTorusLoad(slot), std::invalid_argument);
        EXPECT_THROW(lm.maxMeshLoad(slot), std::invalid_argument);
        EXPECT_THROW(lm.idealCoreThroughput(slot), std::invalid_argument);
    }
    for (int size : { 0, -1 })
        EXPECT_THROW(lm.idealCoreThroughput(0, size), std::invalid_argument);
    EXPECT_EQ(lm.maxTorusLoad(0), 1.0);
    EXPECT_EQ(lm.idealCoreThroughput(0, 2), lm.idealCoreThroughput(0) / 2);
}

TEST_F(LoadModelTest, RejectsOrdersThatAreNotPermutations)
{
    // A record's order holds three values; orders of another length are
    // rejected where a record is built (Route.*).
    LoadModel lm(geom_, layout_, chip_, 1);
    Rng rng(1);
    const NodeId dst = geom_.id({ 1, 2, 3 });
    const PacketRoute good = makeRoute(geom_, 0, dst, DimOrder{ 2, 0, 1 }, 1,
                                       rng);
    for (const std::array<std::uint8_t, 3> &order :
         { std::array<std::uint8_t, 3>{ 0, 1, 1 }, { 2, 2, 2 }, { 0, 1, 3 },
           { 255, 1, 2 } }) {
        PacketRoute bad = good;
        bad.order = order;
        EXPECT_THROW(lm.tracePacket({ 0, 0 }, { dst, 1 }, bad, 1.0, 0),
                     std::invalid_argument);
    }
    EXPECT_EQ(lm.maxTorusLoad(0), 0.0) << "a rejected route charges nothing";
    EXPECT_NO_THROW(lm.tracePacket({ 0, 0 }, { dst, 1 }, good, 1.0, 0));
}

TEST_F(LoadModelTest, RejectsMalformedDirsSliceAndAddresses)
{
    LoadModel lm(geom_, layout_, chip_, 1);
    Rng rng(1);
    const NodeId dst = geom_.id({ 1, 2, 3 });
    const PacketRoute good = makeRoute(geom_, 0, dst, DimOrder{ 0, 1, 2 }, 0,
                                       rng);
    auto rejects = [&](EndpointAddr src, EndpointAddr to,
                       const PacketRoute &route, int slot) {
        EXPECT_THROW(lm.tracePacket(src, to, route, 1.0, slot),
                     std::invalid_argument);
    };
    PacketRoute bad = good;
    bad.dirs[1] = static_cast<Dir>(0);
    rejects({ 0, 0 }, { dst, 1 }, bad, 0);
    bad = good;
    bad.slice = kNumSlices;
    rejects({ 0, 0 }, { dst, 1 }, bad, 0);
    // Hops left that are not the whole route: part-way along it, past
    // it, and the route of another destination.
    bad = good;
    --bad.left[1];
    rejects({ 0, 0 }, { dst, 1 }, bad, 0);
    bad = good;
    ++bad.left[0];
    rejects({ 0, 0 }, { dst, 1 }, bad, 0);
    rejects({ 0, 0 }, { geom_.id({ 1, 2, 2 }), 1 }, good, 0);
    rejects({ geom_.numNodes(), 0 }, { dst, 1 }, good, 0);
    rejects({ 0, 0 }, { dst, layout_.numEndpoints() }, good, 0);
    rejects({ 0, -1 }, { dst, 1 }, good, 0);
    rejects({ 0, 0 }, { dst, 1 }, good, 1);
    rejects({ 0, 0 }, { dst, 1 }, good, -1);

    const UniformPattern uniform(geom_);
    EXPECT_THROW(lm.addPattern(0, uniform, { 0, layout_.numEndpoints() }, 1,
                               rng),
                 std::invalid_argument);
    EXPECT_THROW(lm.addPattern(1, uniform, { 0 }, 1, rng),
                 std::invalid_argument);
    // No samples, and more routes than 32-bit counts hold: 64 nodes x 8
    // cores x 10^7 samples. Each is rejected before the first draw.
    const auto drawn = rng.state();
    for (int samples : { 0, -1 })
        EXPECT_THROW(lm.addPattern(0, uniform, { 0 }, samples, rng),
                     std::invalid_argument);
    EXPECT_THROW(lm.addPattern(0, uniform, { 0, 1, 2, 3, 4, 5, 6, 7 },
                               10'000'000, rng),
                 std::invalid_argument);
    EXPECT_EQ(rng.state(), drawn) << "rejected before any draw";
    EXPECT_EQ(lm.maxTorusLoad(0), 0.0) << "a rejected call charges nothing";
}

} // namespace
} // namespace anton2
